// Command spfserver serves an spf database over the wire protocol
// (internal/server) and exposes the unified engine metrics snapshot on an
// HTTP /metrics endpoint in Prometheus text format. It is the front end
// the spfload harness drives.
//
// Usage:
//
//	spfserver [flags]
//
// The server creates the named indexes at boot (default "kv"; a name may
// carry an engine kind as "name=hash" or "name=btree"), serves
// until SIGINT/SIGTERM, then drains gracefully: the listener closes,
// in-flight requests finish, and the database closes cleanly.
// With -lifecycle the engine's log archiver steps every 25 ms, a fixed
// cadence.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/workload"
	"repro/spf"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:7070", "wire protocol listen address")
		metricsAddr = flag.String("metrics-addr", "127.0.0.1:7071", "HTTP /metrics listen address (empty disables)")
		indexes     = flag.String("indexes", "kv", "comma-separated indexes to create at boot; name or name=kind (kind: btree, hash)")
		preload     = flag.Int("preload", 0, "keys to preload into the first index (workload.Key layout)")
		valueLen    = flag.Int("value-len", 64, "preloaded value size in bytes")

		pageSize   = flag.Int("page-size", 4096, "page size in bytes")
		dataSlots  = flag.Int("data-slots", 1<<16, "data device capacity in pages")
		poolFrames = flag.Int("pool-frames", 4096, "buffer pool frames")
		maint      = flag.Bool("maintenance", true, "enable background write-back and scrubbing")

		workers  = flag.Int("workers", 128, "request worker pool size")
		reqTimeo = flag.Duration("request-timeout", 5*time.Second, "per-request deadline")

		lifecycle = flag.Bool("lifecycle", false, "keep a log archive (the live log recycles behind checkpoints; without it, behind full backups)")
		archSeg   = flag.Int64("archive-segment", 256<<10, "archive run granularity in bytes")
		ckptInt   = flag.Duration("checkpoint-interval", 2*time.Second, "periodic checkpoint cadence (0 disables)")
		backupInt = flag.Duration("backup-interval", 15*time.Second, "periodic full-backup cadence (0 disables)")
	)
	flag.Parse()

	opts := spf.Options{
		PageSize:    *pageSize,
		DataSlots:   *dataSlots,
		PoolFrames:  *poolFrames,
		Maintenance: spf.MaintenanceOptions{Enabled: *maint},
	}
	if *lifecycle {
		opts.Lifecycle = spf.LifecycleOptions{
			Enabled:      true,
			SegmentBytes: *archSeg,
			Logf:         log.Printf,
		}
	}
	db, err := spf.Open(opts)
	if err != nil {
		log.Fatalf("open: %v", err)
	}

	var names []string
	for _, spec := range strings.Split(*indexes, ",") {
		if spec = strings.TrimSpace(spec); spec == "" {
			continue
		}
		// "name" or "name=kind" — btree unless said otherwise.
		name, kindName, _ := strings.Cut(spec, "=")
		kind, err := spf.ParseIndexKind(kindName)
		if err != nil {
			log.Fatalf("index %q: %v", spec, err)
		}
		if _, err := db.CreateIndexKind(name, kind); err != nil {
			log.Fatalf("create index %q: %v", name, err)
		}
		names = append(names, name)
	}
	if *preload > 0 && len(names) > 0 {
		ix, err := db.Index(names[0])
		if err != nil {
			log.Fatalf("preload: %v", err)
		}
		val := make([]byte, *valueLen)
		for i := range val {
			val[i] = byte('a' + i%26)
		}
		const batch = 1000
		for lo := 0; lo < *preload; lo += batch {
			tx := db.Begin()
			hi := lo + batch
			if hi > *preload {
				hi = *preload
			}
			for i := lo; i < hi; i++ {
				if err := ix.Insert(tx, workload.Key(i), val); err != nil {
					log.Fatalf("preload key %d: %v", i, err)
				}
			}
			if err := db.Commit(tx); err != nil {
				log.Fatalf("preload commit: %v", err)
			}
		}
		log.Printf("preloaded %d keys into %q", *preload, names[0])
	}

	// The log recycles only behind horizons that move: periodic
	// checkpoints move the redo horizon, periodic full backups the release
	// horizon — with or without the archive.
	stopDrivers := make(chan struct{})
	driversDone := make(chan struct{})
	if *ckptInt > 0 || *backupInt > 0 {
		go func() {
			defer close(driversDone)
			var ck, bk <-chan time.Time
			if *ckptInt > 0 {
				t := time.NewTicker(*ckptInt)
				defer t.Stop()
				ck = t.C
			}
			if *backupInt > 0 {
				t := time.NewTicker(*backupInt)
				defer t.Stop()
				bk = t.C
			}
			for {
				select {
				case <-stopDrivers:
					return
				case <-ck:
					if _, err := db.Checkpoint(); err != nil {
						log.Printf("checkpoint: %v", err)
					}
				case <-bk:
					if _, _, err := db.BackupNow(); err != nil {
						log.Printf("backup: %v", err)
					}
				}
			}
		}()
	} else {
		close(driversDone)
	}

	srv := server.New(db, server.Config{
		Workers:        *workers,
		RequestTimeout: *reqTimeo,
	})
	server.RegisterRuntimeCollector(srv.Registry())

	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", metrics.Handler(srv.Registry()))
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			log.Fatalf("metrics listen: %v", err)
		}
		go func() {
			if err := http.Serve(mln, mux); err != nil {
				log.Printf("metrics server: %v", err)
			}
		}()
		log.Printf("metrics on http://%s/metrics", mln.Addr())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	log.Printf("serving %s on %s (workers=%d timeout=%v)",
		*indexes, ln.Addr(), *workers, *reqTimeo)

	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("%v: draining", s)
	case err := <-serveDone:
		if err != nil {
			log.Fatalf("serve: %v", err)
		}
		return
	}

	if err := srv.Shutdown(10 * time.Second); err != nil {
		log.Printf("shutdown: %v", err)
	}
	<-serveDone
	close(stopDrivers)
	<-driversDone
	m := db.Metrics()
	if err := db.Close(); err != nil {
		log.Printf("close: %v", err)
	}
	fmt.Printf("served: commits=%d pool-hits=%d pool-misses=%d pages=%d live-bytes=%d archived-runs=%d\n",
		m.Txns.UserCommitted, m.Pool.Hits, m.Pool.Misses, m.Pages,
		m.Log.LiveSegments*wal.ChunkSize, m.Archive.RunsWritten)
}
