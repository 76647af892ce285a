// Command spfload drives an spfserver with thousands of concurrent
// clients and reports throughput, latency percentiles, and — the
// correctness criterion — dropped acked writes.
//
// Each client owns a private key range for writes: every PUT encodes a
// sequence number, and a PUT counts as acked only when the server answers
// OK (which it does only after the commit proved durable). After the
// timed run a verification pass reads every client's private range back
// and counts acked sequence numbers that are no longer visible; the
// invariant is zero. Reads roam a shared keyspace with uniform or zipfian
// popularity via the internal/workload generator — the same keygen the
// in-process experiment harness uses, so wire numbers and library numbers
// describe the same workload.
//
// Soak mode (-soak) runs the same mixed load for the given duration while
// sampling the server's /metrics endpoint once a second, and exits
// nonzero if the bounded log lifecycle fails to hold: the live WAL
// buffer's bytes must stay under -max-live-bytes after warmup, and the
// post-GC heap floor must stop growing (last-quarter floor within
// -max-heap-growth of the steady-state floor). The server's log recycles
// behind its periodic checkpoints with -lifecycle and behind its periodic
// full backups without it; point the soak at either, with a backup
// interval short against the run.
//
// Usage:
//
//	spfload -addr 127.0.0.1:7070 -clients 1000 -duration 30s -zipf 1.2
//	spfload -addr 127.0.0.1:7070 -soak 2m -metrics-url http://127.0.0.1:7071/metrics
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/workload"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7070", "spfserver address")
		index    = flag.String("index", "kv", "index to drive")
		clients  = flag.Int("clients", 1000, "concurrent client connections")
		ramp     = flag.Duration("ramp", 2*time.Second, "time over which clients start")
		duration = flag.Duration("duration", 10*time.Second, "measured run length after ramp")
		readFrac = flag.Float64("reads", 0.9, "fraction of operations that are reads")
		keys     = flag.Int("keys", 100_000, "shared read keyspace size (preload with spfserver -preload)")
		zipfS    = flag.Float64("zipf", 0, "zipfian skew for read popularity (>1 enables; 0 = uniform)")
		valueLen = flag.Int("value-len", 64, "written value size in bytes")
		seed     = flag.Int64("seed", 1, "base RNG seed")

		soak       = flag.Duration("soak", 0, "soak-test length; overrides -duration and enables the resource-bound watchdog")
		metricsURL = flag.String("metrics-url", "http://127.0.0.1:7071/metrics", "spfserver metrics endpoint sampled by -soak")
		maxLive    = flag.Float64("max-live-bytes", 16<<20, "soak bound on spf_wal_live_bytes after warmup")
		maxHeap    = flag.Float64("max-heap-growth", 1.5, "soak bound: final-quarter heap floor / steady-state heap floor")
	)
	flag.Parse()
	if *soak > 0 {
		*duration = *soak
	}

	reg := metrics.NewRegistry()
	readLat := reg.Histogram("load_read_seconds", "Read latency.", nil)
	writeLat := reg.Histogram("load_write_seconds", "Write latency.", nil)

	var (
		reads, writes, misses atomic.Int64
		errsSeen              atomic.Int64
		firstErr              atomic.Value
	)
	fail := func(err error) {
		errsSeen.Add(1)
		firstErr.CompareAndSwap(nil, err)
	}

	// acked[c] is the highest sequence number client c received an OK
	// for, per private key slot.
	perClientKeys := 16
	acked := make([][]int64, *clients)
	for c := range acked {
		acked[c] = make([]int64, perClientKeys)
		for i := range acked[c] {
			acked[c][i] = -1
		}
	}
	privKey := func(c, slot int) []byte {
		return []byte(fmt.Sprintf("load-c%05d-s%03d", c, slot))
	}

	var sampler *soakSampler
	if *soak > 0 {
		sampler = startSoakSampler(*metricsURL, time.Second)
	}

	stopAt := time.Now().Add(*ramp + *duration)
	var wg sync.WaitGroup
	log.Printf("ramping %d clients over %v, then measuring for %v", *clients, *ramp, *duration)
	start := time.Now()
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if *clients > 1 {
				time.Sleep(time.Duration(int64(*ramp) * int64(c) / int64(*clients)))
			}
			cl, err := server.Dial(*addr)
			if err != nil {
				fail(fmt.Errorf("client %d dial: %w", c, err))
				return
			}
			defer cl.Close()
			gen := workload.New(workload.Config{
				Seed:        *seed + int64(c),
				Mix:         workload.Mix{Reads: 1},
				InitialKeys: *keys,
				ZipfS:       *zipfS,
			})
			rng := rand.New(rand.NewSource(*seed + int64(c)*7919))
			val := make([]byte, *valueLen)
			seq := int64(0)
			for op := 0; time.Now().Before(stopAt); op++ {
				if rng.Float64() < *readFrac {
					t0 := time.Now()
					_, st, err := cl.Get(*index, gen.Next().Key)
					readLat.Observe(time.Since(t0).Seconds())
					if err != nil {
						fail(fmt.Errorf("client %d get: %w", c, err))
						return
					}
					if st == server.StatusNotFound {
						misses.Add(1)
					}
					reads.Add(1)
				} else {
					slot := op % perClientKeys
					seq++
					v := fmt.Appendf(val[:0], "seq=%d pad=", seq)
					for len(v) < *valueLen {
						v = append(v, 'x')
					}
					t0 := time.Now()
					st, err := cl.Put(*index, privKey(c, slot), v)
					writeLat.Observe(time.Since(t0).Seconds())
					if err != nil || st != server.StatusOK {
						// Not acked: the write may or may not be durable,
						// but the server made no promise. Do not record it.
						fail(fmt.Errorf("client %d put: st=%v %w", c, st, err))
						return
					}
					acked[c][slot] = seq
					writes.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Verification pass: every acked write must still be visible.
	log.Printf("run done; verifying acked writes")
	dropped := 0
	vcl, err := server.Dial(*addr)
	if err != nil {
		log.Fatalf("verify dial: %v", err)
	}
	defer vcl.Close()
	for c := 0; c < *clients; c++ {
		for slot, want := range acked[c] {
			if want < 0 {
				continue
			}
			v, st, err := vcl.Get(*index, privKey(c, slot))
			if err != nil {
				log.Fatalf("verify get c%d s%d: %v", c, slot, err)
			}
			var got int64 = -1
			if st == server.StatusOK {
				fmt.Sscanf(string(v), "seq=%d", &got)
			}
			// A later unacked overwrite cannot exist (slots are written by
			// one client, sequentially), so visible seq < acked seq — or a
			// miss — is a dropped acked write.
			if got < want {
				dropped++
				log.Printf("DROPPED acked write: client %d slot %d acked seq %d, visible %d", c, slot, want, got)
			}
		}
	}

	total := reads.Load() + writes.Load()
	fmt.Printf("clients=%d elapsed=%v ops=%d throughput=%.0f ops/s\n",
		*clients, elapsed.Round(time.Millisecond), total, float64(total)/elapsed.Seconds())
	fmt.Printf("reads=%d (misses=%d) writes=%d errors=%d\n",
		reads.Load(), misses.Load(), writes.Load(), errsSeen.Load())
	fmt.Printf("read  latency p50=%s p99=%s p99.9=%s\n",
		secs(readLat.Quantile(0.50)), secs(readLat.Quantile(0.99)), secs(readLat.Quantile(0.999)))
	fmt.Printf("write latency p50=%s p99=%s p99.9=%s\n",
		secs(writeLat.Quantile(0.50)), secs(writeLat.Quantile(0.99)), secs(writeLat.Quantile(0.999)))
	fmt.Printf("dropped acked writes: %d\n", dropped)

	soakFailed := false
	if sampler != nil {
		soakFailed = sampler.finishAndEvaluate(*ramp, *maxLive, *maxHeap)
	}

	if err, _ := firstErr.Load().(error); err != nil {
		log.Printf("first error: %v", err)
	}
	if dropped > 0 || errsSeen.Load() > 0 || soakFailed {
		os.Exit(1)
	}
}

// soakSample is one scrape of the gauges the soak watchdog bounds.
type soakSample struct {
	at        time.Time
	liveBytes float64
	heap      float64
	paused    float64
}

// soakSampler polls the server's /metrics endpoint in the background.
type soakSampler struct {
	stop chan struct{}
	done chan struct{}

	mu         sync.Mutex
	samples    []soakSample
	scrapeErrs int
}

func startSoakSampler(url string, every time.Duration) *soakSampler {
	s := &soakSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
			g, err := scrapeGauges(url,
				"spf_wal_live_bytes", "process_heap_alloc_bytes", "spf_archive_paused")
			s.mu.Lock()
			if err != nil {
				s.scrapeErrs++
			} else {
				s.samples = append(s.samples, soakSample{
					at:        time.Now(),
					liveBytes: g["spf_wal_live_bytes"],
					heap:      g["process_heap_alloc_bytes"],
					paused:    g["spf_archive_paused"],
				})
			}
			s.mu.Unlock()
		}
	}()
	return s
}

// scrapeGauges fetches the named label-free samples from a Prometheus
// text-format endpoint.
func scrapeGauges(url string, names ...string) (map[string]float64, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	out := make(map[string]float64, len(names))
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 || !want[line[:i]] {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// finishAndEvaluate stops sampling and applies the soak bounds. Returns
// true when the run FAILED. The heap check compares post-GC floors (the
// minimum within a window, robust to GC sawtooth): the floor of the final
// quarter must stay within maxHeapGrowth of the steady-state floor. The
// live-log check is absolute: a lifecycle that recycles keeps the live
// log's bytes flat regardless of how much history the run writes.
func (s *soakSampler) finishAndEvaluate(ramp time.Duration, maxLive, maxHeapGrowth float64) bool {
	close(s.stop)
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.scrapeErrs > 0 {
		log.Printf("soak: %d metrics scrapes failed", s.scrapeErrs)
	}
	if len(s.samples) == 0 {
		log.Printf("soak: FAIL: no metrics samples (is -metrics-url right and the server up?)")
		return true
	}
	// Warmup: the ramp plus a quarter of the measured window — pool fill,
	// first checkpoints, first archive runs.
	cut := s.samples[0].at.Add(ramp)
	warm := s.samples
	for len(warm) > 0 && warm[0].at.Before(cut) {
		warm = warm[1:]
	}
	if n := len(warm); n >= 8 {
		warm = warm[n/4:]
	}
	if len(warm) < 4 {
		log.Printf("soak: FAIL: only %d post-warmup samples; run longer (-soak)", len(warm))
		return true
	}
	failed := false
	var peakLive, pausedSecs float64
	for _, smp := range warm {
		if smp.liveBytes > peakLive {
			peakLive = smp.liveBytes
		}
		pausedSecs += smp.paused
	}
	if peakLive > maxLive {
		log.Printf("soak: FAIL: live WAL bytes peaked at %.0f > bound %.0f — recycling is not keeping up", peakLive, maxLive)
		failed = true
	}
	floorOf := func(part []soakSample) float64 {
		f := part[0].heap
		for _, smp := range part[1:] {
			if smp.heap < f {
				f = smp.heap
			}
		}
		return f
	}
	steady := floorOf(warm[:len(warm)/2])
	final := floorOf(warm[len(warm)-len(warm)/4:])
	if steady > 0 && final > steady*maxHeapGrowth {
		log.Printf("soak: FAIL: heap floor grew %.0f → %.0f bytes (×%.2f > ×%.2f bound)",
			steady, final, final/steady, maxHeapGrowth)
		failed = true
	}
	fmt.Printf("soak: samples=%d live-bytes-max=%.0f heap-floor=%.1fMiB→%.1fMiB archive-paused-secs=%.0f\n",
		len(warm), peakLive, steady/(1<<20), final/(1<<20), pausedSecs)
	if !failed {
		log.Printf("soak: bounds held")
	}
	return failed
}

func secs(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond).String()
}
