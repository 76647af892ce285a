package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/spf"
)

// recovery-cycle: one database carried through crash → instant restart →
// device failure → instant restore, again and again, with a client
// reading over the wire while each background drain runs. It is also the
// durability test: Crash discards the unflushed log tail and the pool,
// and every acked value must be read back after both recoveries.

var cycleSpec = dbSpec{keys: 20_000, vlen: 100, frames: 8192, kind: spf.KindBTree, lifecycle: true}

const (
	// updateRounds rewrites every key this many times per cycle, so every
	// page is dirty at the crash and has a chain to replay at the restore.
	updateRounds = 4
	// cyclesPerSecond fixes the number of cycles from -seconds.
	cyclesPerSecond = 1.5
	// restoreReads is how many GETs the client issues after each media
	// recovery, starting while the restore is pending. The count is fixed
	// because a closed loop's count over a fixed time is not: reads of
	// restored pages are a hundred times faster than reads that wait for
	// a restore, so the last milliseconds of a drain would decide it.
	restoreReads = 10_000
	// cycleSampleSize is how many pages RecoverPageNow is sampled over
	// before each device failure of a traced run.
	cycleSampleSize = 8
)

type cycleRun struct {
	e   *env
	res *result
	rng *rand.Rand

	// The first restoreReads GETs after each media recovery are what
	// ops_per_s, read_p50_us and read_p99_us report here, per cycle.
	restoreOps, restoreP50, restoreP99  []float64
	drainMs                             float64
	gets, puts                          int64
	restartFirst, restartDrain          []float64
	restoreFirst, restoreDrain          []float64
	restartMs, mediaMs, backupMs, marks []float64
	written, skipped                    []float64
	reports                             []core.Report
	recorded, plain                     hist
	delta, last                         counters
	stream                              streamHash

	key, val []byte
}

func runCycle(e *env, res *result) error {
	if err := e.start(res); err != nil {
		return err
	}
	defer e.tearDown()
	r := &cycleRun{e: e, res: res, rng: rand.New(rand.NewSource(e.cfg.seed))}

	r.last = e.snapshot()
	cycles := int(e.cfg.seconds*cyclesPerSecond + 0.5)
	if cycles < 2 {
		cycles = 2
	}
	for c := 0; c < cycles; c++ {
		if err := r.cycle(uint32(c), e.cfg.traced && c%2 == 0); err != nil {
			return fmt.Errorf("cycle %d: %w", c, err)
		}
	}
	final := e.db.Metrics()

	n := int64(len(r.restoreOps)) * int64(scaleInt(restoreReads, e.cfg.scale, 100))
	res.setMedian("ops_per_s", r.restoreOps, n)
	res.setMedian("read_p50_us", r.restoreP50, n)
	res.setMedian("read_p99_us", r.restoreP99, n)
	res.setRounds("restart_first_read_ms", r.restartFirst)
	res.setRounds("restart_drain_ms", r.restartDrain)
	res.setRounds("restore_first_read_ms", r.restoreFirst)
	res.setRounds("restore_drain_ms", r.restoreDrain)
	if !e.cfg.traced {
		res.set("heap_mb", e.heapMB(), 1)
	} else {
		counterMetrics(res, r.delta, opCounts{gets: float64(r.gets), puts: float64(r.puts)}, final, e.spec.kind)
		res.setRecoverReports(r.reports)
		res.setRounds("recovery.restart_ms", r.restartMs)
		res.setRounds("recovery.media_prep_ms", r.mediaMs)
		res.setRounds("recovery.pages_marked", r.marks)
		res.setRounds("backup.backup_ms", r.backupMs)
		res.setRounds("backup.pages_written", r.written)
		res.setRounds("backup.pages_skipped", r.skipped)
		res.set("restore.drain_pages_per_s", ratio(r.delta[cResRepaired], r.drainMs/1e3), int64(r.delta[cResRepaired]))
		// Medians, not means: a mean here is decided by the few reads that
		// wait milliseconds for a restore.
		plain := r.plain.quantile(0.5)
		res.set("trace.overhead_pct", 100*ratio(r.recorded.quantile(0.5)-plain, plain), r.recorded.n)
	}
	res.stream = r.stream.h
	e.finish(res)
	return nil
}

// rewriteAll moves every key to its next version, updateRounds times, in
// in-process transactions of loadBatch updates. Every commit is acked.
func (r *cycleRun) rewriteAll() error {
	e := r.e
	for round := 0; round < updateRounds; round++ {
		for lo := 0; lo < e.spec.keys; lo += loadBatch {
			hi := min(lo+loadBatch, e.spec.keys)
			tx := e.db.Begin()
			for i := lo; i < hi; i++ {
				r.key = appendKey(r.key[:0], i)
				r.val = e.m.appendValue(r.val[:0], i, e.m.acked[i].Load()+1)
				if err := e.ix.Update(tx, r.key, r.val); err != nil {
					_ = tx.Abort() // the update's error is the one reported
					return fmt.Errorf("update key %d: %w", i, err)
				}
			}
			if err := e.db.Commit(tx); err != nil {
				return err
			}
			for i := lo; i < hi; i++ {
				e.m.acked[i].Add(1)
			}
			e.attempted.Add(int64(hi - lo))
			r.puts += int64(hi - lo)
		}
	}
	return nil
}

// adopt makes ndb the run's database and stands a fresh server up over it.
func (r *cycleRun) adopt(ndb *spf.DB) error {
	e := r.e
	e.db = ndb
	ix, err := ndb.Index(indexName)
	if err != nil {
		return err
	}
	e.ix = ix
	return e.serve()
}

// serveDrain is the client's side of one instant recovery; since is when
// the failure was complete and the recovery call began. It connects,
// times the first verified GET, then reads uniform keys until the
// background drain has finished and at least reads GETs are done, and
// returns the two user-visible times in ms, both from since: to the
// first read, and to the drain's end. With reads > 0 the first reads
// GETs are summarised into the run's per-cycle read metrics.
func (r *cycleRun) serveDrain(n, root uint32, since time.Time, reads int, recordGets bool) (first, drain float64, err error) {
	e, rec := r.e, r.e.rec
	cl, err := server.Dial(e.ws.addr)
	if err != nil {
		return 0, 0, err
	}
	defer cl.Close()
	get := func() (time.Duration, bool) {
		idx := r.rng.Intn(e.spec.keys)
		r.stream.add(uint64(idx))
		return e.serialGet(cl, &r.key, idx)
	}

	sp := rec.begin(n, root, "server.first_read")
	_, ok := get()
	rec.end(sp)
	if !ok {
		return 0, 0, fmt.Errorf("first read after recovery failed")
	}
	first = ms(time.Since(since))
	// After a media failure every page awaits restore, so the first read
	// must return while the restore is still pending, or the recovery was
	// not instant. (After a restart only the pages dirty at the crash are
	// marked, and background redo may finish before the server is up; a
	// scaled-down database is restored before a client can connect.)
	if reads > 0 && e.cfg.scale == 1 {
		e.attempted.Add(1)
		if e.db.Metrics().Restore.Pending == 0 {
			e.fails.add("cycle %d: first read after media recovery returned with no restore pending", n)
		}
	}

	drained := make(chan time.Time, 1)
	go func() {
		e.db.DrainRestore()
		drained <- time.Now()
	}()
	sp = rec.begin(n, root, "restore.drain")
	var during hist
	var drainedAt time.Time
	tLoop := time.Now()
	for issued := 0; ; issued++ {
		if drainedAt.IsZero() {
			select {
			case drainedAt = <-drained:
				rec.end(sp)
			default:
			}
		}
		if issued == reads && reads > 0 {
			r.restoreOps = append(r.restoreOps, float64(reads)/time.Since(tLoop).Seconds())
			r.restoreP50 = append(r.restoreP50, during.quantile(0.5)/1e3)
			r.restoreP99 = append(r.restoreP99, during.quantile(tailQuantile(during.n))/1e3)
		}
		if issued >= reads && !drainedAt.IsZero() {
			break
		}
		var gsp uint32
		if recordGets {
			gsp = rec.begin(n, sp, "server.roundtrip")
		}
		d, ok := get()
		rec.end(gsp)
		r.gets++
		if !ok {
			continue
		}
		if issued < reads {
			during.add(d)
		}
		if e.cfg.traced {
			if recordGets {
				r.recorded.add(d)
			} else {
				r.plain.add(d)
			}
		}
	}
	drain = ms(drainedAt.Sub(since))
	r.drainMs += drain
	return first, drain, nil
}

// accumulate adds the counters' movement since the last call to the
// run's totals.
func (r *cycleRun) accumulate() {
	now := r.e.snapshot()
	r.delta = r.delta.plus(now.minus(r.last))
	r.last = now
}

// retire closes out the current DB incarnation before its failure: its
// counters are folded in, its server stopped. What carries over as the
// next incarnation's baseline is only what outlives a DB (device, log,
// archive, process); everything else restarts from zero with the new DB,
// so that work done inside Restart and RecoverMedia is counted.
func (r *cycleRun) retire() {
	e := r.e
	r.accumulate()
	e.checkEscalations()
	if err := e.ws.stop(); err != nil {
		e.fails.add("server shutdown: %v", err)
	}
	e.ws = nil
	for c := range r.last {
		if !outlivesDB[c] {
			r.last[c] = 0
		}
	}
}

// cycle runs one crash → restart → device failure → restore cycle.
func (r *cycleRun) cycle(n uint32, recordGets bool) error {
	e, rec := r.e, r.e.rec
	root := rec.begin(n, 0, "recovery.cycle")
	defer rec.end(root)

	sp := rec.begin(n, root, "spf.update_batch")
	if err := r.rewriteAll(); err != nil {
		return err
	}
	rec.end(sp)
	r.retire()

	// System failure, instant restart.
	sp = rec.begin(n, root, "spf.crash")
	e.db.Crash()
	rec.end(sp)
	crashed := time.Now()
	sp = rec.begin(n, root, "recovery.restart")
	ndb, rep, err := e.db.Restart()
	rec.end(sp)
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	r.restartMs = append(r.restartMs, ms(time.Since(crashed)))
	r.marks = append(r.marks, float64(rep.Prep.PagesMarked))
	// Crash already joined the old incarnation's goroutines; its device,
	// log and backups live on in ndb, so it is dropped, not closed.
	if err := r.adopt(ndb); err != nil {
		return err
	}
	first, drain, err := r.serveDrain(n, root, crashed, 0, recordGets)
	if err != nil {
		return err
	}
	r.restartFirst = append(r.restartFirst, first)
	r.restartDrain = append(r.restartDrain, drain)
	e.verifyAll("after restart")
	if e.cfg.traced {
		// What replaying one page costs now, with a cycle's updates on its
		// chain: the unit of work of the restore drain that follows.
		r.reports = append(r.reports, e.recoverSample(e.samplePages(cycleSampleSize))...)
	}
	r.retire()

	// Media failure, instant restore.
	sp = rec.begin(n, root, "spf.fail_device")
	e.db.FailDevice()
	rec.end(sp)
	failedAt := time.Now()
	sp = rec.begin(n, root, "recovery.media_prep")
	ndb, _, err = e.db.RecoverMedia()
	rec.end(sp)
	if err != nil {
		return fmt.Errorf("media recovery: %w", err)
	}
	r.mediaMs = append(r.mediaMs, ms(time.Since(failedAt)))
	if err := r.adopt(ndb); err != nil {
		return err
	}
	first, drain, err = r.serveDrain(n, root, failedAt, scaleInt(restoreReads, e.cfg.scale, 100), recordGets)
	if err != nil {
		return err
	}
	r.restoreFirst = append(r.restoreFirst, first)
	r.restoreDrain = append(r.restoreDrain, drain)
	e.verifyAll("after media recovery")

	// A new full backup: the next cycle's restore resolves against it.
	sp = rec.begin(n, root, "backup.backup_now")
	t0 := time.Now()
	_, brep, err := e.db.BackupNow()
	rec.end(sp)
	if err != nil {
		return fmt.Errorf("backup: %w", err)
	}
	r.backupMs = append(r.backupMs, ms(time.Since(t0)))
	r.written = append(r.written, float64(brep.Written))
	r.skipped = append(r.skipped, float64(brep.Skipped))
	r.accumulate()
	return nil
}
