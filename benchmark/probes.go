package main

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/page"
	"repro/internal/wal"
	"repro/spf"
)

// Isolated probes: wall time of calls the benchmark makes into one
// layer's exported functions, on the workload's own database, after the
// traced window and with no load running.

const (
	probePages   = 200   // pages sampled by the page-sized probes
	probeLoops   = 20000 // iterations of the nanosecond-sized probes
	probeRepairs = 64    // pages RecoverPageNow is sampled over
)

// samplePages draws up to n distinct logical pages that have a device
// slot, from the run's seed.
func (e *env) samplePages(n int) []spf.PageID {
	rng := rand.New(rand.NewSource(e.cfg.seed ^ 0x70726f6265))
	pages := e.db.Pages()
	rng.Shuffle(len(pages), func(i, j int) { pages[i], pages[j] = pages[j], pages[i] })
	var out []spf.PageID
	for _, id := range pages {
		if _, ok := e.db.PhysicalSlot(id); ok {
			if out = append(out, id); len(out) == n {
				break
			}
		}
	}
	return out
}

func meanOf(total time.Duration, n int, unit time.Duration) float64 {
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n) / float64(unit)
}

// runProbes fills the probe-sourced per-layer metrics.
func runProbes(e *env, res *result) {
	pages := e.samplePages(probePages)
	if len(pages) == 0 {
		e.fails.add("probes: no page has a device slot")
		return
	}
	dev := e.db.Device()

	// pagemap: logical → physical resolution.
	t0 := time.Now()
	for i := 0; i < probeLoops; i++ {
		e.db.PhysicalSlot(pages[i%len(pages)])
	}
	res.set("pagemap.lookup_ns", meanOf(time.Since(t0), probeLoops, time.Nanosecond), probeLoops)

	// storage and page: read each sampled slot's image, verify it, decode
	// it — the three steps of every buffer miss, one at a time.
	buf := make([]byte, pageSize)
	var read, verify, decode time.Duration
	for _, id := range pages {
		phys, _ := e.db.PhysicalSlot(id)
		t0 = time.Now()
		err := dev.ReadInto(phys, buf)
		read += time.Since(t0)
		if err != nil {
			e.fails.add("probe: device read of page %d: %v", id, err)
			continue
		}
		t0 = time.Now()
		err = page.Verify(buf)
		verify += time.Since(t0)
		if err == nil {
			t0 = time.Now()
			_, err = page.DecodeFor(id, buf)
			decode += time.Since(t0)
		}
		if err != nil {
			e.fails.add("probe: image of page %d: %v", id, err)
		}
	}
	n := int64(len(pages))
	res.set("storage.read_us", meanOf(read, len(pages), time.Microsecond), n)
	res.set("page.verify_us", meanOf(verify, len(pages), time.Microsecond), n)
	res.set("page.decode_us", meanOf(decode, len(pages), time.Microsecond), n)

	// buffer: a miss (the page evicted first, the fetch alone timed) and a
	// hit (the same page fetched again and again).
	var miss time.Duration
	for _, id := range pages {
		if err := e.db.EvictPage(id); err != nil {
			e.fails.add("probe: evicting page %d: %v", id, err)
			continue
		}
		t0 = time.Now()
		h, err := e.db.Fetch(id)
		miss += time.Since(t0)
		if err != nil {
			e.fails.add("probe: fetching page %d: %v", id, err)
			continue
		}
		h.Release()
	}
	res.set("buffer.fetch_miss_us", meanOf(miss, len(pages), time.Microsecond), n)
	t0 = time.Now()
	for i := 0; i < probeLoops; i++ {
		if h, err := e.db.Fetch(pages[0]); err == nil {
			h.Release()
		}
	}
	res.set("buffer.fetch_hit_ns", meanOf(time.Since(t0), probeLoops, time.Nanosecond), probeLoops)

	// core: single-page recovery of a page sample, from RecoverPageNow's
	// report. repair-online and recovery-cycle report these from inside
	// their rounds instead, where the chains are the ones the repaired
	// reads and the restore drain replay.
	if _, done := res.vals["core.recover_us"]; !done {
		res.setRecoverReports(e.recoverSample(pages[:min(probeRepairs, len(pages))]))
	}

	// engine allocations, counted by the runtime around single calls.
	engine := "btree"
	if e.spec.kind == spf.KindHash {
		engine = "hashindex"
	}
	rng := rand.New(rand.NewSource(e.cfg.seed))
	key, dst := make([]byte, 0, keyLen), make([]byte, 0, e.spec.vlen)
	res.set(engine+".allocs_per_get", testing.AllocsPerRun(200, func() {
		key = appendKey(key[:0], rng.Intn(e.spec.keys))
		if _, err := e.ix.GetTo(dst[:0], key); err != nil {
			e.fails.add("probe: get: %v", err)
		}
	}), 200)
	if e.spec.kind == spf.KindBTree {
		val := make([]byte, 0, e.spec.vlen)
		updates := scaleInt(50, e.cfg.scale, 5)
		res.set("btree.allocs_per_update", testing.AllocsPerRun(updates, func() {
			idx := rng.Intn(e.spec.keys)
			ver := e.m.acked[idx].Load() + 1
			key = appendKey(key[:0], idx)
			val = e.m.appendValue(val[:0], idx, ver)
			tx := e.db.Begin()
			err := e.ix.Update(tx, key, val)
			if err == nil {
				err = e.db.Commit(tx)
			}
			if err != nil {
				e.fails.add("probe: update key %d: %v", idx, err)
				return
			}
			e.m.acked[idx].Store(ver)
		}), int64(updates))
	}

	// wal: append and force on a private log, never the database's.
	lg := wal.NewManagerOpts(wal.Options{GroupCommitWindow: groupCommit})
	payload := make([]byte, 2*e.spec.vlen+keyLen)
	t0 = time.Now()
	for i := 0; i < probeLoops; i++ {
		lg.Append(&wal.Record{Type: wal.TypeUpdate, Txn: 1, PageID: page.ID(1 + i%64), Payload: payload})
	}
	res.set("wal.append_ns", meanOf(time.Since(t0), probeLoops, time.Nanosecond), probeLoops)
	forces := scaleInt(200, e.cfg.scale, 20)
	var force time.Duration
	for i := 0; i < forces; i++ {
		lsn := lg.Append(&wal.Record{Type: wal.TypeCommit, Txn: wal.TxnID(2 + i)})
		t0 = time.Now()
		err := lg.ForceForCommit(lsn)
		force += time.Since(t0)
		if err != nil {
			e.fails.add("probe: log force: %v", err)
		}
	}
	lg.Close()
	res.set("wal.force_us", meanOf(force, forces, time.Microsecond), int64(forces))
}

// recoverSample runs explicit single-page recovery over ids and returns
// the reports. RecoverPageNow rebuilds the page from its backup and log
// chain and discards the result, so the database is unchanged.
func (e *env) recoverSample(ids []spf.PageID) []core.Report {
	reps := make([]core.Report, 0, len(ids))
	for _, id := range ids {
		rep, err := e.db.RecoverPageNow(id)
		if err != nil {
			e.fails.add("RecoverPageNow(%d): %v", id, err)
			continue
		}
		reps = append(reps, rep)
	}
	return reps
}

// setRecoverReports reports the three core metrics from a sample.
func (r *result) setRecoverReports(reps []core.Report) {
	var wall time.Duration
	var applied, reads int
	for _, rep := range reps {
		wall += rep.WallTime
		applied += rep.RecordsApplied
		reads += rep.LogReads
	}
	n := int64(len(reps))
	r.set("core.recover_us", meanOf(wall, len(reps), time.Microsecond), n)
	r.set("core.records_per_repair", ratio(float64(applied), float64(n)), n)
	r.set("core.log_reads_per_repair", ratio(float64(reads), float64(n)), n)
}
