package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/page"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/spf"
)

// repair-online: the paper's headline path. Each round grows the log
// chains of a set of pages, injects one of three single-page failures on
// each, and reads over the wire until every failure has been detected and
// repaired by the read that hit it.

var repairSpec = dbSpec{keys: 50_000, vlen: 100, frames: 8192, kind: spf.KindBTree, lifecycle: true}

const (
	// Per round: lost writes (visible only to the PageLSN-vs-PRI check),
	// persistent silent corruption, sticky read errors.
	lostWritePages = 64
	corruptPages   = 128
	readErrorPages = 64
	faultPages     = lostWritePages + corruptPages + readErrorPages
	// updatesPerPage grows each faulted page's log chain to the paper's
	// "dozens of records".
	updatesPerPage = 20
	// getCap bounds the wire GETs of one round; faults no GET reached by
	// then are driven through repair with db.Fetch.
	getCap = 30_000
	// roundsPerSecond fixes the number of rounds from -seconds, so that a
	// run's counts repeat exactly.
	repairRoundsPerSecond = 2.4
	repairSampleSize      = 16
)

type repairRun struct {
	e   *env
	res *result
	rng *rand.Rand
	cl  *server.Client

	healthy, repaired hist // pooled over rounds
	// per-round medians, and means for the queue estimate
	healthyP50, healthyP99, repairedP50 []float64
	roundOps                            []float64
	gets, puts                          int64
	reports                             []core.Report
	archiveMs, ckptMs, backupMs         []float64
	written, skipped                    []float64
	// recorded/plain split healthy GETs by whether the round recorded a
	// span per GET, for trace.overhead_pct.
	recorded, plain hist
	stream          streamHash

	key, val []byte
}

func runRepair(e *env, res *result) error {
	if err := e.start(res); err != nil {
		return err
	}
	defer e.tearDown()
	cl, err := server.Dial(e.ws.addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	r := &repairRun{e: e, res: res, cl: cl, rng: rand.New(rand.NewSource(e.cfg.seed))}

	rounds := int(e.cfg.seconds*repairRoundsPerSecond + 0.5)
	if rounds < 2 {
		rounds = 2
	}
	r.warmUp()
	before := e.snapshot()
	for round := 0; round < rounds; round++ {
		// A traced run records per-GET spans in even rounds only, so the
		// odd rounds give the untraced reference for trace.overhead_pct.
		if err := r.round(uint32(round), e.cfg.traced && round%2 == 0); err != nil {
			return fmt.Errorf("round %d: %w", round, err)
		}
	}
	d := e.snapshot().minus(before)
	final := e.db.Metrics()

	res.setMedian("ops_per_s", r.roundOps, r.gets)
	res.setMedian("read_p50_us", r.healthyP50, r.healthy.n)
	res.setMedian("read_p99_us", r.healthyP99, r.healthy.n)
	// A round repairs a few hundred reads: the median per round, the tail
	// pooled over all rounds.
	res.setMedian("repair_read_p50_us", r.repairedP50, r.repaired.n)
	res.set("repair_read_p99_us", r.repaired.quantile(tailQuantile(r.repaired.n))/1e3, r.repaired.n)
	if !e.cfg.traced {
		res.set("heap_mb", e.heapMB(), 1)
	} else {
		// The sampled recoveries are not repairs of injected faults.
		d[cRecRecoveries] -= float64(len(r.reports))
		counterMetrics(res, d, opCounts{gets: float64(r.gets), puts: float64(r.puts)}, final, e.spec.kind)
		res.setRecoverReports(r.reports)
		// What a repaired read waits for beyond the replay itself: the
		// hand-off to the restore scheduler and back, retries included.
		res.set("restore.queue_us",
			(r.repaired.meanNs()-r.healthy.meanNs())/1e3-res.vals["core.recover_us"].v, r.repaired.n)
		res.setRounds("archive.archive_now_ms", r.archiveMs)
		res.setRounds("recovery.checkpoint_ms", r.ckptMs)
		res.setRounds("backup.backup_ms", r.backupMs)
		res.setRounds("backup.pages_written", r.written)
		res.setRounds("backup.pages_skipped", r.skipped)
		res.set("trace.overhead_pct",
			100*ratio(r.recorded.meanNs()-r.plain.meanNs(), r.plain.meanNs()), r.recorded.n)
		res.budget = append(res.budget, budgetRow{op: "repaired GET", totalUs: r.repaired.meanNs() / 1e3, n: r.repaired.n, parts: []budgetPart{
			{"healthy GET", r.healthy.meanNs() / 1e3},
			{"restore.queue", res.vals["restore.queue_us"].v},
			{"core.recover", res.vals["core.recover_us"].v},
		}})
	}
	res.stream = r.stream.h

	cl.Close()
	e.finish(res)
	return nil
}

// warmUp reads a few thousand keys so the connection, its buffers and the
// pool are in steady state before round 0.
func (r *repairRun) warmUp() {
	for i := 0; i < 5000; i++ {
		r.e.serialGet(r.cl, &r.key, r.rng.Intn(r.e.spec.keys))
	}
}

// update commits one in-process transaction that moves every key of idxs
// to its next version.
func (r *repairRun) update(idxs []int) (wal.TxnID, error) {
	e := r.e
	tx := e.db.Begin()
	id := tx.ID()
	for _, idx := range idxs {
		r.key = appendKey(r.key[:0], idx)
		r.val = e.m.appendValue(r.val[:0], idx, e.m.acked[idx].Load()+1)
		if err := e.ix.Update(tx, r.key, r.val); err != nil {
			_ = tx.Abort() // the update's error is the one reported
			return id, fmt.Errorf("update key %d: %w", idx, err)
		}
	}
	if err := e.db.Commit(tx); err != nil {
		return id, err
	}
	for _, idx := range idxs {
		e.m.acked[idx].Add(1)
		e.attempted.Add(1)
	}
	r.puts += int64(len(idxs))
	return id, nil
}

// pickPages chooses the round's pages: it updates a batch of random
// anchor keys once, reads from the log which leaf page each update
// touched, and keeps the first want distinct pages with their keys.
func (r *repairRun) pickPages(want int) ([]spf.PageID, []int, error) {
	e := r.e
	anchors := make([]int, want+want/4)
	seen := make(map[int]bool, len(anchors))
	for i := range anchors {
		idx := r.rng.Intn(e.spec.keys)
		for seen[idx] {
			idx = r.rng.Intn(e.spec.keys)
		}
		seen[idx] = true
		anchors[i] = idx
		r.stream.add(uint64(idx))
	}
	from := e.db.LogManager().EndLSN()
	txn, err := r.update(anchors)
	if err != nil {
		return nil, nil, err
	}
	var touched []page.ID
	err = e.db.LogManager().Scan(from, func(rec *wal.Record) bool {
		if rec.Type == wal.TypeUpdate && rec.Txn == txn {
			touched = append(touched, rec.PageID)
		}
		return true
	})
	if err != nil {
		return nil, nil, fmt.Errorf("reading the anchors' log records: %w", err)
	}
	if len(touched) != len(anchors) {
		return nil, nil, fmt.Errorf("%d anchor updates logged %d update records", len(anchors), len(touched))
	}
	var pages []spf.PageID
	var keys []int
	have := make(map[page.ID]bool, want)
	for i, id := range touched {
		if !have[id] && len(pages) < want {
			have[id] = true
			pages = append(pages, id)
			keys = append(keys, anchors[i])
		}
	}
	return pages, keys, nil
}

// corrupt damages the stored image of page id so that it no longer
// verifies. CorruptPage flips one to eight random bits, and two flips of
// the same bit cancel: about one injection in 260 000 — one run in
// seventy — leaves the image intact, and the round would then count one
// repair fewer than faults. The image is therefore looked at (RawImage
// charges no I/O) and damaged again until the damage is real.
func (e *env) corrupt(id spf.PageID) error {
	for {
		if err := e.db.CorruptPage(id); err != nil {
			return err
		}
		phys, _ := e.db.PhysicalSlot(id)
		if page.Verify(e.db.Device().RawImage(phys)) != nil {
			return nil
		}
	}
}

// round runs one full inject-read-repair round.
func (r *repairRun) round(n uint32, recordGets bool) error {
	e, rec := r.e, r.e.rec
	root := rec.begin(n, 0, "repair.round")
	defer rec.end(root)
	want := scaleInt(faultPages, e.cfg.scale, 8)

	// Grow the chains. The lost-write fault is armed, sticky, before the
	// bulk of the updates and cleared after the flush below: background
	// write-back may write a page at any moment in between, and whichever
	// writes happen must all be lost for the stale image to survive.
	sp := rec.begin(n, root, "spf.update_batch")
	pages, keys, err := r.pickPages(want)
	if err != nil {
		return err
	}
	nLost := len(pages) * lostWritePages / faultPages
	nCorrupt := len(pages) * corruptPages / faultPages
	for _, id := range pages[:nLost] {
		if err := e.db.InjectPageFault(id, spf.FaultLostWrite, true); err != nil {
			return err
		}
	}
	for u := 1; u < updatesPerPage; u++ {
		if _, err := r.update(keys); err != nil {
			return err
		}
	}
	rec.end(sp)

	// Archive and checkpoint while the pages are still dirty, so that the
	// chains straddle the archive and the live log; then write back.
	sp = rec.begin(n, root, "archive.archive_now")
	t0 := time.Now()
	if err := e.db.ArchiveNow(); err != nil {
		return err
	}
	r.archiveMs = append(r.archiveMs, ms(time.Since(t0)))
	rec.end(sp)
	sp = rec.begin(n, root, "recovery.checkpoint")
	t0 = time.Now()
	if _, err := e.db.Checkpoint(); err != nil {
		return err
	}
	r.ckptMs = append(r.ckptMs, ms(time.Since(t0)))
	rec.end(sp)
	if err := e.db.FlushAll(); err != nil {
		return err
	}
	for _, id := range pages[:nLost] {
		if phys, ok := e.db.PhysicalSlot(id); ok {
			e.db.Device().ClearFault(phys)
		}
	}

	// Sample what single-page recovery of this round's pages costs.
	rng := rand.New(rand.NewSource(e.cfg.seed + int64(n)))
	sample := make([]spf.PageID, 0, repairSampleSize)
	for _, i := range rng.Perm(len(pages))[:min(repairSampleSize, len(pages))] {
		sample = append(sample, pages[i])
	}
	r.reports = append(r.reports, e.recoverSample(sample)...)
	// From here on every repair is the repair of an injected fault,
	// whichever path finds it first.
	m := e.db.Metrics()
	base, urgent := m.Recovery.Recoveries, m.Restore.UrgentRequests

	sp = rec.begin(n, root, "spf.inject")
	for _, id := range pages[nLost : nLost+nCorrupt] {
		if err := e.corrupt(id); err != nil {
			return err
		}
	}
	for _, id := range pages[nLost+nCorrupt:] {
		if err := e.db.InjectPageFault(id, spf.FaultReadError, true); err != nil {
			return err
		}
	}
	for _, id := range pages {
		if err := e.db.EvictPage(id); err != nil {
			return err
		}
	}
	rec.end(sp)

	// Serial wire GETs of uniform keys until every fault has been
	// repaired. A GET is repair-inclusive iff a foreground fetch faulted
	// during it (Restore.UrgentRequests advanced); repairs by the
	// background scrub advance Recovery.Recoveries only.
	var healthy, repaired hist
	tGets := time.Now()
	issued := 0
	for ; issued < getCap && m.Recovery.Recoveries-base < int64(len(pages)); issued++ {
		idx := r.rng.Intn(e.spec.keys)
		r.stream.add(uint64(idx))
		var gsp uint32
		if recordGets {
			gsp = rec.begin(n, root, "server.roundtrip")
		}
		d, ok := e.serialGet(r.cl, &r.key, idx)
		rec.end(gsp)
		m = e.db.Metrics()
		if !ok {
			continue
		}
		if m.Restore.UrgentRequests != urgent {
			urgent = m.Restore.UrgentRequests
			repaired.add(d)
		} else {
			healthy.add(d)
			if e.cfg.traced {
				if recordGets {
					r.recorded.add(d)
				} else {
					r.plain.add(d)
				}
			}
		}
	}
	r.roundOps = append(r.roundOps, float64(issued)/time.Since(tGets).Seconds())
	r.gets += int64(issued)

	// Leftovers: faults no GET reached are repaired by fetching the page.
	for _, id := range pages {
		h, err := e.db.Fetch(id)
		if err != nil {
			e.fails.add("page %d not repaired: %v", id, err)
			continue
		}
		h.Release()
	}
	e.attempted.Add(1)
	if got := e.db.Metrics().Recovery.Recoveries - base; got != int64(len(pages)) {
		e.fails.add("round %d: %d faults injected, %d repairs", n, len(pages), got)
	}
	r.healthy.merge(&healthy)
	r.repaired.merge(&repaired)
	r.healthyP50 = append(r.healthyP50, healthy.quantile(0.5)/1e3)
	r.healthyP99 = append(r.healthyP99, healthy.quantile(tailQuantile(healthy.n))/1e3)
	if repaired.n > 0 {
		r.repairedP50 = append(r.repairedP50, repaired.quantile(0.5)/1e3)
	}

	// A new full backup resets every chain.
	sp = rec.begin(n, root, "backup.backup_now")
	t0 = time.Now()
	_, rep, err := e.db.BackupNow()
	if err != nil {
		return err
	}
	r.backupMs = append(r.backupMs, ms(time.Since(t0)))
	r.written = append(r.written, float64(rep.Written))
	r.skipped = append(r.skipped, float64(rep.Skipped))
	rec.end(sp)
	e.checkEscalations()
	return nil
}
