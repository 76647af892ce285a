package spf

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/storage"
)

// rewriteAll commits one transaction that moves every key of ix to its
// value in generation gen.
func rewriteAll(t *testing.T, db *DB, ix *Index, n, gen int) {
	t.Helper()
	tx := db.Begin()
	for i := 0; i < n; i++ {
		if err := ix.Update(tx, k(i), genValue(gen, i)); err != nil {
			t.Fatalf("generation %d, key %d: %v", gen, i, err)
		}
	}
	if err := db.Commit(tx); err != nil {
		t.Fatal(err)
	}
}

// genValue is as long as v(i), so rewriting a loaded index splits no page.
func genValue(gen, i int) []byte { return []byte(fmt.Sprintf("g%02d-%06d", gen, i)) }

func expectGeneration(t *testing.T, ix *Index, n, gen int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if got, err := ix.Get(k(i)); err != nil || !bytes.Equal(got, genValue(gen, i)) {
			t.Fatalf("generation %d, key %d: %q, %v", gen, i, got, err)
		}
	}
}

// holdRestoreWorker makes the next DB's restore worker (the tests run one)
// stop after its first repair until the returned function is called; the
// function is safe to call twice, and is also run when the test ends, so a
// Close or Crash never waits for a held worker.
func holdRestoreWorker(t *testing.T) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	release = sync.OnceFunc(func() { close(gate) })
	chaos.Arm("restore.complete", 1, func(chaos.Hit) { <-gate })
	t.Cleanup(func() {
		release()
		chaos.Reset()
	})
	return release
}

// highestSlot is the highest device slot a page is bound to.
func highestSlot(db *DB) storage.PhysID {
	var hi storage.PhysID
	for slot := range db.pmap.MappedSlots() {
		hi = max(hi, slot)
	}
	return hi
}

// TestRestartCyclesRetireNoSlot: a restart costs no slot. Forty crashes of
// a database that never grows, on a device twelve times its size, with no
// fault ever injected: every page dirty at a crash is recovered on its own
// stale image, read once, and written back where it was.
func TestRestartCyclesRetireNoSlot(t *testing.T) {
	const n, cycles = 3000, 40
	opts := testOptions()
	opts.DataSlots = 1024
	db := openTestDB(t, opts)
	ix := loadIndex(t, db, "t", n)
	if err := db.FlushAll(); err != nil {
		t.Fatal(err)
	}
	pages := db.PageMapLen()
	for c := 1; c <= cycles; c++ {
		rewriteAll(t, db, ix, n, c)
		db.Crash()
		reads := db.Metrics().Device.Reads
		ndb, rep, err := db.Restart()
		if err != nil {
			t.Fatalf("cycle %d: restart: %v", c, err)
		}
		ndb.DrainRestore()
		m := ndb.Metrics()
		if m.Restore.Failed != 0 || m.Recovery.Escalations+m.Pool.Escalations != 0 {
			t.Fatalf("cycle %d: %d failed repairs, %d escalations", c, m.Restore.Failed, m.Recovery.Escalations+m.Pool.Escalations)
		}
		// One read per marked page — its stale image, the recovery's base —
		// and reopenCatalog's of the meta page and the root.
		marked := int64(rep.Prep.PagesMarked)
		if got := m.Device.Reads - reads; marked == 0 || got > marked+2 {
			t.Fatalf("cycle %d: %d device reads for %d marked pages", c, got, marked)
		}
		if m.Recovery.Recoveries != m.RestartRedo.FastRedos || m.RestartRedo.Fallbacks != 0 {
			t.Fatalf("cycle %d: %d recoveries, redo %+v; want every one on the page's own image", c, m.Recovery.Recoveries, m.RestartRedo)
		}
		if err := ndb.FlushAll(); err != nil {
			t.Fatalf("cycle %d: flush: %v", c, err)
		}
		if m.RetiredSlots != 0 || int(highestSlot(ndb)) >= pages {
			t.Fatalf("cycle %d: %d slots retired, highest slot %d for %d pages", c, m.RetiredSlots, highestSlot(ndb), pages)
		}
		db = ndb
		if ix, err = db.Index("t"); err != nil {
			t.Fatal(err)
		}
	}
	defer db.Close()
	expectGeneration(t, ix, n, cycles)
	if viols, err := ix.Verify(); err != nil || len(viols) != 0 {
		t.Fatalf("verify: %v %v", viols, err)
	}
	if db.PageMapLen() != pages {
		t.Errorf("database grew from %d to %d pages", pages, db.PageMapLen())
	}
}

// TestMediaRestoreUsesOnlyTheSlotsItWrites: a restore costs one slot per
// page. No page is bound to a slot of the replacement device before its
// restored image is written there, so nothing is read that was never
// written and nothing is retired.
func TestMediaRestoreUsesOnlyTheSlotsItWrites(t *testing.T) {
	const n = 3000
	db := openTestDB(t, testOptions())
	ix := loadIndex(t, db, "t", n)
	if _, _, err := db.BackupNow(); err != nil {
		t.Fatal(err)
	}
	rewriteAll(t, db, ix, n, 1)
	db.FailDevice()
	ndb, rep, err := db.RecoverMedia()
	if err != nil {
		t.Fatal(err)
	}
	defer ndb.Close()
	ndb.DrainRestore()
	if err := ndb.FlushAll(); err != nil {
		t.Fatal(err)
	}
	m := ndb.Metrics()
	if m.Recovery.Recoveries < int64(rep.Media.PagesRestored) || m.Restore.Failed != 0 ||
		m.Recovery.Escalations+m.Pool.Escalations != 0 {
		t.Fatalf("%d pages to restore: %+v, %d failed, %d pool escalations",
			rep.Media.PagesRestored, m.Recovery, m.Restore.Failed, m.Pool.Escalations)
	}
	// A read of a slot that was never written returns zeroes and fails
	// validation; a read of a restored page written back meanwhile passes.
	if m.Pool.ValidationFailures != 0 {
		t.Errorf("%d reads of slots that did not hold their page", m.Pool.ValidationFailures)
	}
	if m.RetiredSlots != 0 || int(highestSlot(ndb)) >= m.Pages || len(ndb.pmap.MappedSlots()) != rep.Media.PagesRestored {
		t.Errorf("%d slots retired, highest slot %d, %d pages bound of %d restored (%d known)",
			m.RetiredSlots, highestSlot(ndb), len(ndb.pmap.MappedSlots()), rep.Media.PagesRestored, m.Pages)
	}
	ix2, err := ndb.Index("t")
	if err != nil {
		t.Fatal(err)
	}
	expectGeneration(t, ix2, n, 1)
	if viols, err := ix2.Verify(); err != nil || len(viols) != 0 {
		t.Fatalf("verify: %v %v", viols, err)
	}
}

// TestRestartNeverWritesARetiredSlot: a slot retired before a crash is free
// again in the page map restart rebuilds from the log — the records of the
// writes that used it were in the lost tail, and a retirement is the
// device's, not logged — so write-back must refuse it and take another.
func TestRestartNeverWritesARetiredSlot(t *testing.T) {
	const n = 400
	t.Run("in-place", func(t *testing.T) {
		opts := testOptions()
		opts.DisablePageLSNCheck = true // redo, and its write-back, run inside Restart
		db := openTestDB(t, opts)
		ix := loadIndex(t, db, "t", n)
		// No commit follows: the completed-write records stay volatile.
		if err := db.FlushAll(); err != nil {
			t.Fatal(err)
		}
		victim := findLeafOf(t, db, ix, k(0))
		if err := db.EvictPage(victim); err != nil {
			t.Fatal(err)
		}
		if err := db.CorruptPage(victim); err != nil {
			t.Fatal(err)
		}
		expectValues(t, ix, n) // repairs the leaf, retiring its slot
		if got := db.Metrics().RetiredSlots; got != 1 {
			t.Fatalf("%d slots retired, want the victim's", got)
		}
		db.Crash()
		ndb, _, err := db.Restart()
		if err != nil {
			t.Fatalf("restart: %v", err)
		}
		defer ndb.Close()
		if err := ndb.FlushAll(); err != nil {
			t.Fatal(err)
		}
		ix2, err := ndb.Index("t")
		if err != nil {
			t.Fatal(err)
		}
		expectValues(t, ix2, n)
		if viols, err := ix2.Verify(); err != nil || len(viols) != 0 {
			t.Fatalf("verify: %v %v", viols, err)
		}
	})
}

// TestSecondCrashMidDrainRedoesFromImages: what makes a stale page
// recoverable on its own image is the index expectation the first restart
// raised and checkpointed, not anything in memory — so a second crash with
// the backlog all but untouched changes nothing: the pages are still
// detected on read and still redone from their images, no backup touched.
func TestSecondCrashMidDrainRedoesFromImages(t *testing.T) {
	const n = 1200
	db := openTestDB(t, restartOptions())
	ix := loadIndex(t, db, "t", n)
	if _, _, err := db.BackupNow(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	rewriteAll(t, db, ix, n, 1)
	db.Crash()

	// The one restore worker is held after its first repair until the
	// second crash is under way; repairs attempted after that fail fast.
	release := holdRestoreWorker(t)
	ndb, rep, err := db.Restart()
	if err != nil {
		t.Fatalf("first restart: %v", err)
	}
	if rep.Prep.PagesMarked < 10 {
		t.Fatalf("only %d pages marked", rep.Prep.PagesMarked)
	}
	crashed := make(chan struct{})
	go func() {
		defer close(crashed)
		ndb.Crash()
	}()
	for !ndb.Metrics().Crashed {
		runtime.Gosched()
	}
	release()
	<-crashed
	if done := ndb.Metrics().Restore.Repaired; done > 2 {
		t.Fatalf("%d pages drained before the second crash; the test wants the backlog left", done)
	}

	ndb2, _, err := ndb.Restart()
	if err != nil {
		t.Fatalf("second restart: %v", err)
	}
	defer ndb2.Close()
	ndb2.DrainRestore()
	ix2, err := ndb2.Index("t")
	if err != nil {
		t.Fatal(err)
	}
	expectGeneration(t, ix2, n, 1)
	if viols, err := ix2.Verify(); err != nil || len(viols) != 0 {
		t.Fatalf("verify: %v %v", viols, err)
	}
	m := ndb2.Metrics()
	if m.RestartRedo.FastRedos < int64(rep.Prep.PagesMarked)-2 || m.RestartRedo.Fallbacks != 0 ||
		m.Recovery.Recoveries != m.RestartRedo.FastRedos || m.RetiredSlots != 0 {
		t.Fatalf("second incarnation: %d pages were marked, redo %+v, %d recoveries, %d slots retired",
			rep.Prep.PagesMarked, m.RestartRedo, m.Recovery.Recoveries, m.RetiredSlots)
	}
}

// TestBenchmarkCountersKeepCounting pins what benchmark/ reads of a repair
// and a restart, so that it keeps meaning what the benchmark takes it for:
//
//   - repair.go: Recovery.Recoveries rises by exactly one per injected
//     fault, a lost write included, with no escalation in recoverer or pool,
//     and Restore.UrgentRequests by one per read that repaired a page;
//   - cycle.go: RestartReport.Prep.PagesMarked is the backlog, and
//     Restore.Pending is zero once DrainRestore returns;
//   - layers.go: RestartRedo.FastRedos/Fallbacks, RetiredSlots and
//     Restore.Promotions are live counters;
//   - probes.go: RecoverPageNow(id) recovers from the registered backup.
func TestBenchmarkCountersKeepCounting(t *testing.T) {
	const n = 1200
	db := openTestDB(t, restartOptions())
	ix := loadIndex(t, db, "t", n)
	if _, _, err := db.BackupNow(); err != nil {
		t.Fatal(err)
	}
	victims := []PageID{findLeafOf(t, db, ix, k(100)), findLeafOf(t, db, ix, k(600)), findLeafOf(t, db, ix, k(1100))}
	if victims[0] == victims[1] || victims[1] == victims[2] {
		t.Fatal("victims share a page; grow the dataset")
	}
	// victims[0]: a lost write. Armed sticky across the update and the
	// write-back, cleared before the read, as repair.go does.
	if err := db.InjectPageFault(victims[0], FaultLostWrite, true); err != nil {
		t.Fatal(err)
	}
	rewriteAll(t, db, ix, n, 1)
	if err := db.FlushAll(); err != nil {
		t.Fatal(err)
	}
	slot0, _ := db.PhysicalSlot(victims[0])
	db.dev.ClearFault(slot0)

	rep, err := db.RecoverPageNow(victims[1])
	if err != nil || rep.OwnImage || rep.BackupKind != core.BackupFull || rep.RecordsApplied == 0 {
		t.Fatalf("RecoverPageNow: %+v, %v; want a replay from the full backup", rep, err)
	}

	base := db.Metrics()
	if err := db.CorruptPage(victims[1]); err != nil {
		t.Fatal(err)
	}
	if err := db.InjectPageFault(victims[2], FaultReadError, true); err != nil {
		t.Fatal(err)
	}
	for i, id := range victims {
		if err := db.EvictPage(id); err != nil {
			t.Fatal(err)
		}
		h, err := db.Fetch(id)
		if err != nil {
			t.Fatalf("victim %d: %v", i, err)
		}
		h.Release()
		m := db.Metrics()
		if got := m.Recovery.Recoveries - base.Recovery.Recoveries; got != int64(i+1) {
			t.Fatalf("after %d faults read: %d recoveries", i+1, got)
		}
		if got := m.Restore.UrgentRequests - base.Restore.UrgentRequests; got != int64(i+1) {
			t.Fatalf("after %d faults read: %d urgent requests", i+1, got)
		}
	}
	m := db.Metrics()
	if m.Recovery.Escalations+m.Pool.Escalations != 0 {
		t.Fatalf("escalations: %+v, pool %d", m.Recovery, m.Pool.Escalations)
	}
	// The lost write was redone on its stale image and kept its slot; the
	// two damaged slots were retired.
	if m.RestartRedo.FastRedos != 1 || m.RestartRedo.Fallbacks != 0 || m.RetiredSlots != 2 {
		t.Fatalf("redo %+v, %d slots retired; want 1 fast redo, 2 retired", m.RestartRedo, m.RetiredSlots)
	}
	expectGeneration(t, ix, n, 1)

	// A restart whose one worker is held after its first repair, so that
	// the reads below get to every other queued page first.
	rewriteAll(t, db, ix, n, 2)
	db.Crash()
	release := holdRestoreWorker(t)
	ndb, rrep, err := db.Restart()
	if err != nil {
		t.Fatal(err)
	}
	defer ndb.Close()
	defer release() // first, or Close waits for the held worker
	ix2, err := ndb.Index("t")
	if err != nil {
		t.Fatal(err)
	}
	expectGeneration(t, ix2, n, 2)
	release()
	ndb.DrainRestore()
	m = ndb.Metrics()
	if rrep.Prep.PagesMarked < 3 || m.RestartRedo.Marked != int64(rrep.Prep.PagesMarked) ||
		m.Restore.Enqueued != m.RestartRedo.Marked {
		t.Fatalf("%d pages marked, redo %+v, %d enqueued", rrep.Prep.PagesMarked, m.RestartRedo, m.Restore.Enqueued)
	}
	if m.Restore.Pending != 0 || m.RestartRedo.Pending != 0 || m.Restore.Repaired != m.Restore.Enqueued {
		t.Fatalf("after the drain: restore %+v, redo %+v", m.Restore, m.RestartRedo)
	}
	// Each read that repaired a queued page retired its ticket.
	if m.RestartRedo.FastRedos == 0 || m.Restore.Promotions == 0 || m.Restore.Promotions != m.Restore.UrgentRequests {
		t.Fatalf("redo %+v, restore %+v", m.RestartRedo, m.Restore)
	}
}
