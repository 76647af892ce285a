package spf

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/restore"
)

// corruptColdPage evicts page id and corrupts its stored image — a latent
// single-page failure waiting on the next validating read.
func corruptColdPage(t *testing.T, db *DB, id PageID) {
	t.Helper()
	if err := db.EvictPage(id); err != nil {
		t.Fatal(err)
	}
	if err := db.CorruptPage(id); err != nil {
		t.Fatal(err)
	}
}

// TestForegroundFaultRepairsThroughScheduler: a damaged page read by a
// foreground Get is repaired by that read, exactly once, without a ticket;
// the scheduler only counts it.
func TestForegroundFaultRepairsThroughScheduler(t *testing.T) {
	db := openTestDB(t, testOptions())
	defer db.Close()
	ix := loadIndex(t, db, "t", 300)
	if err := db.FlushAll(); err != nil {
		t.Fatal(err)
	}
	victim := ix.Root()
	for _, id := range db.Pages() {
		if id > victim {
			victim = id // some leaf
		}
	}
	corruptColdPage(t, db, victim)

	// Every key readable despite the damage.
	for i := 0; i < 300; i++ {
		if got, err := ix.Get(k(i)); err != nil || !bytes.Equal(got, v(i)) {
			t.Fatalf("key %d: %q, %v", i, got, err)
		}
	}
	st := db.Metrics()
	if st.Recovery.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", st.Recovery.Recoveries)
	}
	if st.Restore.UrgentRequests != 1 || st.Restore.Enqueued != 0 {
		t.Fatalf("restore stats = %+v, want one urgent request and no ticket", st.Restore)
	}
	if st.Restore.Pending != 0 || st.Restore.InFlight != 0 {
		t.Fatalf("scheduler not idle: %+v", st.Restore)
	}
	if st.RetiredSlots != 1 {
		t.Fatalf("retired slots = %d, want 1", st.RetiredSlots)
	}
}

// TestConcurrentFaultersCoalesce: many goroutines faulting on the same
// damaged page must trigger exactly one chain replay (the page has one
// loader; the others wait for its load), not one replay per faulter.
func TestConcurrentFaultersCoalesce(t *testing.T) {
	const faulters = 12
	db := openTestDB(t, testOptions())
	defer db.Close()
	ix := loadIndex(t, db, "t", 200)
	if err := db.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Lengthen the victim's chain a little so the replay window is real.
	tx := db.Begin()
	for i := 0; i < 200; i++ {
		if err := ix.Update(tx, k(i), v(i+1000)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Commit(tx); err != nil {
		t.Fatal(err)
	}
	if err := db.FlushAll(); err != nil {
		t.Fatal(err)
	}
	var leaf PageID
	for _, id := range db.Pages() {
		if id > ix.Root() {
			leaf = id
		}
	}
	corruptColdPage(t, db, leaf)

	start := make(chan struct{})
	var wg sync.WaitGroup
	var failures atomic.Int64
	for f := 0; f < faulters; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			<-start
			for i := 0; i < 200; i++ {
				if got, err := ix.Get(k(i)); err != nil || !bytes.Equal(got, v(i+1000)) {
					t.Errorf("faulter %d key %d: %q, %v", f, i, got, err)
					failures.Add(1)
					return
				}
			}
		}(f)
	}
	close(start)
	wg.Wait()
	if failures.Load() > 0 {
		t.FailNow()
	}
	st := db.Metrics()
	// How many faulters waited on the load is timing-dependent — late ones
	// hit the repaired frame — but replays must not multiply.
	if st.Recovery.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1 (coalescing failed): restore %+v",
			st.Recovery.Recoveries, st.Restore)
	}
}

// TestMediaRecoveryServesReadsOnDemand: after FailDevice+RecoverMedia the
// database answers reads immediately — each read restores the pages it
// touches — while the bulk of the device is still queued.
func TestMediaRecoveryServesReadsOnDemand(t *testing.T) {
	opts := testOptions()
	opts.Restore.Workers = 1 // keep the background queue busy
	db := openTestDB(t, opts)
	ix := loadIndex(t, db, "t", 600)
	if _, _, err := db.BackupNow(); err != nil {
		t.Fatal(err)
	}
	// Committed work after the backup — must be replayed from the chain.
	tx := db.Begin()
	for i := 600; i < 650; i++ {
		if err := ix.Insert(tx, k(i), v(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Commit(tx); err != nil {
		t.Fatal(err)
	}
	db.FailDevice()

	ndb, rep, err := db.RecoverMedia()
	if err != nil {
		t.Fatalf("media recovery: %v", err)
	}
	defer ndb.Close()
	if rep.Media.PagesRestored == 0 {
		t.Fatal("no pages registered for restore")
	}
	pendingAtReturn := ndb.Metrics().Restore.Pending
	ix2, err := ndb.Index("t")
	if err != nil {
		t.Fatal(err)
	}
	// Reads served while restore is in flight (on small test databases
	// the queue can drain before we look; the availability *benchmark*
	// asserts the overlap quantitatively).
	for i := 0; i < 650; i += 7 {
		if got, err := ix2.Get(k(i)); err != nil || !bytes.Equal(got, v(i)) {
			t.Fatalf("key %d during restore: %q, %v", i, got, err)
		}
	}
	midPending := ndb.Metrics().Restore.Pending
	ndb.DrainRestore()
	for i := 0; i < 650; i++ {
		if got, err := ix2.Get(k(i)); err != nil || !bytes.Equal(got, v(i)) {
			t.Fatalf("key %d after drain: %q, %v", i, got, err)
		}
	}
	if viols, err := ix2.Verify(); err != nil || len(viols) != 0 {
		t.Fatalf("verify after media recovery: %v %v", viols, err)
	}
	if st := ndb.Metrics().Restore; st.Pending != 0 {
		t.Fatalf("pending after drain: %+v", st)
	}
	t.Logf("pending at return=%d, after sampled reads=%d, restore stats=%+v",
		pendingAtReturn, midPending, ndb.Metrics().Restore)
}

// TestScrubCampaignRepairsThroughScheduler: maintenance scrub findings
// flow through the scheduler's queue and every injected latent failure is
// repaired online.
func TestScrubCampaignRepairsThroughScheduler(t *testing.T) {
	opts := maintenanceOptions()
	db := openTestDB(t, opts)
	defer db.Close()
	ix := loadIndex(t, db, "t", 400)
	if err := db.FlushAll(); err != nil {
		t.Fatal(err)
	}
	var victims []PageID
	for _, id := range db.Pages() {
		if id != ix.Root() && id%5 == 0 && len(victims) < 6 {
			victims = append(victims, id)
		}
	}
	for _, id := range victims {
		corruptColdPage(t, db, id)
	}
	waitUntil(t, 20*time.Second, "campaign repairs", func() bool {
		return db.Metrics().Maintenance.Repaired >= int64(len(victims))
	})
	st := db.Metrics()
	if st.Restore.Enqueued == 0 {
		t.Fatalf("campaign repaired without the scheduler: %+v", st.Restore)
	}
	for i := 0; i < 400; i++ {
		if got, err := ix.Get(k(i)); err != nil || !bytes.Equal(got, v(i)) {
			t.Fatalf("key %d after scrub repair: %q, %v", i, got, err)
		}
	}
}

// TestCloseStopsRestoreGoroutines: the scheduler's workers are joined by
// Close exactly like maintenance workers — no leaks.
func TestCloseStopsRestoreGoroutines(t *testing.T) {
	runtime.GC()
	before := runtime.NumGoroutine()
	opts := testOptions()
	opts.Restore.Workers = 4
	db := openTestDB(t, opts)
	ix := loadIndex(t, db, "t", 200)
	if err := db.FlushAll(); err != nil {
		t.Fatal(err)
	}
	var leaf PageID
	for _, id := range db.Pages() {
		if id > ix.Root() {
			leaf = id
		}
	}
	corruptColdPage(t, db, leaf)
	if _, err := ix.Get(k(0)); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 10*time.Second, "goroutines to exit", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before
	})
	if err := db.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// TestRecoverMediaNeedsSinglePageRecovery: instant restore is single-page
// recovery of every page, so a database without it is refused up front,
// with an error naming the cause, not part way through the restore.
func TestRecoverMediaNeedsSinglePageRecovery(t *testing.T) {
	opts := testOptions()
	opts.DisableSinglePageRecovery = true
	db := openTestDB(t, opts)
	loadIndex(t, db, "t", 200)
	if _, _, err := db.BackupNow(); err != nil {
		t.Fatal(err)
	}
	db.FailDevice()
	ndb, _, err := db.RecoverMedia()
	if err == nil {
		ndb.Close()
		t.Fatal("media recovery succeeded without single-page recovery")
	}
	if !strings.Contains(err.Error(), "DisableSinglePageRecovery") {
		t.Fatalf("error does not name the cause: %v", err)
	}
}

// TestRestoreStressForegroundFaultsVsSaturatedScrub is the -race stress of
// the PR: a saturated scrub queue (many latent failures found at once) and
// foreground readers faulting on a slice of the same pages, racing ticket
// retirements, coalescing, busy requeues (pinned evictions), and finally a
// Crash mid-flight. Every committed key must survive into the restarted
// database and no fault may escape repair or escalate.
func TestRestoreStressForegroundFaultsVsSaturatedScrub(t *testing.T) {
	const keys = 1600
	opts := maintenanceOptions()
	opts.PoolFrames = 256
	opts.Restore.Workers = 3
	db := openTestDB(t, opts)
	ix := loadIndex(t, db, "t", keys)
	if err := db.FlushAll(); err != nil {
		t.Fatal(err)
	}

	// Saturate: corrupt a large batch of cold pages in one shot so the
	// campaign floods the queue with background tickets.
	root := ix.Root()
	var victims []PageID
	for _, id := range db.Pages() {
		if id != root && id%3 == 0 {
			victims = append(victims, id)
		}
	}
	if len(victims) < 10 {
		t.Fatalf("only %d victims; grow the dataset", len(victims))
	}
	for _, id := range victims {
		if err := db.EvictPage(id); err != nil {
			t.Fatal(err)
		}
		if err := db.CorruptPage(id); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := rng.Intn(keys)
				got, err := ix.Get(k(i))
				if err != nil {
					if errors.Is(err, ErrCrashed) || errors.Is(err, restore.ErrStopped) {
						return
					}
					t.Errorf("worker %d key %d: %v", w, i, err)
					return
				}
				if !bytes.Equal(got, v(i)) {
					t.Errorf("worker %d key %d: wrong value %q", w, i, got)
					return
				}
			}
		}(w)
	}

	// Every victim must be repaired online — by a worker running the
	// campaign's ticket or by the read that faults on it, whichever gets
	// there first (a foreground repair relocates the page, so the campaign
	// then skips the retired slot; the union covers all).
	waitUntil(t, 30*time.Second, "all latent failures repaired online", func() bool {
		return db.Metrics().Recovery.Recoveries >= int64(len(victims))
	})
	// Crash mid-campaign: the scheduler must quiesce (workers joined,
	// queued tickets failed) before the log truncates.
	db.Crash()
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	ndb, _, err := db.Restart()
	if err != nil {
		t.Fatalf("restart after crash: %v", err)
	}
	defer ndb.Close()
	ix2, err := ndb.Index("t")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < keys; i++ {
		if got, err := ix2.Get(k(i)); err != nil || !bytes.Equal(got, v(i)) {
			t.Fatalf("key %d after restart: %q, %v", i, got, err)
		}
	}
	if st := ndb.Metrics(); st.Recovery.Escalations != 0 {
		t.Fatalf("escalations after restart: %+v", st.Recovery)
	}
	if viols, err := ix2.Verify(); err != nil || len(viols) != 0 {
		t.Fatalf("verify after restart: %v %v", viols, err)
	}
}

// TestOnDemandReadDoesNotWaitForBulkRestore: during a media recovery with
// a deep background queue, a foreground read of an unrestored page must
// complete long before the bulk restore drains — the read restores its
// pages itself, and the worker's per-completion yield keeps it from
// convoying behind a CPU-bound drain on scarce cores (the regression this
// test pins down: pre-yield, such a read stalled a whole preemption
// quantum, ~the full drain on one core).
func TestOnDemandReadDoesNotWaitForBulkRestore(t *testing.T) {
	opts := testOptions()
	opts.DataSlots = 1 << 15
	opts.PoolFrames = 2048
	opts.Restore.Workers = 1
	db := openTestDB(t, opts)
	ix := loadIndex(t, db, "t", 5000)
	if _, _, err := db.BackupNow(); err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= 3; r++ {
		tx := db.Begin()
		for i := 0; i < 5000; i++ {
			if err := ix.Update(tx, k(i), v(i+5000*r)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Commit(tx); err != nil {
			t.Fatal(err)
		}
	}
	db.FailDevice()
	ndb, _, err := db.RecoverMedia()
	if err != nil {
		t.Fatal(err)
	}
	defer ndb.Close()
	if ndb.Metrics().Restore.Pending < 50 {
		t.Skipf("queue drained before the read could race it: %+v", ndb.Metrics().Restore)
	}
	ix2, err := ndb.Index("t")
	if err != nil {
		t.Fatal(err)
	}
	// A key near the end of the keyspace: its leaf sits deep in the
	// background queue.
	if got, err := ix2.Get(k(4800)); err != nil || !bytes.Equal(got, v(4800+15000)) {
		t.Fatalf("on-demand read: %q, %v", got, err)
	}
	// The read must have overtaken the bulk restore, not waited for it.
	if pending := ndb.Metrics().Restore.Pending; pending == 0 {
		t.Fatal("read completed only after the whole bulk restore drained")
	}
	ndb.DrainRestore()
}

// TestPromotionPullsScrubTicketForward: with the single worker held at the
// end of its first repair and every other damaged page queued behind it,
// foreground reads repair the pages they fault on themselves and retire
// those pages' tickets: every page is recovered exactly once, and the queue
// is empty without the worker having run another ticket.
func TestPromotionPullsScrubTicketForward(t *testing.T) {
	defer chaos.Reset()
	opts := testOptions()
	opts.Restore.Workers = 1
	db := openTestDB(t, opts)
	defer db.Close()
	ix := loadIndex(t, db, "t", 600)
	if err := db.FlushAll(); err != nil {
		t.Fatal(err)
	}
	root := ix.Root()
	var victims []PageID
	for _, id := range db.Pages() {
		if id != root {
			victims = append(victims, id)
		}
	}
	for _, id := range victims {
		corruptColdPage(t, db, id)
	}
	held, gate := make(chan struct{}), make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release() // before Close joins the worker, also on a failure
	chaos.Arm("restore.complete", 1, func(chaos.Hit) {
		close(held)
		<-gate
	})
	// Scrub waits per page, so enqueue directly instead.
	for _, id := range victims {
		db.sched.Enqueue(id, 0)
	}
	<-held
	for i := 0; i < 600; i++ {
		if got, err := ix.Get(k(i)); err != nil || !bytes.Equal(got, v(i)) {
			t.Fatalf("key %d: %q, %v", i, got, err)
		}
	}
	byReads := int64(len(victims) - 1)
	st := db.Metrics()
	if st.Restore.Promotions != byReads || st.Restore.UrgentRequests != byReads || st.Restore.Pending != 0 {
		t.Fatalf("promotions %d, urgent %d, pending %d; want %d, %d, 0: %+v", st.Restore.Promotions,
			st.Restore.UrgentRequests, st.Restore.Pending, byReads, byReads, st.Restore)
	}
	release()
	db.DrainRestore()
	st = db.Metrics()
	if n := int64(len(victims)); st.Recovery.Recoveries != n || st.Restore.Repaired != n || st.RetiredSlots != len(victims) {
		t.Fatalf("%d damaged pages: %d recoveries, %d tickets repaired, %d slots retired",
			n, st.Recovery.Recoveries, st.Restore.Repaired, st.RetiredSlots)
	}
	if st.Restore.Failed != 0 || st.Recovery.Escalations != 0 {
		t.Fatalf("failed repairs: %+v %+v", st.Restore, st.Recovery)
	}
}
