package spf

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/chaos"
)

// restartOptions slows the background drain (one worker) so on-demand
// behavior is observable.
func restartOptions() Options {
	o := testOptions()
	o.Restore.Workers = 1
	return o
}

// dirtyCrash loads n keys, checkpoints, then commits a second batch of
// extra inserts plus spread updates that stay dirty in the pool, and
// crashes. Every committed value was acked, so restart must replay all of
// it. Returns the total key count (values of key i are v(i) throughout).
func dirtyCrash(t *testing.T, db *DB, n, extra int) int {
	t.Helper()
	ix := loadIndex(t, db, "t", n)
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	for i := n; i < n+extra; i++ {
		if err := ix.Insert(tx, k(i), v(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i += 5 {
		if err := ix.Update(tx, k(i), v(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Commit(tx); err != nil {
		t.Fatal(err)
	}
	db.Crash()
	return n + extra
}

// TestInstantRestartServesAckedCommitsOnDemand: Restart returns before
// bulk redo completes; the first read of every page observes all acked
// commits, paying only that page's chain replay.
func TestInstantRestartServesAckedCommitsOnDemand(t *testing.T) {
	db := openTestDB(t, restartOptions())
	total := dirtyCrash(t, db, 1500, 300)

	ndb, rep, err := db.Restart()
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer ndb.Close()
	if !rep.OnDemand {
		t.Fatal("restart did not take the on-demand path")
	}
	if rep.Prep.PagesMarked == 0 {
		t.Fatal("prep marked no pages despite a dirty crash")
	}
	if rep.Redo.PagesRead != 0 || rep.Redo.RecordsApplied != 0 {
		t.Fatalf("synchronous redo ran on the on-demand path: %+v", rep.Redo)
	}
	pendingAtReturn := ndb.Metrics().Restore.Pending

	// First reads — before the drain barrier — must observe every acked
	// commit (on tiny test databases the backlog can drain before we
	// look; BenchmarkE26 asserts the latency gap quantitatively).
	ix, err := ndb.Index("t")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total; i += 7 {
		if got, err := ix.Get(k(i)); err != nil || !bytes.Equal(got, v(i)) {
			t.Fatalf("key %d during redo drain: %q, %v", i, got, err)
		}
	}
	ndb.DrainRestore()
	expectValues(t, ix, total)
	if viols, err := ix.Verify(); err != nil || len(viols) != 0 {
		t.Fatalf("verify after restart: %v %v", viols, err)
	}
	rs := ndb.Metrics().RestartRedo
	if rs.Marked == 0 || rs.Pending != 0 {
		t.Fatalf("redo stats after drain: %+v", rs)
	}
	if rs.FastRedos == 0 {
		t.Fatalf("no page was redone from its on-disk image: %+v", rs)
	}
	t.Logf("prep=%+v pendingAtReturn=%d redo=%+v", rep.Prep, pendingAtReturn, rs)
}

// TestRestartSynchronousPathStillWorks pins the restart of a database
// whose reads cannot find a stale page (Options.DisablePageLSNCheck): redo
// is a forward log scan completing before Restart returns.
func TestRestartSynchronousPathStillWorks(t *testing.T) {
	opts := testOptions()
	opts.DisablePageLSNCheck = true
	db := openTestDB(t, opts)
	total := dirtyCrash(t, db, 800, 200)

	ndb, rep, err := db.Restart()
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer ndb.Close()
	if rep.OnDemand {
		t.Fatal("restart without the PageLSN check took the on-demand path")
	}
	if rep.Redo.RecordsApplied == 0 {
		t.Fatal("synchronous redo applied nothing")
	}
	ix, err := ndb.Index("t")
	if err != nil {
		t.Fatal(err)
	}
	expectValues(t, ix, total)
}

// TestNestedPageFailureDuringRestartRedo: a persistent page fault
// injected between crash and restart means the on-disk image cannot serve
// as the redo base — single-page recovery from the page's real backup
// must run inside system recovery, transparently.
func TestNestedPageFailureDuringRestartRedo(t *testing.T) {
	opts := restartOptions()
	db := openTestDB(t, opts)
	ix := loadIndex(t, db, "t", 1200)
	// A full backup gives every page a registered fallback source.
	if _, _, err := db.BackupNow(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	for i := 0; i < 1200; i += 3 {
		if err := ix.Update(tx, k(i), v(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Commit(tx); err != nil {
		t.Fatal(err)
	}
	db.Crash()
	// Persistent damage to every stored image: no marked page's image can
	// be its recovery's base, so each is rebuilt from its registered backup
	// — the nested-failure scenario.
	for _, id := range db.Pages() {
		if err := db.CorruptPage(id); err != nil {
			t.Fatal(err)
		}
	}

	ndb, rep, err := db.Restart()
	if err != nil {
		t.Fatalf("restart over corrupted device: %v", err)
	}
	defer ndb.Close()
	if !rep.OnDemand || rep.Prep.PagesMarked == 0 {
		t.Fatalf("unexpected restart shape: %+v", rep)
	}
	ix2, err := ndb.Index("t")
	if err != nil {
		t.Fatal(err)
	}
	ndb.DrainRestore()
	expectValues(t, ix2, 1200)
	if viols, err := ix2.Verify(); err != nil || len(viols) != 0 {
		t.Fatalf("verify: %v %v", viols, err)
	}
	st := ndb.Metrics()
	if st.Recovery.Recoveries < st.RestartRedo.Marked || st.Recovery.Escalations != 0 {
		t.Fatalf("%d pages marked, recoverer: %+v", st.RestartRedo.Marked, st.Recovery)
	}
	if st.RestartRedo.FastRedos != 0 {
		t.Fatalf("a damaged image served as a replay base: %+v", st.RestartRedo)
	}
	t.Logf("redo stats with corrupted device: %+v", st.RestartRedo)
}

// TestCrashDuringMediaRestoreThenRestart: a system failure in the middle
// of an instant-restore backlog must not lose an acked commit — restart
// recovery runs over the half-restored device and every page self-heals
// on read from its backup plus chain.
func TestCrashDuringMediaRestoreThenRestart(t *testing.T) {
	opts := restartOptions()
	db := openTestDB(t, opts)
	ix := loadIndex(t, db, "t", 1000)
	if _, _, err := db.BackupNow(); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	for i := 1000; i < 1200; i++ {
		if err := ix.Insert(tx, k(i), v(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Commit(tx); err != nil {
		t.Fatal(err)
	}
	db.FailDevice()

	ndb, _, err := db.RecoverMedia()
	if err != nil {
		t.Fatalf("media recovery: %v", err)
	}
	// Crash while the restore backlog is (very likely still) draining.
	t.Logf("pending at crash: %d", ndb.Metrics().Restore.Pending)
	ndb.Crash()

	ndb2, rep, err := ndb.Restart()
	if err != nil {
		t.Fatalf("restart after crash-during-restore: %v", err)
	}
	defer ndb2.Close()
	ix2, err := ndb2.Index("t")
	if err != nil {
		t.Fatal(err)
	}
	ndb2.DrainRestore()
	expectValues(t, ix2, 1200)
	if viols, err := ix2.Verify(); err != nil || len(viols) != 0 {
		t.Fatalf("verify: %v %v", viols, err)
	}
	t.Logf("restart after half-restore: prep=%+v", rep.Prep)
}

// TestCrashDuringRestartDrainThenRestartAgain: a second system failure
// before the first restart's background redo drains must still lose
// nothing — the first restart's end checkpoint preserved every raised
// expectation, so stale pages are detected on read and recovered from
// their backups.
func TestCrashDuringRestartDrainThenRestartAgain(t *testing.T) {
	db := openTestDB(t, restartOptions())
	ix := loadIndex(t, db, "t", 1200)
	if _, _, err := db.BackupNow(); err != nil {
		t.Fatal(err)
	}
	total := 1200
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	for i := 0; i < total; i += 4 {
		if err := ix.Update(tx, k(i), v(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Commit(tx); err != nil {
		t.Fatal(err)
	}
	db.Crash()

	ndb, _, err := db.Restart()
	if err != nil {
		t.Fatalf("first restart: %v", err)
	}
	// Crash again immediately — background redo is mid-drain.
	t.Logf("pending at second crash: %d", ndb.Metrics().Restore.Pending)
	ndb.Crash()

	ndb2, _, err := ndb.Restart()
	if err != nil {
		t.Fatalf("second restart: %v", err)
	}
	defer ndb2.Close()
	ix2, err := ndb2.Index("t")
	if err != nil {
		t.Fatal(err)
	}
	ndb2.DrainRestore()
	expectValues(t, ix2, total)
	if viols, err := ix2.Verify(); err != nil || len(viols) != 0 {
		t.Fatalf("verify: %v %v", viols, err)
	}
}

// TestRestartLosersRolledBackOnDemand: undo of in-flight transactions
// rides the on-demand redo path — each page a rollback touches is redone
// right there, and the loser's effects are gone afterwards.
func TestRestartLosersRolledBackOnDemand(t *testing.T) {
	db := openTestDB(t, restartOptions())
	ix := loadIndex(t, db, "t", 600)
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// A loser: updates + inserts never committed.
	loser := db.Begin()
	for i := 0; i < 600; i += 6 {
		if err := ix.Update(loser, k(i), []byte("doomed")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 600; i < 640; i++ {
		if err := ix.Insert(loser, k(i), v(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Force the log so the loser's records survive the crash and demand
	// real undo work.
	db.LogManager().FlushAll()
	db.Crash()

	ndb, rep, err := db.Restart()
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer ndb.Close()
	if rep.Undo.LosersRolledBack == 0 {
		t.Fatal("no losers rolled back")
	}
	ix2, err := ndb.Index("t")
	if err != nil {
		t.Fatal(err)
	}
	ndb.DrainRestore()
	expectValues(t, ix2, 600)
	for i := 600; i < 640; i++ {
		if _, err := ix2.Get(k(i)); !errors.Is(err, ErrKeyNotFound) {
			t.Fatalf("loser insert %d visible after restart: %v", i, err)
		}
	}
	if viols, err := ix2.Verify(); err != nil || len(viols) != 0 {
		t.Fatalf("verify: %v %v", viols, err)
	}
}

// TestSystemTransactionHoldsItsPagesUntilCommit: an insert purges a ghost
// under a system transaction, and a crash seals the log before that
// transaction's commit record. Restart drops the transaction, putting the
// page back at its record before the purge, which is sound only if
// nothing changed the page before the commit: a second transaction
// re-inserting the purged key must wait for the latch, and what its
// commit reports must be what restart shows.
func TestSystemTransactionHoldsItsPagesUntilCommit(t *testing.T) {
	defer chaos.Reset()
	db := openTestDB(t, testOptions())
	ix, _ := db.CreateIndexKind("t", KindBTree)
	big := bytes.Repeat([]byte{'.'}, 80)
	tx := db.Begin()
	for i := 0; i < 10; i++ { // one leaf, too full for an eleventh
		if err := ix.Insert(tx, k(i), big); err != nil {
			t.Fatal(err)
		}
	}
	del := db.Begin()
	if db.Commit(tx) != nil || ix.Delete(del, k(5)) != nil || db.Commit(del) != nil {
		t.Fatal("load")
	}
	again := make(chan error, 1)
	chaos.Arm("txn.syscommit", 1, func(chaos.Hit) {
		go func() {
			tx := db.Begin()
			err := ix.Insert(tx, k(5), []byte("again"))
			if err == nil {
				err = db.Commit(tx)
			}
			again <- err
		}()
		time.Sleep(100 * time.Millisecond) // long enough to commit, if the latch is free
		db.LogManager().Crash()
	})
	tx = db.Begin()
	if err := ix.Insert(tx, k(100), big); err != nil || !chaos.Fired("txn.syscommit") {
		t.Fatalf("insert: %v; a system transaction committed: %v", err, chaos.Fired("txn.syscommit"))
	}
	if err := db.Commit(tx); !errors.Is(err, ErrCommitLost) {
		t.Fatalf("commit across the crash = %v, want ErrCommitLost", err)
	}
	acked := <-again == nil
	db.Crash()
	ndb, _, err := db.Restart()
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer ndb.Close()
	ix2, _ := ndb.Index("t")
	if got, err := ix2.Get(k(5)); acked != (err == nil) || acked && string(got) != "again" {
		t.Fatalf("re-insert acknowledged %v, restart shows %q, %v", acked, got, err)
	}
	if viols, err := ix2.Verify(); err != nil || len(viols) != 0 {
		t.Fatalf("verify: %v %v", viols, err)
	}
}
