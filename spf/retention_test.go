package spf

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/buffer"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/storage"
)

// TestReadErrorCostsItsReReads pins the read-error semantics end to end,
// in counts rather than in time: a one-shot device read error met on the
// repair path is absorbed by one immediate re-read (no recovery, no
// retired slot); a sticky one is re-read exactly the pool's ReadRetries
// times (two), then repaired, and the failed slot is retired with its
// image discarded.
func TestReadErrorCostsItsReReads(t *testing.T) {
	db := openTestDB(t, testOptions())
	defer db.Close()
	ix := loadIndex(t, db, "t", 400)
	if _, _, err := db.BackupNow(); err != nil {
		t.Fatal(err)
	}
	victim := findLeafOf(t, db, ix, k(100))
	slot, _ := db.PhysicalSlot(victim)

	// One-shot, met by a scheduled repair (as the scrub campaign's are).
	if err := db.EvictPage(victim); err != nil {
		t.Fatal(err)
	}
	if err := db.InjectPageFault(victim, FaultReadError, false); err != nil {
		t.Fatal(err)
	}
	if err := db.repairLatent(victim); err != nil {
		t.Fatalf("scheduled repair across a one-shot read error: %v", err)
	}
	m := db.Metrics()
	if m.Restore.ReadRetries != 1 || m.Recovery.Recoveries != 0 || m.RetiredSlots != 0 {
		t.Fatalf("one-shot read error: %d re-reads, %d recoveries, %d retired slots; want 1, 0, 0",
			m.Restore.ReadRetries, m.Recovery.Recoveries, m.RetiredSlots)
	}
	if now, _ := db.PhysicalSlot(victim); now != slot {
		t.Fatalf("page moved from slot %d to %d without a failure", slot, now)
	}

	// Sticky, met by a foreground read: its own failed read hands the page
	// to the scheduler, whose worker re-reads twice and then repairs.
	if err := db.EvictPage(victim); err != nil {
		t.Fatal(err)
	}
	if err := db.InjectPageFault(victim, FaultReadError, true); err != nil {
		t.Fatal(err)
	}
	if got, err := ix.Get(k(100)); err != nil || !bytes.Equal(got, v(100)) {
		t.Fatalf("get through a sticky read error: %q, %v", got, err)
	}
	m = db.Metrics()
	if m.Restore.ReadRetries != 3 || m.Recovery.Recoveries != 1 || m.RetiredSlots != 1 {
		t.Fatalf("sticky read error: %d re-reads in all, %d recoveries, %d retired slots; want 3, 1, 1",
			m.Restore.ReadRetries, m.Recovery.Recoveries, m.RetiredSlots)
	}
	if !db.dev.Retired(slot) || db.dev.RawImage(slot) != nil {
		t.Fatalf("failed slot %d: retired=%v, image kept=%v", slot, db.dev.Retired(slot), db.dev.RawImage(slot) != nil)
	}
	if m.Recovery.Escalations != 0 || m.Pool.Escalations != 0 || m.Restore.Failed != 0 {
		t.Fatalf("escalations: %+v %+v %+v", m.Recovery, m.Pool, m.Restore)
	}
}

// TestBackupNowKeepsOnlyTheNewestSet: after several backups exactly one
// full set is listed, single-page recovery and media recovery both resolve
// against it, and dropping the others took nothing from the archive's
// release rule — history is released up to the newest set, no further.
func TestBackupNowKeepsOnlyTheNewestSet(t *testing.T) {
	const n = 200
	db := openTestDB(t, lifecycleOptions())
	ix := loadIndex(t, db, "t", n)
	var last uint64
	for round := 0; round < 4; round++ {
		churn(t, db, ix, n, 2)
		set, _, err := db.BackupNow()
		if err != nil {
			t.Fatal(err)
		}
		if set <= last {
			t.Fatalf("set IDs not increasing: %d after %d", set, last)
		}
		last = set
		if _, err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := db.ArchiveNow(); err != nil {
			t.Fatal(err)
		}
		if got := db.store.Sets(); len(got) != 1 || got[0] != set {
			t.Fatalf("round %d: backup store lists sets %v, want [%d]", round, got, set)
		}
	}
	setLSN, err := db.store.SetLSN(last)
	if err != nil {
		t.Fatal(err)
	}
	if rel := db.Metrics().Archive.ReleasedLSN; rel == 0 || rel > setLSN {
		t.Fatalf("archive released up to %d; the live set was taken at %d", rel, setLSN)
	}

	// Single-page recovery: a chain on top of the live set's image.
	churn(t, db, ix, n, 1)
	if err := db.FlushAll(); err != nil {
		t.Fatal(err)
	}
	victim := longestChainPage(t, db)
	corruptAndVerify(t, db, ix, victim, n)
	if m := db.Metrics(); m.Recovery.Recoveries == 0 || m.Recovery.Escalations != 0 {
		t.Fatalf("single-page recovery against set %d: %+v", last, m.Recovery)
	}

	// Media recovery: the live set plus the log.
	db.FailDevice()
	ndb, _, err := db.RecoverMedia()
	if err != nil {
		t.Fatalf("media recovery from set %d: %v", last, err)
	}
	defer ndb.Close()
	ix2, err := ndb.Index("t")
	if err != nil {
		t.Fatal(err)
	}
	expectValues(t, ix2, n)
	ndb.DrainRestore()
	if m := ndb.Metrics(); m.Recovery.Escalations != 0 || m.Restore.Failed != 0 {
		t.Fatalf("media recovery escalated: %+v %+v", m.Recovery, m.Restore)
	}
}

// TestBackupNowBesideRepairs races the retention against the repairs it
// must not strand: a recovery that read a reference to the old set from
// the index just before BackupNow re-pointed the range and dropped that
// set resolves again instead of escalating. Readers hit pages under
// stored corruption and sticky read errors while backups run back to back.
func TestBackupNowBesideRepairs(t *testing.T) {
	const n = 600
	db := openTestDB(t, testOptions())
	defer db.Close()
	ix := loadIndex(t, db, "t", n)
	if _, _, err := db.BackupNow(); err != nil {
		t.Fatal(err)
	}
	var leaves []PageID
	for _, id := range db.Pages() {
		if id != ix.Root() && id != db.metaID {
			leaves = append(leaves, id)
		}
	}

	stop := make(chan struct{})
	var stopOnce sync.Once
	halt := func() { stopOnce.Do(func() { close(stop) }) }
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	fail := func(format string, args ...any) {
		t.Errorf(format, args...)
		halt()
	}
	var wg sync.WaitGroup
	var backups, injected atomic.Int64

	// Backups, back to back.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stopped() {
			if _, _, err := db.BackupNow(); err != nil {
				fail("BackupNow: %v", err)
				return
			}
			backups.Add(1)
		}
	}()
	// Faults: stored corruption and sticky read errors, alternating, on
	// pages pushed out of the pool so the next read meets the device.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stopped(); i++ {
			id := leaves[i%len(leaves)]
			err := db.EvictPage(id)
			if errors.Is(err, buffer.ErrPinned) {
				continue
			}
			if err == nil && i%2 == 0 {
				err = db.CorruptPage(id)
			} else if err == nil {
				err = db.InjectPageFault(id, FaultReadError, true)
			}
			if errors.Is(err, ErrNoSlot) {
				continue // a reader is rebuilding the page off its failed slot
			}
			if err != nil {
				fail("injecting on page %d: %v", id, err)
				return
			}
			injected.Add(1)
		}
	}()
	// Readers. The first also ends the run, on counts rather than on a
	// clock: enough backups beside enough repairs for the window to have
	// been crossed many times over.
	reader := func(g int) {
		defer wg.Done()
		for i, reads := g, 0; !stopped(); i, reads = (i+7)%n, reads+1 {
			got, err := ix.Get(k(i))
			if err != nil || !bytes.Equal(got, v(i)) {
				fail("key %d beside backups: %q, %v", i, got, err)
				return
			}
			if g == 0 && reads%64 == 0 && backups.Load() >= 60 &&
				db.Metrics().Recovery.Recoveries >= 300 {
				halt()
			}
		}
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go reader(g)
	}
	wg.Wait()

	m := db.Metrics()
	if m.Recovery.Escalations != 0 || m.Pool.Escalations != 0 || m.Restore.Failed != 0 {
		t.Fatalf("escalated repairs beside %d backups: recovery %d, pool %d, restore failed %d",
			backups.Load(), m.Recovery.Escalations, m.Pool.Escalations, m.Restore.Failed)
	}
	if got := db.store.Sets(); len(got) != 1 {
		t.Fatalf("backup store lists sets %v after %d backups", got, backups.Load())
	}
	expectValues(t, ix, n)
	if viols, err := ix.Verify(); err != nil || len(viols) != 0 {
		t.Fatalf("verify after %d backups beside %d repairs of %d faults: %v %v",
			backups.Load(), m.Recovery.Recoveries, injected.Load(), viols, err)
	}
}

// TestSupersededPageBackupOutlivesItsUnflushedReplacement: BackupPage frees
// the copy it supersedes only once the index record naming the new copy is
// durable. A crash before that rebuilds an index that names the old copy —
// which must still be there to recover from.
func TestSupersededPageBackupOutlivesItsUnflushedReplacement(t *testing.T) {
	const n = 200
	db := openTestDB(t, testOptions())
	ix := loadIndex(t, db, "t", n)
	victim := findLeafOf(t, db, ix, k(100))
	if err := db.BackupPage(victim); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	first, err := db.pri.Get(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.BackupPage(victim); err != nil {
		t.Fatal(err)
	}
	// Nothing forced the log since: the second copy's record is volatile,
	// so the first copy is parked, not freed.
	if db.store.Device().RawImage(storage.PhysID(first.Backup.Loc)) == nil {
		t.Fatal("superseded copy discarded before its replacement's record was durable")
	}
	db.Crash()
	ndb, _, err := db.Restart()
	if err != nil {
		t.Fatal(err)
	}
	defer ndb.Close()
	if cur, err := ndb.pri.Get(victim); err != nil || cur.Backup != first.Backup {
		t.Fatalf("restarted index names %+v (%v); the crash should have cut the second copy's record, leaving %+v",
			cur.Backup, err, first.Backup)
	}
	ix2, err := ndb.Index("t")
	if err != nil {
		t.Fatal(err)
	}
	corruptAndVerify(t, ndb, ix2, victim, n)
	if m := ndb.Metrics(); m.Recovery.Recoveries != 1 || m.Recovery.Escalations != 0 {
		t.Fatalf("recovery from the first copy: %+v", m.Recovery)
	}
}

// TestSupersededPageBackupReleasedBehindTheLog: the other side of the same
// rule — once the replacing record is durable the old copy goes, at the
// next log force the engine knows of or, after a crash, at restart.
func TestSupersededPageBackupReleasedBehindTheLog(t *testing.T) {
	const n = 200
	db := openTestDB(t, testOptions())
	ix := loadIndex(t, db, "t", n)
	victim := findLeafOf(t, db, ix, k(100))
	copies := func(db *DB) int { return db.store.Device().WrittenSlots() }
	for i := 0; i < 3; i++ {
		if err := db.BackupPage(victim); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if got := copies(db); got != 1 {
			t.Fatalf("after backup %d and a checkpoint the store holds %d copies of one page", i+1, got)
		}
	}
	if err := db.BackupPage(victim); err != nil {
		t.Fatal(err)
	}
	if got := copies(db); got != 2 {
		t.Fatalf("%d copies with the newest one's record still volatile; want 2", got)
	}
	db.LogManager().FlushAll()
	db.Crash()
	ndb, _, err := db.Restart()
	if err != nil {
		t.Fatal(err)
	}
	defer ndb.Close()
	if got := copies(ndb); got != 1 {
		t.Fatalf("%d copies after a restart that kept the newest one's record; want 1", got)
	}
	ix2, err := ndb.Index("t")
	if err != nil {
		t.Fatal(err)
	}
	corruptAndVerify(t, ndb, ix2, victim, n)
	if m := ndb.Metrics(); m.Recovery.Recoveries != 1 || m.Recovery.Escalations != 0 {
		t.Fatalf("recovery from the newest copy: %+v", m.Recovery)
	}
}

// TestBackupNowNoticesACrashUnderIt: a crash any time after BackupNow
// found the DB open — here inside its first flush — may cut the new set's
// index records from the log, or hand the log to a restarted DB whose
// index still names the old set. The backup reports ErrCrashed and drops
// nothing; the restarted DB recovers from the set its index names.
func TestBackupNowNoticesACrashUnderIt(t *testing.T) {
	const n = 200
	defer chaos.Reset()
	db := openTestDB(t, testOptions())
	ix := loadIndex(t, db, "t", n)
	set1, _, err := db.BackupNow()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	churn(t, db, ix, n, 1)
	tx := db.Begin()
	if err := ix.Update(tx, k(1), v(1)); err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(tx); err != nil {
		t.Fatal(err)
	}
	// The system failure strikes the log while the backup flushes the page
	// that update dirtied; the rest of Crash follows once BackupNow is out.
	chaos.Arm("buffer.writeback", 1, func(chaos.Hit) { db.LogManager().Crash() })
	_, _, err = db.BackupNow()
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("BackupNow across a crash = %v, want ErrCrashed", err)
	}
	if !chaos.Fired("buffer.writeback") {
		t.Fatal("the backup flushed nothing; the crash never struck")
	}
	if _, err := db.store.SetPages(set1); err != nil {
		t.Fatalf("the set the durable index names was dropped: %v", err)
	}
	db.Crash()
	ndb, _, err := db.Restart()
	if err != nil {
		t.Fatal(err)
	}
	defer ndb.Close()
	ix2, err := ndb.Index("t")
	if err != nil {
		t.Fatal(err)
	}
	victim := findLeafOf(t, ndb, ix2, k(100))
	if cur, err := ndb.pri.Get(victim); err != nil || cur.Backup.Kind != core.BackupFull || cur.Backup.Loc != set1 {
		t.Fatalf("restarted index names %+v (%v), want set %d", cur.Backup, err, set1)
	}
	ndb.DrainRestore()
	corruptAndVerify(t, ndb, ix2, victim, n)
	if m := ndb.Metrics(); m.Recovery.Escalations != 0 || m.Restore.Failed != 0 {
		t.Fatalf("recovery against set %d after the crash: %+v %+v", set1, m.Recovery, m.Restore)
	}
}
