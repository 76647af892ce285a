package spf

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/clock"
	"repro/internal/core"
)

// policyDB opens a database that takes a page backup every `every` updates
// and loads n keys; victim is the leaf holding key k(n/2).
func policyDB(t *testing.T, every, n int) (db *DB, ix *Index, victim PageID) {
	t.Helper()
	opts := testOptions()
	opts.BackupEveryNUpdates = every
	db = openTestDB(t, opts)
	ix = loadIndex(t, db, "t", n)
	return db, ix, findLeafOf(t, db, ix, k(n/2))
}

// updateKey commits one update of key i to val.
func updateKey(t *testing.T, db *DB, ix *Index, i int, val string) {
	t.Helper()
	tx := db.Begin()
	if err := ix.Update(tx, k(i), []byte(val)); err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(tx); err != nil {
		t.Fatal(err)
	}
}

// backupOf returns the backup the index names for page id.
func backupOf(t *testing.T, db *DB, id PageID) core.BackupRef {
	t.Helper()
	e, err := db.pri.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	return e.Backup
}

// isCopy reports whether ref names a page copy: an image held in the log
// that is not the page's format record, whose LSN is its own AsOf.
func isCopy(ref core.BackupRef) bool {
	return ref.Kind == core.BackupLog && LSN(ref.Loc) != ref.AsOf
}

// recoverNow corrupts page id on the device and recovers it explicitly.
func recoverNow(t *testing.T, db *DB, id PageID) core.Report {
	t.Helper()
	if err := db.EvictPage(id); err != nil {
		t.Fatal(err)
	}
	if err := db.CorruptPage(id); err != nil {
		t.Fatal(err)
	}
	rep, err := db.RecoverPageNow(id)
	if err != nil {
		t.Fatalf("recovering page %d: %v", id, err)
	}
	return rep
}

// TestBackupPageRestartsThePolicyCount: an explicit BackupPage is a backup
// like the policy's own, so the policy's next one falls N updates after it,
// not N after the policy's previous one.
func TestBackupPageRestartsThePolicyCount(t *testing.T) {
	const every, n = 10, 100
	db, ix, victim := policyDB(t, every, n)
	defer db.Close()
	step := 0
	write := func() {
		t.Helper()
		updateKey(t, db, ix, n/2, fmt.Sprintf("step-%03d", step))
		step++
		if err := db.FlushAll(); err != nil {
			t.Fatal(err)
		}
	}
	// Run until the policy takes a backup, whatever the load left counted.
	for last := backupOf(t, db, victim); backupOf(t, db, victim) == last; write() {
		if step > 2*every {
			t.Fatalf("no policy backup in %d updates", step)
		}
	}
	for i := 0; i < every/2; i++ {
		write()
	}
	if err := db.BackupPage(victim); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < every-1; i++ {
		write()
	}
	rep := recoverNow(t, db, victim)
	if rep.BackupKind != core.BackupLog || rep.RecordsApplied != every-1 {
		t.Fatalf("recovery %+v; want the explicit backup plus the %d updates since", rep, every-1)
	}
	if got, err := ix.Get(k(n / 2)); err != nil || string(got) != fmt.Sprintf("step-%03d", step-1) {
		t.Fatalf("read after recovery: %q, %v", got, err)
	}
}

// TestCommitAllocatesLikeTxnCommit: DB.Commit does no work of its own on
// the commit path — the policy's backups are taken at write-back.
func TestCommitAllocatesLikeTxnCommit(t *testing.T) {
	opts := testOptions()
	opts.clock = clock.NewManual() // never advanced: no background archiver allocating beside the runs
	db := openTestDB(t, opts)
	defer db.Close()
	ix := loadIndex(t, db, "t", 10)
	run := func(commit func(*Txn) error) float64 {
		return testing.AllocsPerRun(200, func() {
			tx := db.Begin()
			if err := ix.Update(tx, k(3), v(4)); err != nil {
				t.Fatal(err)
			}
			if err := commit(tx); err != nil {
				t.Fatal(err)
			}
		})
	}
	viaTxn, viaDB := run((*Txn).Commit), run(db.Commit)
	if viaDB != viaTxn {
		t.Fatalf("an update and commit allocate %v times through DB.Commit, %v through Txn.Commit", viaDB, viaTxn)
	}
}

// TestPolicyCountSurvivesEviction: the count lives in the page's index
// entry, so a page evicted after every update — each write-back reporting
// one — is still backed up at its Nth write-back.
func TestPolicyCountSurvivesEviction(t *testing.T) {
	const every, n = 5, 100
	db, ix, victim := policyDB(t, every, n)
	defer db.Close()
	if err := db.BackupPage(victim); err != nil {
		t.Fatal(err)
	}
	const updates = 2*every + 1
	for i := 0; i < updates; i++ {
		updateKey(t, db, ix, n/2, fmt.Sprintf("evicted-%02d", i))
		if err := db.EvictPage(victim); err != nil {
			t.Fatal(err)
		}
	}
	rep := recoverNow(t, db, victim)
	if rep.BackupKind != core.BackupLog || rep.RecordsApplied > every {
		t.Fatalf("recovery %+v after %d updates; want a page backup at most %d updates old", rep, updates, every)
	}
	if got, err := ix.Get(k(n / 2)); err != nil || string(got) != fmt.Sprintf("evicted-%02d", updates-1) {
		t.Fatalf("read after recovery: %q, %v", got, err)
	}
}

// TestPolicyBackupFromFlushBatchSurvivesRestart: a backup taken by the
// batched write-back the maintenance flusher runs (buffer.Pool.FlushBatch,
// which appends the batch's write-complete records after its writes) is
// logged like any other, so the index a restart rebuilds names it and
// recovery replays from it.
func TestPolicyBackupFromFlushBatchSurvivesRestart(t *testing.T) {
	const every, n = 3, 100
	db, ix, victim := policyDB(t, every, n)
	if err := db.BackupPage(victim); err != nil {
		t.Fatal(err)
	}
	explicit := backupOf(t, db, victim)
	for i := 0; i < every; i++ {
		updateKey(t, db, ix, n/2, fmt.Sprintf("batched-%d", i))
	}
	if wrote, err := db.pool.FlushBatch(64); err != nil || wrote == 0 {
		t.Fatalf("flush batch wrote %d pages: %v", wrote, err)
	}
	policy := backupOf(t, db, victim)
	if policy == explicit || !isCopy(policy) {
		t.Fatalf("backup %+v after the batch, want a new page backup", policy)
	}
	db.log.FlushAll()
	db.Crash()
	ndb, _, err := db.Restart()
	if err != nil {
		t.Fatal(err)
	}
	defer ndb.Close()
	if got := backupOf(t, ndb, victim); got != policy {
		t.Fatalf("restarted index names %+v, want the batch's %+v", got, policy)
	}
	rep := recoverNow(t, ndb, victim)
	if rep.BackupKind != core.BackupLog || rep.RecordsApplied != 0 {
		t.Fatalf("recovery %+v; want the batch's backup and nothing to replay", rep)
	}
	ix2, err := ndb.Index("t")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := ix2.Get(k(n / 2)); err != nil || string(got) != fmt.Sprintf("batched-%d", every-1) {
		t.Fatalf("read after restart and recovery: %q, %v", got, err)
	}
}

// TestPolicyBackupNeedsNoBackupDevice: the policy's copy is a log record,
// so a failed backup device neither costs the write-back or the commit nor
// stops the copy; the next repair replays nothing.
func TestPolicyBackupNeedsNoBackupDevice(t *testing.T) {
	const every, n = 3, 100
	db, ix, victim := policyDB(t, every, n)
	defer db.Close()
	if err := db.BackupPage(victim); err != nil {
		t.Fatal(err)
	}
	explicit := backupOf(t, db, victim)
	db.store.Device().FailDevice()
	defer db.store.Device().Revive()
	for i := 0; i < every; i++ {
		updateKey(t, db, ix, n/2, fmt.Sprintf("device-down-%d", i))
		if err := db.FlushAll(); err != nil {
			t.Fatalf("write-back beside a failed backup device: %v", err)
		}
	}
	if got := backupOf(t, db, victim); got == explicit || !isCopy(got) {
		t.Fatalf("index names %+v after %d write-backs beside a failed backup device, want a new page copy", got, every)
	}
	if rep := recoverNow(t, db, victim); rep.RecordsApplied != 0 {
		t.Fatalf("recovery %+v; want the policy's copy and nothing to replay", rep)
	}
	if got, err := ix.Get(k(n / 2)); err != nil || string(got) != fmt.Sprintf("device-down-%d", every-1) {
		t.Fatalf("read after recovery: %q, %v", got, err)
	}
}

// TestBackupPageCannotStraddleBackupNow: a BackupPage whose copy predates a
// full backup must not be registered after it. The full backup resets the
// index's LSN for every page its set holds as written and recycles the log
// below it; a copy registered afterwards would be taken as current, and
// the updates between the copy and the set would be gone. BackupPage and
// BackupNow are therefore serialized: here BackupNow waits out the held
// BackupPage instead of running beside it.
func TestBackupPageCannotStraddleBackupNow(t *testing.T) {
	defer chaos.Reset()
	const n = 300
	db := openTestDB(t, testOptions())
	defer db.Close()
	ix := loadIndex(t, db, "t", n)
	victim := findLeafOf(t, db, ix, k(n/2))
	held, release := make(chan struct{}), make(chan struct{})
	chaos.Arm("spf.backuppage", 1, func(chaos.Hit) {
		close(held)
		<-release
	})
	pageDone := make(chan error, 1)
	go func() { pageDone <- db.BackupPage(victim) }()
	<-held
	updateKey(t, db, ix, n/2, "after the copy")
	fullDone := make(chan error, 1)
	go func() {
		_, _, err := db.BackupNow()
		fullDone <- err
	}()
	// A BackupNow that waits shows nothing to wait on, so give one that
	// would run beside the held copy the time to finish first.
	select {
	case err := <-fullDone:
		fullDone <- err
	case <-time.After(200 * time.Millisecond):
	}
	close(release)
	if err := <-pageDone; err != nil {
		t.Fatal(err)
	}
	if err := <-fullDone; err != nil {
		t.Fatal(err)
	}
	if err := db.EvictPage(victim); err != nil {
		t.Fatal(err)
	}
	if err := db.CorruptPage(victim); err != nil {
		t.Fatal(err)
	}
	if got, err := ix.Get(k(n / 2)); err != nil || string(got) != "after the copy" {
		t.Fatalf("read through recovery: %q, %v", got, err)
	}
}

// crashWithChains opens a database that takes a page backup every `every`
// updates, loads n keys, takes a full backup and runs fill, which commits
// updates the pool keeps dirty — no write-back counts them, so each page's
// chain above the set lives only in the log — and then crashes it.
func crashWithChains(t *testing.T, every, n int, fill func(db *DB, ix *Index)) *DB {
	t.Helper()
	opts := testOptions()
	opts.BackupEveryNUpdates = every
	opts.clock = clock.NewManual() // never advanced: nothing forces the log behind a test's back
	db := openTestDB(t, opts)
	ix := loadIndex(t, db, "t", n)
	if _, _, err := db.BackupNow(); err != nil {
		t.Fatal(err)
	}
	fill(db, ix)
	db.Crash()
	return db
}

// TestRepairBacksUpALongChain: a repair that replays N or more records
// copies the page it rebuilt and installs the copy as the page's backup, so
// the page's next repair replays nothing; a repair that replays fewer takes
// no copy.
func TestRepairBacksUpALongChain(t *testing.T) {
	const every, n = 8, 200
	var long, short PageID
	db, _ := restartDrained(t, crashWithChains(t, every, n, func(db *DB, ix *Index) {
		long, short = findLeafOf(t, db, ix, k(0)), findLeafOf(t, db, ix, k(n-1))
		if long == short {
			t.Fatal("the first and last key share a leaf")
		}
		for i := 0; i < every; i++ {
			updateKey(t, db, ix, 0, fmt.Sprintf("long-%02d", i))
		}
		for i := 0; i < every-1; i++ {
			updateKey(t, db, ix, n-1, fmt.Sprintf("short-%02d", i))
		}
	}))
	ix, err := db.Index("t")
	if err != nil {
		t.Fatal(err)
	}
	e, err := db.pri.Get(long)
	if err != nil {
		t.Fatal(err)
	}
	if !isCopy(e.Backup) || e.Backup.AsOf != e.LastLSN {
		t.Fatalf("page rebuilt from %d records is backed by %+v, want a copy as of LSN %d", every, e.Backup, e.LastLSN)
	}
	if b := backupOf(t, db, short); b.Kind != core.BackupFull {
		t.Fatalf("page rebuilt from %d records is backed by %+v, want the full set", every-1, b)
	}
	if rep := recoverNow(t, db, long); rep.BackupKind != core.BackupLog || rep.RecordsApplied != 0 {
		t.Fatalf("repair after the copy: %+v; want the copy and nothing to replay", rep)
	}
	if rep := recoverNow(t, db, short); rep.BackupKind != core.BackupFull || rep.RecordsApplied != every-1 {
		t.Fatalf("repair without a copy: %+v; want the full set and %d records", rep, every-1)
	}
	for i, want := range map[int]string{0: fmt.Sprintf("long-%02d", every-1), n - 1: fmt.Sprintf("short-%02d", every-2)} {
		if got, err := ix.Get(k(i)); err != nil || string(got) != want {
			t.Fatalf("key %d after the repairs: %q, %v; want %q", i, got, err, want)
		}
	}
}

// TestMediaRestoreReplaysNothingTheRestartReplayed: a restart drain that
// rebuilds every page the crash left stale, each from N or more records,
// backs each up as rebuilt; a device failure next restores every page from
// those copies and the full set without replaying a record, and every key
// reads back its last committed value.
func TestMediaRestoreReplaysNothingTheRestartReplayed(t *testing.T) {
	const every, n = 8, 200
	stale := map[PageID]bool{}
	db, _ := restartDrained(t, crashWithChains(t, every, n, func(db *DB, ix *Index) {
		for i := 0; i < n; i++ {
			stale[findLeafOf(t, db, ix, k(i))] = true
		}
		for gen := 0; gen < every; gen++ {
			rewriteAll(t, db, ix, n, gen)
		}
	}))
	if m := db.Metrics().Recovery; m.Recoveries < int64(len(stale)) || m.RecordsApplied < int64(every*len(stale)) {
		t.Fatalf("the restart drain rebuilt %+v; want %d pages from %d records or more each", m, len(stale), every)
	}
	for id := range stale {
		if b := backupOf(t, db, id); !isCopy(b) {
			t.Fatalf("page %d, rebuilt by the restart, is backed by %+v; want its copy", id, b)
		}
	}
	db.FailDevice()
	mdb, _, err := db.RecoverMedia()
	if err != nil {
		t.Fatal(err)
	}
	defer mdb.Close()
	mdb.DrainRestore()
	if m := mdb.Metrics().Recovery; m.Recoveries < int64(len(stale)) || m.RecordsApplied != 0 || m.Escalations != 0 {
		t.Fatalf("media restore: %+v; want every page restored with no record replayed", m)
	}
	mix, err := mdb.Index("t")
	if err != nil {
		t.Fatal(err)
	}
	expectGeneration(t, mix, n, every-1)
}
