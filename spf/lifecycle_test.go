package spf

import (
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
)

// lifecycleOptions returns engine options with the log lifecycle on in
// deterministic (manual-step) mode and a tiny run granularity, so short
// tests cross the live/archive boundary many times.
func lifecycleOptions() Options {
	opts := testOptions()
	opts.Lifecycle = LifecycleOptions{
		Enabled:      true,
		SegmentBytes: 4 << 10,
	}
	opts.clock = clock.NewManual() // never advanced: ArchiveNow and BackupNow only
	return opts
}

// churn rewrites every key round times, checkpointing after each round so
// the redo horizon keeps advancing past the rewritten history.
func churn(t *testing.T, db *DB, ix *Index, n, rounds int) {
	t.Helper()
	for r := 0; r < rounds; r++ {
		tx := db.Begin()
		for i := 0; i < n; i++ {
			if err := ix.Update(tx, k(i), v(i)); err != nil {
				t.Fatalf("round %d update %d: %v", r, i, err)
			}
		}
		if err := db.Commit(tx); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
}

// longestChainPage picks the page whose repair replays the most history:
// the longest per-page chain from the page's current LSN down to its
// backup, walked through the live log and the archive alike.
func longestChainPage(t *testing.T, db *DB) PageID {
	t.Helper()
	var victim PageID
	best := 0
	for _, id := range db.Pages() {
		h, err := db.pool.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		h.RLock()
		head := h.Page().LSN()
		h.RUnlock()
		h.Release()
		e, err := db.pri.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		chain, err := db.log.WalkPageChain(head, db.res.BackupLSN(e.Backup, id), id)
		if err != nil {
			t.Fatalf("page %d: %v", id, err)
		}
		if len(chain) > best {
			victim, best = id, len(chain)
		}
	}
	if best == 0 {
		t.Fatal("no page has a chain")
	}
	return victim
}

// corruptAndVerify damages the victim's stored image and then reads every
// key back: the read path must detect the single-page failure and repair
// it (from backup plus per-page chain, wherever that chain now lives).
func corruptAndVerify(t *testing.T, db *DB, ix *Index, victim PageID, n int) {
	t.Helper()
	if err := db.EvictPage(victim); err != nil {
		t.Fatal(err)
	}
	if err := db.CorruptPage(victim); err != nil {
		t.Fatal(err)
	}
	expectValues(t, ix, n)
}

// TestLifecycleRepairAcrossTruncationBoundary is the tentpole invariant:
// a page whose chain spans recycled segments repairs identically before
// and after truncation, including through a transient archive fault.
func TestLifecycleRepairAcrossTruncationBoundary(t *testing.T) {
	const n = 300
	opts := lifecycleOptions()
	opts.BackupEveryNUpdates = -1 // the churned chains stay above the full backup
	db := openTestDB(t, opts)
	defer db.Close()
	ix := loadIndex(t, db, "t", n)
	if _, _, err := db.BackupNow(); err != nil {
		t.Fatal(err)
	}
	churn(t, db, ix, n, 6)

	victim := longestChainPage(t, db)
	// Before truncation: the whole chain is live.
	corruptAndVerify(t, db, ix, victim, n)

	// Archive and recycle. The chain now spans the boundary (its tail is
	// archived; the repair's own recovery records are new live history).
	if err := db.ArchiveNow(); err != nil {
		t.Fatal(err)
	}
	logStats := db.LogManager().Stats()
	if logStats.TruncatedLSN == 0 {
		t.Fatal("lifecycle step did not truncate the live log")
	}
	as := db.Metrics().Archive
	if as.Runs == 0 || as.RecordsArchived == 0 {
		t.Fatalf("no archive runs written: %+v", as)
	}

	// After truncation: same corruption, same repair, served partly from
	// the archive.
	corruptAndVerify(t, db, ix, victim, n)
	if got := db.LogManager().Stats().ArchiveReads; got == 0 {
		t.Error("post-truncation repair read nothing from the archive")
	}

	// Transient archive read fault: the retrying reader absorbs it.
	db.Archive().FailReads(2)
	corruptAndVerify(t, db, ix, victim, n)
	if got := db.Metrics().Archive.Retries; got == 0 {
		t.Error("transient archive fault was not retried")
	}
}

// TestAbortCutByACrashRollsBackAgain: a rolled-back transaction whose abort
// record a crash cut is a loser again at restart, and its rollback reads its
// update records. A full backup's horizon passes them, so the archive keeps
// them only while the abort record is unstable; a release between the abort
// and the crash must not drop them.
func TestAbortCutByACrashRollsBackAgain(t *testing.T) {
	const n = 300
	db := openTestDB(t, lifecycleOptions())
	ix := loadIndex(t, db, "t", n)
	tx := db.Begin()
	for i := 0; i < n; i += 3 {
		if err := ix.Update(tx, k(i), genValue(1, i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := db.BackupNow(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := db.ArchiveNow(); err != nil {
		t.Fatal(err)
	}
	db.Crash()
	rdb, _, err := db.Restart()
	if err != nil {
		t.Fatalf("restart after the abort: %v", err)
	}
	defer rdb.Close()
	expectIndexes(t, reopened(t, rdb, []*Index{ix}), n, -1)
}

// TestLifecycleSurvivesCrashRestart crashes after truncation and verifies
// restart analysis, acked commits, and post-restart boundary repairs.
func TestLifecycleSurvivesCrashRestart(t *testing.T) {
	const n = 200
	db := openTestDB(t, lifecycleOptions())
	ix := loadIndex(t, db, "t", n)
	if _, _, err := db.BackupNow(); err != nil {
		t.Fatal(err)
	}
	churn(t, db, ix, n, 4)
	if err := db.ArchiveNow(); err != nil {
		t.Fatal(err)
	}
	if db.LogManager().Stats().TruncatedLSN == 0 {
		t.Fatal("no truncation before crash")
	}
	// Acked history after the truncation, then crash with it unflushed in
	// part: restart must recover every acked commit from master-forward
	// live log — analysis never needs recycled history.
	tx := db.Begin()
	for i := 0; i < n; i++ {
		if err := ix.Update(tx, k(i), []byte("post-truncate")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Commit(tx); err != nil {
		t.Fatal(err)
	}
	db.Crash()
	ndb, _, err := db.Restart()
	if err != nil {
		t.Fatalf("restart over a truncated log: %v", err)
	}
	defer ndb.Close()
	nix, err := ndb.Index("t")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		got, err := nix.Get(k(i))
		if err != nil {
			t.Fatalf("get %d after restart: %v", i, err)
		}
		if string(got) != "post-truncate" {
			t.Fatalf("key %d = %q after restart, want acked value", i, got)
		}
	}
	// The inherited archive still serves the recovered DB's repairs.
	victim := longestChainPage(t, ndb)
	if err := ndb.EvictPage(victim); err != nil {
		t.Fatal(err)
	}
	if err := ndb.CorruptPage(victim); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := nix.Get(k(i)); err != nil {
			t.Fatalf("post-restart repair: get %d: %v", i, err)
		}
	}
}

// TestLifecycleReleasesArchivedHistory drives the full pipeline — archive,
// recycle, back up, release — and checks the archive is itself bounded.
func TestLifecycleReleasesArchivedHistory(t *testing.T) {
	const n = 200
	db := openTestDB(t, lifecycleOptions())
	defer db.Close()
	ix := loadIndex(t, db, "t", n)
	if _, _, err := db.BackupNow(); err != nil {
		t.Fatal(err)
	}
	churn(t, db, ix, n, 4)
	if err := db.ArchiveNow(); err != nil {
		t.Fatal(err)
	}
	if db.Metrics().Archive.Runs == 0 {
		t.Fatal("nothing archived")
	}
	// A fresh full backup set supersedes the archived chains below it; the
	// next step garbage-collects them.
	if _, _, err := db.BackupNow(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.ArchiveNow(); err != nil {
		t.Fatal(err)
	}
	as := db.Metrics().Archive
	if as.ReleasedRuns == 0 {
		t.Fatalf("no archived history released after a newer backup set: %+v", as)
	}
	if as.ReleasedLSN == 0 {
		t.Error("release horizon never advanced")
	}
	// Everything still reads clean after release, and fresh history keeps
	// repairing normally on top of the released archive.
	expectValues(t, ix, n)
	churn(t, db, ix, n, 1)
	victim := longestChainPage(t, db)
	corruptAndVerify(t, db, ix, victim, n)
}

// TestLifecyclePausesOnArchiveFault checks graceful degradation: a sticky
// archive write fault pauses recycling (the live log grows, the gauge
// says so), and recovery of the device resumes the lifecycle.
func TestLifecyclePausesOnArchiveFault(t *testing.T) {
	const n = 150
	opts := lifecycleOptions()
	var degraded, recovered bool
	opts.Lifecycle.Logf = func(format string, args ...any) {
		if strings.Contains(format, "unavailable") {
			degraded = true
		} else {
			recovered = true
		}
	}
	db := openTestDB(t, opts)
	defer db.Close()
	ix := loadIndex(t, db, "t", n)
	churn(t, db, ix, n, 2)

	db.Archive().FailWrites(-1)
	base := db.LogManager().TruncatedLSN()
	if err := db.ArchiveNow(); err == nil {
		t.Fatal("faulted lifecycle step reported success")
	}
	if !db.ArchivePaused() {
		t.Fatal("archiver not paused after sticky write fault")
	}
	if !db.Metrics().Archive.Paused {
		t.Error("pause gauge not surfaced in metrics")
	}
	if db.LogManager().TruncatedLSN() != base {
		t.Error("recycling advanced while archive unavailable")
	}
	if !degraded {
		t.Error("degradation log line not emitted")
	}

	// The engine keeps serving reads and writes throughout the outage.
	churn(t, db, ix, n, 1)
	expectValues(t, ix, n)

	db.Archive().FailWrites(0)
	if err := db.ArchiveNow(); err != nil {
		t.Fatalf("lifecycle step after device recovery: %v", err)
	}
	if db.ArchivePaused() {
		t.Error("archiver still paused after recovery")
	}
	if !recovered {
		t.Error("recovery log line not emitted")
	}
	if db.LogManager().TruncatedLSN() == base {
		t.Error("recycling did not resume after recovery")
	}
}

// The rule without the archive: a full backup frees the live log below the
// position its set is as of — clamped by the checkpoint redo horizon, the
// oldest active transaction's begin and log-backed backup references —
// because no recovery reads below it again. Each scenario recovers across
// that truncation on both engines, with the full set as the only backup
// and with §6's page backups taken at write-back beside it.

// noArchiveIndexes opens a database without the log archive, taking a page
// backup every backupEvery updates (none when negative), and loads n keys
// into a B-tree and a hash index.
func noArchiveIndexes(t *testing.T, backupEvery, n int) (*DB, []*Index) {
	t.Helper()
	opts := testOptions()
	opts.BackupEveryNUpdates = backupEvery
	db := openTestDB(t, opts)
	return db, []*Index{loadIndexKind(t, db, "b", KindBTree, n), loadIndexKind(t, db, "h", KindHash, n)}
}

// backupPassing takes a full backup and checks that it recycled the live
// log up to at least lsn before returning.
func backupPassing(t *testing.T, db *DB, lsn LSN) {
	t.Helper()
	if _, _, err := db.BackupNow(); err != nil {
		t.Fatal(err)
	}
	if got := db.log.TruncatedLSN(); got < lsn {
		t.Fatalf("the backup left the log truncated at %d, below %d", got, lsn)
	}
}

// backedUpWithoutArchive loads n keys without the log archive, backs them
// up, and moves every key on twice: to generation 1, then past a checkpoint
// and a lifecycle step — so only the backup horizon holds the log — to
// generation 2, which the pool still holds dirty.
func backedUpWithoutArchive(t *testing.T, backupEvery, n int) (*DB, []*Index) {
	t.Helper()
	db, ixs := noArchiveIndexes(t, backupEvery, n)
	backupPassing(t, db, db.log.EndLSN())
	for _, ix := range ixs {
		rewriteAll(t, db, ix, n, 1)
	}
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.ArchiveNow(); err != nil {
		t.Fatal(err)
	}
	for _, ix := range ixs {
		rewriteAll(t, db, ix, n, 2)
	}
	return db, ixs
}

// expectIndexes reads every key of every index back at generation gen (the
// loaded value when gen < 0) and verifies each index.
func expectIndexes(t *testing.T, ixs []*Index, n, gen int) {
	t.Helper()
	for _, ix := range ixs {
		if gen < 0 {
			expectValues(t, ix, n)
		} else {
			expectGeneration(t, ix, n, gen)
		}
		if viols, err := ix.Verify(); err != nil || len(viols) != 0 {
			t.Fatalf("%v index: verify: %v %v", ix.Kind(), viols, err)
		}
	}
}

// reopened returns ixs' counterparts in a recovered database.
func reopened(t *testing.T, db *DB, ixs []*Index) []*Index {
	t.Helper()
	out := make([]*Index, len(ixs))
	for i, ix := range ixs {
		nix, err := db.Index(ix.eng.Name())
		if err != nil {
			t.Fatal(err)
		}
		out[i] = nix
	}
	return out
}

func TestBackupTruncatesWithoutArchive(t *testing.T) {
	const n = 300
	for _, leg := range []struct {
		name        string
		backupEvery int
	}{{"in-place", -1}, {"in-place+page-backups", 20}} {
		name, backupEvery := leg.name, leg.backupEvery
		t.Run(name+"/recover-every-page", func(t *testing.T) {
			db, ixs := backedUpWithoutArchive(t, backupEvery, n)
			defer db.Close()
			applied, pageBackups := 0, 0
			for _, id := range db.Pages() {
				if e, err := db.pri.Get(id); err == nil && isCopy(e.Backup) {
					pageBackups++
				}
				rep, err := db.RecoverPageNow(id)
				if err != nil {
					t.Fatalf("page %d: %v", id, err)
				}
				applied += rep.RecordsApplied
			}
			if backupEvery < 0 && applied == 0 {
				t.Fatal("no page replayed any history since the backup")
			}
			if backupEvery > 0 && pageBackups == 0 {
				t.Fatal("no page recovered from a page backup")
			}
			expectIndexes(t, ixs, n, 2)
		})

		t.Run(name+"/crash-restart", func(t *testing.T) {
			db, ixs := backedUpWithoutArchive(t, backupEvery, n)
			db.Crash()
			ndb, _, err := db.Restart()
			if err != nil {
				t.Fatalf("restart over the truncated log: %v", err)
			}
			defer ndb.Close()
			ndb.DrainRestore()
			expectIndexes(t, reopened(t, ndb, ixs), n, 2)
		})

		t.Run(name+"/media-recovery", func(t *testing.T) {
			db, ixs := backedUpWithoutArchive(t, backupEvery, n)
			db.FailDevice()
			ndb, _, err := db.RecoverMedia()
			if err != nil {
				t.Fatalf("media recovery over the truncated log: %v", err)
			}
			defer ndb.Close()
			ndb.DrainRestore()
			expectIndexes(t, reopened(t, ndb, ixs), n, 2)
		})

		// The floor: a transaction that began before the backup keeps its
		// records live, so it can still roll back after it.
		t.Run(name+"/abort-across-backup", func(t *testing.T) {
			db, ixs := noArchiveIndexes(t, backupEvery, n)
			defer db.Close()
			began := db.log.EndLSN()
			tx := db.Begin()
			for _, ix := range ixs {
				for i := 0; i < n; i += 3 {
					if err := ix.Update(tx, k(i), genValue(1, i)); err != nil {
						t.Fatal(err)
					}
				}
			}
			loaded := db.log.EndLSN()
			if _, _, err := db.BackupNow(); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := db.ArchiveNow(); err != nil {
				t.Fatal(err)
			}
			if got := db.log.TruncatedLSN(); got > began {
				t.Fatalf("log truncated at %d, past the active transaction's begin %d", got, began)
			}
			if err := tx.Abort(); err != nil {
				t.Fatalf("rollback after the backup: %v", err)
			}
			expectIndexes(t, ixs, n, -1)
			// Its end lifts the floor: the next step recycles the backup's span.
			if err := db.ArchiveNow(); err != nil {
				t.Fatal(err)
			}
			if got := db.log.TruncatedLSN(); got < loaded {
				t.Fatalf("log truncated at %d after the rollback, below %d", got, loaded)
			}
			for _, id := range db.Pages() {
				if _, err := db.RecoverPageNow(id); err != nil {
					t.Fatalf("page %d: %v", id, err)
				}
			}
			expectIndexes(t, ixs, n, -1)
		})

		// A page born after the set has its format record as its backup
		// until a page backup replaces it; the truncation must leave that
		// record and its chain readable.
		t.Run(name+"/born-after-set", func(t *testing.T) {
			db, ixs := noArchiveIndexes(t, backupEvery, n)
			backupPassing(t, db, db.log.EndLSN())
			inSet := make(map[PageID]bool)
			for _, id := range db.Pages() {
				inSet[id] = true
			}
			const more = 600
			tx := db.Begin()
			for _, ix := range ixs {
				for i := n; i < n+more; i++ {
					if err := ix.Insert(tx, k(i), v(i)); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := db.Commit(tx); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := db.ArchiveNow(); err != nil {
				t.Fatal(err)
			}
			born := 0
			for _, id := range db.Pages() {
				if inSet[id] {
					continue
				}
				born++
				e, err := db.pri.Get(id)
				if err != nil {
					t.Fatal(err)
				}
				if e.Backup.Kind != core.BackupLog || isCopy(e.Backup) && backupEvery < 0 {
					t.Fatalf("page %d born after the set is backed by %v, want its format record", id, e.Backup.Kind)
				}
				if _, err := db.RecoverPageNow(id); err != nil {
					t.Fatalf("page %d born after the set: %v", id, err)
				}
			}
			if born == 0 {
				t.Fatal("no page was born after the set")
			}
			db.FailDevice()
			ndb, rep, err := db.RecoverMedia()
			if err != nil {
				t.Fatalf("media recovery: %v", err)
			}
			defer ndb.Close()
			if rep.Media.LateBornPages != born {
				t.Fatalf("media recovery restored %d pages from format records, want %d", rep.Media.LateBornPages, born)
			}
			ndb.DrainRestore()
			expectIndexes(t, reopened(t, ndb, ixs), n+more, -1)
		})
	}
}
