package spf

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/backup"
	"repro/internal/core"
)

// TestBackupNowSkipsUnchangedPages proves the incremental path: a second
// BackupNow after a small update rewrites only the changed pages — the
// backup device's write counter grows by exactly the reported Written —
// while the skipped pages are shared with the previous set by reference.
func TestBackupNowSkipsUnchangedPages(t *testing.T) {
	db := openTestDB(t, testOptions())
	defer db.Close()
	const base = 400
	ix := loadIndex(t, db, "t", base)
	if err := db.FlushAll(); err != nil {
		t.Fatal(err)
	}

	set1, rep1, err := db.BackupNow()
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Skipped != 0 || rep1.Written != rep1.Pages || rep1.Pages == 0 {
		t.Fatalf("first backup should write everything: %+v", rep1)
	}

	// Touch a handful of keys — a few leaf pages at most.
	tx := db.Begin()
	for i := 0; i < 3; i++ {
		if err := ix.Update(tx, k(i), []byte("changed")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Commit(tx); err != nil {
		t.Fatal(err)
	}

	before := db.store.Device().Stats().Writes
	set2, rep2, err := db.BackupNow()
	if err != nil {
		t.Fatal(err)
	}
	delta := db.store.Device().Stats().Writes - before

	if rep2.Written+rep2.Skipped != rep2.Pages {
		t.Fatalf("report does not add up: %+v", rep2)
	}
	if rep2.Skipped == 0 {
		t.Fatalf("incremental backup skipped nothing: %+v", rep2)
	}
	if rep2.Written >= rep2.Pages/2 {
		t.Fatalf("3 updated keys rewrote %d of %d pages", rep2.Written, rep2.Pages)
	}
	if delta != int64(rep2.Written) {
		t.Fatalf("backup device saw %d writes, report says %d images written",
			delta, rep2.Written)
	}

	// Retention: BackupNow dropped the superseded set itself. Reference
	// counting kept the slots the incremental set shares — every page of
	// set2 still resolves — and freed only the images set2 rewrote.
	if _, err := db.store.SetPages(set1); !errors.Is(err, backup.ErrUnknownSet) {
		t.Fatalf("set %d still listed after BackupNow committed set %d: %v", set1, set2, err)
	}
	if got := db.store.Sets(); len(got) != 1 || got[0] != set2 {
		t.Fatalf("backup store lists sets %v, want [%d]", got, set2)
	}
	if got := db.store.Device().WrittenSlots(); got != rep2.Pages {
		t.Fatalf("backup device holds %d images for a live set of %d pages", got, rep2.Pages)
	}
	ids, err := db.store.SetPages(set2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != rep2.Pages {
		t.Fatalf("set2 lists %d pages, report says %d", len(ids), rep2.Pages)
	}
	ref := core.BackupRef{Kind: core.BackupFull, Loc: set2}
	for _, id := range ids {
		if _, err := db.res.FetchBackup(ref, id); err != nil {
			t.Fatalf("page %d unreadable from set %d after set %d was dropped: %v",
				id, set2, set1, err)
		}
	}

	// End to end: single-page recovery repairs corruption from the shared
	// images — the database is fully recoverable from the incremental set.
	for i, id := range ids {
		if i%3 == 0 {
			if err := db.CorruptPage(id); err != nil {
				t.Fatal(err)
			}
			if _, err := db.RecoverPageNow(id); err != nil {
				t.Fatalf("recovering page %d from incremental set: %v", id, err)
			}
		}
	}
	for i := 3; i < base; i += 37 {
		got, err := ix.Get(k(i))
		if err != nil || !bytes.Equal(got, v(i)) {
			t.Fatalf("key %d after recovery: %q, %v", i, got, err)
		}
	}
	if viols, err := ix.Verify(); err != nil || len(viols) != 0 {
		t.Fatalf("verify after recovery from incremental set: %v %v", viols, err)
	}
}

// TestBackupNowBoundsBackupDevice: however many backups are taken, the
// backup device holds the live set plus, while one is being written, the
// set in progress — and the last set alone restores the database. With a
// per-page backup policy on it holds nothing more: the policy's copies are
// log records, which take no backup slot.
func TestBackupNowBoundsBackupDevice(t *testing.T) {
	t.Run("full backups only", func(t *testing.T) { backupDeviceBound(t, -1) })
	t.Run("page backup policy", func(t *testing.T) { backupDeviceBound(t, 8) })
}

func backupDeviceBound(t *testing.T, backupEvery int) {
	const n = 400
	// The load is deterministic, so a dry run tells how many pages it
	// makes; the real run gets a backup device of exactly two sets, with
	// the policy on or off. A backup that left anything behind would then
	// find the store full.
	dry := openTestDB(t, testOptions())
	loadIndex(t, dry, "t", n)
	pages := dry.PageMapLen()
	dry.Close()

	opts := testOptions()
	opts.BackupSlots = 2 * pages
	opts.BackupEveryNUpdates = backupEvery
	db := openTestDB(t, opts)
	ix := loadIndex(t, db, "t", n)
	if db.PageMapLen() != pages {
		t.Fatalf("load made %d pages, dry run made %d", db.PageMapLen(), pages)
	}
	val := func(round, i int) []byte { return []byte(fmt.Sprintf("r%02d-%06d", round, i)) }
	const rounds = 20
	pageBackups := 0
	for round := 0; round < rounds; round++ {
		tx := db.Begin()
		for i := 0; i < n; i++ {
			if err := ix.Update(tx, k(i), val(round, i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Commit(tx); err != nil {
			t.Fatal(err)
		}
		if backupEvery > 0 {
			// The policy's page backups are taken at the checkpoint.
			if _, err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if round > 0 { // before the first full set there is nothing
				if held := db.store.Device().WrittenSlots(); held != pages {
					t.Fatalf("round %d: %d images before the backup; want one set (%d), the copies in the log",
						round, held, pages)
				}
			}
			for _, id := range db.Pages() {
				if e, err := db.pri.Get(id); err == nil && isCopy(e.Backup) {
					pageBackups++
				}
			}
		}
		set, rep, err := db.BackupNow()
		if err != nil {
			t.Fatal(err)
		}
		if got := db.store.Sets(); len(got) != 1 || got[0] != set {
			t.Fatalf("round %d: backup store lists sets %v, want [%d]", round, got, set)
		}
		if rep.Pages != pages {
			t.Fatalf("round %d: backup captured %d pages, database has %d", round, rep.Pages, pages)
		}
		// While the set was being written its predecessor was still live —
		// two sets at the peak — and one once the backup has returned: the
		// older set is gone.
		if got := db.store.Device().WrittenSlots(); got != pages {
			t.Fatalf("round %d: backup device holds %d images for %d pages", round, got, pages)
		}
	}
	if backupEvery > 0 && pageBackups == 0 {
		t.Fatal("the policy took no page backup; the bound was not exercised")
	}

	db.FailDevice()
	ndb, _, err := db.RecoverMedia()
	if err != nil {
		t.Fatalf("media recovery from the last set: %v", err)
	}
	defer ndb.Close()
	ix2, err := ndb.Index("t")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got, err := ix2.Get(k(i)); err != nil || !bytes.Equal(got, val(rounds-1, i)) {
			t.Fatalf("key %d after media recovery: %q, %v", i, got, err)
		}
	}
	if viols, err := ix2.Verify(); err != nil || len(viols) != 0 {
		t.Fatalf("verify after media recovery: %v %v", viols, err)
	}
}
