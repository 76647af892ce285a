package spf

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/buffer"
	"repro/internal/clock"
	"repro/internal/core"
)

// namedImagesReadable fails unless every log-held image the index of db
// names still reads back as the page's backup.
func namedImagesReadable(t *testing.T, db *DB) {
	t.Helper()
	db.pri.ForEachRange(func(lo, hi PageID, e core.Entry) bool {
		if e.Backup.Kind != core.BackupLog {
			return true
		}
		for id := lo; id <= hi; id++ {
			if _, err := db.res.FetchBackup(e.Backup, id); err != nil {
				t.Fatalf("page %d: the index names the image at LSN %d: %v", id, e.Backup.Loc, err)
			}
		}
		return true
	})
}

// cutN is how many keys the databases of the cut-copy tests hold.
const cutN = 200

// copySource takes a copy of page victim on a database whose index names a
// full set for it, and returns the database holding the copy — db, or one
// it restarted into — and how many of victim's records the set lacks once
// the copy is taken. The copy's record is the last the log holds, and
// nothing forces it.
type copySource func(t *testing.T, db *DB, ix *Index, victim PageID) (*DB, int)

// cutCopy is a copy a crash cut, seen from the database restarted after it.
type cutCopy struct {
	db     *DB            // restarted and drained
	victim PageID         // the page copied
	old    core.BackupRef // victim's backup before the copy
	replay int            // how many of victim's records old lacks
	slots  int            // backup-device slots written before the copy
}

// crashCopy loads cutN keys under a policy of a copy every every updates,
// takes a full backup, has copy take a copy of the leaf holding the middle
// key, checks that the copy's record is volatile, crashes, and restarts
// and drains.
func crashCopy(t *testing.T, every int, copy copySource) cutCopy {
	t.Helper()
	opts := testOptions()
	opts.BackupEveryNUpdates = every
	opts.clock = clock.NewManual() // never advanced: nothing forces the log behind the test's back
	db := openTestDB(t, opts)
	ix := loadIndex(t, db, "t", cutN)
	if _, _, err := db.BackupNow(); err != nil {
		t.Fatal(err)
	}
	c := cutCopy{victim: findLeafOf(t, db, ix, k(cutN/2)), slots: db.store.Device().WrittenSlots()}
	c.old = backupOf(t, db, c.victim)
	db, c.replay = copy(t, db, ix, c.victim)
	cp := backupOf(t, db, c.victim)
	if !isCopy(cp) || LSN(cp.Loc) < db.log.FlushedLSN() {
		t.Fatalf("index names %+v with the log flushed to %d; want a copy whose record is volatile", cp, db.log.FlushedLSN())
	}
	db.Crash()
	c.db, _ = restartDrained(t, db)
	return c
}

// resolvesAgainstOld: the restarted index names the page's previous
// backup, and the page resolves against it — the full set and every record
// above it — to its committed value. Nothing had freed that backup: the
// copy's registration never reached a durable index.
func resolvesAgainstOld(t *testing.T, c cutCopy) {
	t.Helper()
	if got := backupOf(t, c.db, c.victim); got != c.old {
		t.Fatalf("restarted index names %+v, want the previous backup %+v", got, c.old)
	}
	rep, err := c.db.RecoverPageNow(c.victim)
	if err != nil || rep.BackupKind != c.old.Kind || rep.RecordsApplied != c.replay {
		t.Fatalf("recovery %+v, %v; want %v and the %d records above it", rep, err, c.old.Kind, c.replay)
	}
	rix, err := c.db.Index("t")
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("cut-%02d", c.replay-1)
	if got, err := rix.Get(k(cutN / 2)); err != nil || string(got) != want {
		t.Fatalf("read after the crash: %q, %v; want %q", got, err, want)
	}
	if m := c.db.Metrics(); m.Recovery.Escalations != 0 || m.Pool.Escalations != 0 {
		t.Fatalf("escalations after the crash: %+v %+v", m.Recovery, m.Pool)
	}
}

// TestCopyCutByACrash: a page copy whose record a crash cut leaves the page
// resolving against its previous backup (resolvesAgainstOld). One leg per
// source of copies outside repair: the write-back under the policy and an
// explicit BackupPage. TestRepairCopyCutByACrash is the repair's.
func TestCopyCutByACrash(t *testing.T) {
	for _, leg := range []struct {
		name  string
		every int
		copy  copySource
	}{
		{"policy", 4, func(t *testing.T, db *DB, ix *Index, victim PageID) (*DB, int) {
			for i := 0; i < 4; i++ {
				updateKey(t, db, ix, cutN/2, fmt.Sprintf("cut-%02d", i))
			}
			if err := db.EvictPage(victim); err != nil { // its write-back takes the copy
				t.Fatal(err)
			}
			return db, 4
		}},
		{"explicit", -1, func(t *testing.T, db *DB, ix *Index, victim PageID) (*DB, int) {
			for i := 0; i < 3; i++ {
				updateKey(t, db, ix, cutN/2, fmt.Sprintf("cut-%02d", i))
			}
			if err := db.BackupPage(victim); err != nil {
				t.Fatal(err)
			}
			return db, 3
		}},
	} {
		t.Run(leg.name, func(t *testing.T) {
			resolvesAgainstOld(t, crashCopy(t, leg.every, leg.copy))
		})
	}
}

// repairCopy is the copySource of a repair that replayed eight records
// under a policy of a copy every eight updates. Seven updates are written
// back, then a restart starts every count at zero: the eighth update's
// write-back counts one and takes no copy, so the repair after it replays
// eight records and takes one.
func repairCopy(t *testing.T, db *DB, ix *Index, victim PageID) (*DB, int) {
	for i := 0; i < 7; i++ {
		updateKey(t, db, ix, cutN/2, fmt.Sprintf("cut-%02d", i))
	}
	if err := db.FlushAll(); err != nil {
		t.Fatal(err)
	}
	db.log.FlushAll()
	db.Crash()
	rdb, _ := restartDrained(t, db)
	rix, err := rdb.Index("t")
	if err != nil {
		t.Fatal(err)
	}
	updateKey(t, rdb, rix, cutN/2, "cut-07")
	if err := rdb.EvictPage(victim); err != nil {
		t.Fatal(err)
	}
	rdb.log.FlushAll()
	if err := rdb.CorruptPage(victim); err != nil {
		t.Fatal(err)
	}
	if got, err := rix.Get(k(cutN / 2)); err != nil || string(got) != "cut-07" {
		t.Fatalf("read through the repair: %q, %v", got, err)
	}
	return rdb, 8
}

// TestRepairCopyCutByACrash: the copy a repair takes of a page it rebuilt
// from a long chain, cut by a crash, leaves the page resolving against its
// previous backup (resolvesAgainstOld).
func TestRepairCopyCutByACrash(t *testing.T) {
	resolvesAgainstOld(t, crashCopy(t, 8, repairCopy))
}

// TestRepairCopyCutByACrashIsFreed: a repair's copy that a crash cut
// leaves nothing behind. It took no slot on the backup device, and after
// the restart, its drain and a full backup the device holds exactly one
// image per page, while every key reads back its committed value.
func TestRepairCopyCutByACrashIsFreed(t *testing.T) {
	c := crashCopy(t, 8, repairCopy)
	if got := c.db.store.Device().WrittenSlots(); got != c.slots {
		t.Fatalf("backup device holds %d images after the cut copy, %d before it", got, c.slots)
	}
	if _, _, err := c.db.BackupNow(); err != nil {
		t.Fatal(err)
	}
	if got := c.db.store.Device().WrittenSlots(); got != c.db.PageMapLen() {
		t.Fatalf("backup device holds %d images for %d pages after restart, drain and a full backup", got, c.db.PageMapLen())
	}
	namedImagesReadable(t, c.db)
	ix, err := c.db.Index("t")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cutN; i++ {
		want := v(i)
		if i == cutN/2 {
			want = []byte("cut-07")
		}
		if got, err := ix.Get(k(i)); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("key %d: %q, %v; want %q", i, got, err, want)
		}
	}
}

// TestCopiesBesideCheckpointsAndBackupsSurviveACrash races every source of
// backup copies — write-backs under a policy of one copy every 4 updates,
// BackupPage — against the checkpoints whose sweeps free them and the full
// backups that supersede them, then crashes. After restart and drain every
// page is rebuilt from the backup the index names: each key reads its last
// acknowledged value, and no repair escalates.
func TestCopiesBesideCheckpointsAndBackupsSurviveACrash(t *testing.T) {
	const n, writers, commits = 400, 2, 400
	opts := testOptions()
	opts.BackupEveryNUpdates = 4
	opts.clock = clock.NewManual()
	db := openTestDB(t, opts)
	ix := loadIndex(t, db, "t", n)
	if _, _, err := db.BackupNow(); err != nil {
		t.Fatal(err)
	}
	acked := make([][]byte, n)
	for i := range acked {
		acked[i] = v(i)
	}
	stop := make(chan struct{})
	var errMu sync.Mutex
	var firstErr error
	fail := func(err error) {
		errMu.Lock()
		defer errMu.Unlock()
		if firstErr == nil {
			firstErr = err
		}
	}
	var bg, wg sync.WaitGroup
	var runs [3]atomic.Int64
	loop := func(name string, runs *atomic.Int64, op func(r *rand.Rand) error) {
		bg.Add(1)
		go func() {
			defer bg.Done()
			r := rand.New(rand.NewSource(int64(len(name))))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := op(r); err != nil {
					fail(fmt.Errorf("%s: %w", name, err))
					return
				}
				runs.Add(1)
			}
		}()
	}
	loop("BackupPage", &runs[0], func(r *rand.Rand) error {
		pages := db.Pages()
		return db.BackupPage(pages[r.Intn(len(pages))])
	})
	loop("Checkpoint", &runs[1], func(*rand.Rand) error { _, err := db.Checkpoint(); return err })
	loop("BackupNow", &runs[2], func(*rand.Rand) error { _, _, err := db.BackupNow(); return err })
	var leaves [writers]PageID
	for w := range leaves {
		leaves[w] = findLeafOf(t, db, ix, k(w))
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for c := 0; c < commits; c++ {
				tx := db.Begin()
				keys := map[int][]byte{}
				for u := 0; u < 4; u++ {
					i := w + writers*r.Intn(n/writers) // each writer owns its keys
					keys[i] = []byte(fmt.Sprintf("w%d-c%03d-u%d", w, c, u))
					if err := ix.Update(tx, k(i), keys[i]); err != nil {
						fail(err)
						return
					}
				}
				if err := db.Commit(tx); err != nil {
					fail(err)
					return
				}
				for i, val := range keys {
					acked[i] = val
				}
				if c%8 == 0 {
					if err := db.EvictPage(leaves[w]); err != nil && !errors.Is(err, buffer.ErrPinned) {
						fail(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	bg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	t.Logf("beside %d commits: %d BackupPage, %d Checkpoint, %d BackupNow",
		writers*commits, runs[0].Load(), runs[1].Load(), runs[2].Load())
	db.Crash()
	ndb, _ := restartDrained(t, db)
	namedImagesReadable(t, ndb)
	// Every page goes bad, so every read rebuilds its page from a backup.
	if err := ndb.FlushAll(); err != nil {
		t.Fatal(err)
	}
	for _, id := range ndb.Pages() {
		if err := ndb.EvictPage(id); err != nil {
			t.Fatal(err)
		}
		if err := ndb.CorruptPage(id); err != nil && !errors.Is(err, ErrNoSlot) {
			t.Fatal(err)
		}
	}
	ix2, err := ndb.Index("t")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got, err := ix2.Get(k(i)); err != nil || !bytes.Equal(got, acked[i]) {
			t.Fatalf("key %d: %q, %v; want %q", i, got, err, acked[i])
		}
	}
	if m := ndb.Metrics(); m.Recovery.Escalations != 0 || m.Recovery.Recoveries == 0 {
		t.Fatalf("repairs after the crash: %+v", m.Recovery)
	}
}
