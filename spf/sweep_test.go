package spf

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/chaos"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/storage"
)

// namedCopiesHeld fails unless every page copy the index of db names still
// holds its image on the backup device.
func namedCopiesHeld(t *testing.T, db *DB) {
	t.Helper()
	db.pri.ForEachRange(func(lo, _ PageID, e core.Entry) bool {
		if e.Backup.Kind == core.BackupPage && db.store.Device().RawImage(storage.PhysID(e.Backup.Loc)) == nil {
			t.Fatalf("page %d: the index names backup slot %d, which holds no image", lo, e.Backup.Loc)
		}
		return true
	})
}

// oneImagePerPage restarts the crashed db, drains the restart's backlog and
// takes a full backup. The backup device must then hold exactly one image
// per page — no copy whose index record the crash cut outlives them — and
// every key of index "t" must read back want(i).
func oneImagePerPage(t *testing.T, crashed *DB, n int, want func(i int) []byte) {
	t.Helper()
	db, _ := restartDrained(t, crashed)
	if _, _, err := db.BackupNow(); err != nil {
		t.Fatal(err)
	}
	if got := db.store.Device().WrittenSlots(); got != db.PageMapLen() {
		t.Fatalf("backup device holds %d images for %d pages after restart, drain and a full backup", got, db.PageMapLen())
	}
	ix, err := db.Index("t")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got, err := ix.Get(k(i)); err != nil || !bytes.Equal(got, want(i)) {
			t.Fatalf("key %d: %q, %v; want %q", i, got, err, want(i))
		}
	}
}

// TestRepairCopyCutByACrashIsFreed: a repair's copy whose index record a
// crash cuts is named by no index the log can rebuild; the restart's sweep
// frees it.
func TestRepairCopyCutByACrashIsFreed(t *testing.T) {
	defer chaos.Reset()
	const every, n = 8, 200
	crashed := crashWithChains(t, every, n, func(db *DB, ix *Index) {
		for i := 0; i < every; i++ {
			updateKey(t, db, ix, n/2, fmt.Sprintf("cut-%02d", i))
		}
	})
	// As in TestRepairCopyCutByACrash: the drain's copy is installed once
	// the restart, whose checkpoint forces the log, has returned.
	held, release := make(chan struct{}), make(chan struct{})
	chaos.Arm("spf.backupcopy", 1, func(chaos.Hit) {
		close(held)
		<-release
	})
	db, _, err := crashed.Restart()
	if err != nil {
		t.Fatal(err)
	}
	drained := make(chan struct{})
	go func() {
		db.DrainRestore()
		close(drained)
	}()
	select {
	case <-held:
		close(release)
		<-drained
	case <-drained:
		t.Fatal("the restart drain took no copy")
	}
	db.Crash()
	oneImagePerPage(t, db, n, func(i int) []byte {
		if i == n/2 {
			return []byte(fmt.Sprintf("cut-%02d", every-1))
		}
		return v(i)
	})
}

// TestPolicyCopyCutByACrashIsFreed: the copy a write-back takes under the
// backup policy, its index record cut by a crash, is freed by the restart.
func TestPolicyCopyCutByACrashIsFreed(t *testing.T) {
	const every, n = 4, 200
	opts := testOptions()
	opts.BackupEveryNUpdates = every
	opts.clock = clock.NewManual() // never advanced: nothing forces the log behind the test's back
	db := openTestDB(t, opts)
	ix := loadIndex(t, db, "t", n)
	if _, _, err := db.BackupNow(); err != nil {
		t.Fatal(err)
	}
	victim := findLeafOf(t, db, ix, k(n/2))
	for i := 0; i < every; i++ {
		updateKey(t, db, ix, n/2, fmt.Sprintf("policy-%d", i))
	}
	if err := db.EvictPage(victim); err != nil {
		t.Fatal(err)
	}
	if b := backupOf(t, db, victim); b.Kind != core.BackupPage {
		t.Fatalf("the write-back after %d updates left backup %+v, want a page copy", every, b)
	}
	db.Crash()
	oneImagePerPage(t, db, n, func(i int) []byte {
		if i == n/2 {
			return []byte(fmt.Sprintf("policy-%d", every-1))
		}
		return v(i)
	})
}

// TestBackupPageCutByACrashIsFreed: an explicit BackupPage whose index
// record a crash cuts is freed by the restart.
func TestBackupPageCutByACrashIsFreed(t *testing.T) {
	const n = 200
	opts := testOptions()
	opts.clock = clock.NewManual()
	db := openTestDB(t, opts)
	ix := loadIndex(t, db, "t", n)
	if _, _, err := db.BackupNow(); err != nil {
		t.Fatal(err)
	}
	if err := db.BackupPage(findLeafOf(t, db, ix, k(n/2))); err != nil {
		t.Fatal(err)
	}
	db.Crash()
	oneImagePerPage(t, db, n, v)
}

// TestCheckpointWaitsOutAnInstall: a checkpoint's sweep does not run
// between a copy's index update and its log record. Here the checkpoint's
// index snapshot names the page's first copy; a BackupPage installs a
// second one and holds before its record is laid, while the checkpoint
// goes on to sweep. A sweep that read the index then would free the first
// copy with nothing durable naming the second; the crash that follows
// would leave the restarted index naming a discarded slot.
func TestCheckpointWaitsOutAnInstall(t *testing.T) {
	defer chaos.Reset()
	const n = 200
	opts := testOptions()
	opts.clock = clock.NewManual()
	db := openTestDB(t, opts)
	ix := loadIndex(t, db, "t", n)
	victim := findLeafOf(t, db, ix, k(n/2))
	if err := db.BackupPage(victim); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	hold := func(point string) (held, release chan struct{}) {
		held, release = make(chan struct{}), make(chan struct{})
		chaos.Arm(point, 1, func(chaos.Hit) {
			close(held)
			<-release
		})
		return held, release
	}
	ckptHeld, ckptGo := hold("recovery.checkpoint.snapshot")
	ckptDone := make(chan error, 1)
	go func() {
		_, err := db.Checkpoint()
		ckptDone <- err
	}()
	<-ckptHeld
	installHeld, installGo := hold("spf.install")
	pageDone := make(chan error, 1)
	go func() { pageDone <- db.BackupPage(victim) }()
	<-installHeld
	close(ckptGo)
	// A checkpoint that waits shows nothing to wait on, so give one that
	// would sweep beside the held install the time to finish first.
	select {
	case err := <-ckptDone:
		ckptDone <- err
	case <-time.After(200 * time.Millisecond):
	}
	close(installGo)
	if err := <-pageDone; err != nil {
		t.Fatal(err)
	}
	if err := <-ckptDone; err != nil {
		t.Fatal(err)
	}
	db.Crash()
	ndb, _, err := db.Restart()
	if err != nil {
		t.Fatal(err)
	}
	defer ndb.Close()
	namedCopiesHeld(t, ndb)
	ix2, err := ndb.Index("t")
	if err != nil {
		t.Fatal(err)
	}
	corruptAndVerify(t, ndb, ix2, victim, n)
	if m := ndb.Metrics(); m.Recovery.Recoveries != 1 || m.Recovery.Escalations != 0 {
		t.Fatalf("recovery from the installed copy: %+v", m.Recovery)
	}
}

// TestRepairCopyHeldAcrossACheckpoint: a checkpoint that sweeps while a
// repair's copy is written but not yet installed keeps the copy, which the
// index names right after.
func TestRepairCopyHeldAcrossACheckpoint(t *testing.T) {
	defer chaos.Reset()
	const every, n = 8, 200
	crashed := crashWithChains(t, every, n, func(db *DB, ix *Index) {
		for i := 0; i < every; i++ {
			updateKey(t, db, ix, n/2, fmt.Sprintf("held-%02d", i))
		}
	})
	held, release := make(chan struct{}), make(chan struct{})
	chaos.Arm("spf.backupcopy", 1, func(chaos.Hit) {
		close(held)
		<-release
	})
	db, _, err := crashed.Restart()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	drained := make(chan struct{})
	go func() {
		db.DrainRestore()
		close(drained)
	}()
	select {
	case <-held:
	case <-drained:
		t.Fatal("the restart drain took no copy")
	}
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	close(release)
	<-drained
	namedCopiesHeld(t, db)
	ix, err := db.Index("t")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := ix.Get(k(n / 2)); err != nil || string(got) != fmt.Sprintf("held-%02d", every-1) {
		t.Fatalf("read after the drain: %q, %v", got, err)
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
	namedCopiesHeld(t, ndb)
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
