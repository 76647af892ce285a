package spf

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
)

// recoveryRows are the three ways a restart redoes: on demand behind the
// scheduler, by the forward scan with single-page recovery still armed but
// no PageLSN check to find a stale page, and by the forward scan of the
// paper's traditional baseline.
var recoveryRows = []struct {
	name string
	set  func(*Options)
}{
	{"instant", func(*Options) {}},
	{"no-pagelsn-check", func(o *Options) { o.DisablePageLSNCheck = true }},
	{"no-single-page-recovery", func(o *Options) { o.DisableSinglePageRecovery = true }},
}

// forEachRowAndEngine runs fn once per recovery row and index engine.
func forEachRowAndEngine(t *testing.T, fn func(t *testing.T, opts Options, kind IndexKind)) {
	for _, row := range recoveryRows {
		for _, kind := range []IndexKind{KindBTree, KindHash} {
			t.Run(fmt.Sprintf("%s/%v", row.name, kind), func(t *testing.T) {
				opts := testOptions()
				opts.PoolFrames = 512
				row.set(&opts)
				fn(t, opts, kind)
			})
		}
	}
}

// expectKeys reads back every listed key of ix and verifies the index.
func expectKeys(t *testing.T, ix *Index, keys []int) {
	t.Helper()
	for _, i := range keys {
		got, err := ix.Get(k(i))
		if err != nil || !bytes.Equal(got, v(i)) {
			t.Fatalf("acked key %d after restart: %q, %v", i, got, err)
		}
	}
	if viols, err := ix.Verify(); err != nil || len(viols) != 0 {
		t.Fatalf("verify: %v %v", viols, err)
	}
}

// TestCheckpointRacingCommitsLosesNothing: committers run beside a loop of
// checkpoints; after a crash every insert whose Commit returned nil must be
// read back. A checkpoint that is consistent only as of its end record
// loses the commits laid between its snapshots and that record, and an
// active-transaction table that still lists a transaction whose commit
// record is already in the log has restart undo it.
func TestCheckpointRacingCommitsLosesNothing(t *testing.T) {
	forEachRowAndEngine(t, func(t *testing.T, opts Options, kind IndexKind) {
		db := openTestDB(t, opts)
		ix := loadIndexKind(t, db, "t", kind, 200)

		const workers = 4
		var (
			wg    sync.WaitGroup
			stop  atomic.Bool
			mu    sync.Mutex
			acked []int
		)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; !stop.Load(); i++ {
					key := 1000 + w + workers*i
					tx := db.Begin()
					if err := ix.Insert(tx, k(key), v(key)); err != nil {
						t.Errorf("worker %d insert %d: %v", w, key, err)
						return
					}
					if err := db.Commit(tx); err != nil {
						t.Errorf("worker %d commit %d: %v", w, key, err)
						return
					}
					mu.Lock()
					acked = append(acked, key)
					mu.Unlock()
				}
			}(w)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if _, err := db.Checkpoint(); err != nil {
					t.Errorf("checkpoint: %v", err)
					return
				}
			}
		}()
		time.Sleep(30 * time.Millisecond)
		stop.Store(true)
		wg.Wait()

		db.Crash()
		ndb, _, err := db.Restart()
		if err != nil {
			t.Fatalf("restart: %v", err)
		}
		defer ndb.Close()
		ndb.DrainRestore()
		ix2, err := ndb.Index("t")
		if err != nil {
			t.Fatal(err)
		}
		expectValues(t, ix2, 200)
		expectKeys(t, ix2, acked)
	})
}

// TestCheckpointSnapshotWindowSurvivesRestart is the deterministic twin: a
// transaction commits — dirtying a page the checkpoint had just found
// clean — after the checkpoint took its snapshots and before it laid its
// end record. Neither the commit nor the update is in any snapshot, and
// both are below the end record; restart must find them all the same.
func TestCheckpointSnapshotWindowSurvivesRestart(t *testing.T) {
	forEachRowAndEngine(t, func(t *testing.T, opts Options, kind IndexKind) {
		defer chaos.Reset()
		db := openTestDB(t, opts)
		ix := loadIndexKind(t, db, "t", kind, 200)
		if err := db.FlushAll(); err != nil {
			t.Fatal(err)
		}

		const inWindow = 5000
		chaos.Arm("recovery.checkpoint.snapshot", 1, func(chaos.Hit) {
			tx := db.Begin()
			if err := ix.Insert(tx, k(inWindow), v(inWindow)); err != nil {
				t.Errorf("insert inside the window: %v", err)
				return
			}
			if err := db.Commit(tx); err != nil {
				t.Errorf("commit inside the window: %v", err)
			}
		})
		if _, err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if !chaos.Fired("recovery.checkpoint.snapshot") {
			t.Fatal("the checkpoint never passed its snapshot point")
		}

		db.Crash()
		ndb, _, err := db.Restart()
		if err != nil {
			t.Fatalf("restart: %v", err)
		}
		defer ndb.Close()
		ix2, err := ndb.Index("t")
		if err != nil {
			t.Fatal(err)
		}
		expectValues(t, ix2, 200)
		expectKeys(t, ix2, []int{inWindow})
	})
}

// TestCheckpointAcrossCrashReportsErrCrashed: a checkpoint the crash
// overtakes — before its snapshots or after them — must not lay its end
// record into the log the restarted database owns, nor point the master at
// it: it describes the dead incarnation's pool.
func TestCheckpointAcrossCrashReportsErrCrashed(t *testing.T) {
	for _, point := range []string{"recovery.checkpoint", "recovery.checkpoint.snapshot"} {
		t.Run(point, func(t *testing.T) {
			defer chaos.Reset()
			db := openTestDB(t, testOptions())
			loadIndex(t, db, "t", 300)
			master := db.LogManager().Master()

			chaos.Arm(point, 1, func(chaos.Hit) { db.Crash() })
			if _, err := db.Checkpoint(); !errors.Is(err, ErrCrashed) {
				t.Fatalf("checkpoint across a crash = %v, want ErrCrashed", err)
			}
			if got := db.LogManager().Master(); got != master {
				t.Fatalf("master moved %d -> %d under a checkpoint the crash overtook", master, got)
			}

			ndb, _, err := db.Restart()
			if err != nil {
				t.Fatalf("restart: %v", err)
			}
			defer ndb.Close()
			ix, err := ndb.Index("t")
			if err != nil {
				t.Fatal(err)
			}
			expectValues(t, ix, 300)
		})
	}
}

// TestMediaRecoveryKeepsNewerPageBackups: media recovery starts from the
// index analysis rebuilt, not from the full set alone. A page whose
// individual backup is newer than the set restores from that copy.
func TestMediaRecoveryKeepsNewerPageBackups(t *testing.T) {
	t.Run("page-backup", func(t *testing.T) {
		opts := testOptions()
		opts.PoolFrames = 512
		db := openTestDB(t, opts)
		ix := loadIndex(t, db, "t", 600)
		set, _, err := db.BackupNow()
		if err != nil {
			t.Fatal(err)
		}
		leaf := findLeafOf(t, db, ix, k(300))
		update := func(val []byte) {
			tx := db.Begin()
			if err := ix.Update(tx, k(300), val); err != nil {
				t.Fatal(err)
			}
			if err := db.Commit(tx); err != nil {
				t.Fatal(err)
			}
		}
		update([]byte("before the page backup"))
		if err := db.BackupPage(leaf); err != nil {
			t.Fatal(err)
		}
		update([]byte("after the page backup"))

		db.FailDevice()
		ndb, _, err := db.RecoverMedia()
		if err != nil {
			t.Fatalf("media recovery: %v", err)
		}
		defer ndb.Close()
		ndb.DrainRestore()
		e, err := ndb.PRI().Get(leaf)
		if err != nil || e.Backup.Kind != core.BackupPage {
			t.Fatalf("leaf %d resolves against %+v (%v), want its page backup, newer than set %d", leaf, e.Backup, err, set)
		}
		ix2, err := ndb.Index("t")
		if err != nil {
			t.Fatal(err)
		}
		if got, err := ix2.Get(k(300)); err != nil || string(got) != "after the page backup" {
			t.Fatalf("key 300 after media recovery: %q, %v", got, err)
		}
		if m := ndb.Metrics(); m.Restore.Failed != 0 || m.Recovery.Escalations != 0 {
			t.Fatalf("restore failed %d, escalations %d", m.Restore.Failed, m.Recovery.Escalations)
		}
	})
}

// TestBackupRacingWritesThenMediaRecovery: full backups, checkpoints and
// background write-back run beside committers; then the device is lost —
// directly, or after a crash and restart — and every acked update must come
// back. Media recovery takes each page's target from the analysed index, so
// a full backup must not reset the index LSN of a page written after the
// backup began (its image in the set may predate that write), and a
// completed-write record delivered late must not hide the image's own LSN.
func TestBackupRacingWritesThenMediaRecovery(t *testing.T) {
	const keys = 2000
	for iter := 0; iter < 4; iter++ {
		opts := testOptions()
		opts.PoolFrames = 512
		opts.Maintenance = MaintenanceOptions{Enabled: true, FlushInterval: time.Millisecond, FlushBatchPages: 8}
		db := openTestDB(t, opts)
		ix := loadIndex(t, db, "t", keys)
		if _, _, err := db.BackupNow(); err != nil {
			t.Fatal(err)
		}

		const workers = 4
		var (
			wg      sync.WaitGroup
			stop    atomic.Bool
			version [keys]atomic.Int64 // acked updates of each key
		)
		value := func(key int) []byte { return v(int(version[key].Load())*10000 + key) }
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; !stop.Load(); i++ {
					key := (i*28)%keys + w // workers own disjoint keys
					tx := db.Begin()
					next := v(int(version[key].Load()+1)*10000 + key)
					if err := ix.Update(tx, k(key), next); err != nil {
						t.Errorf("update %d: %v", key, err)
						return
					}
					if err := db.Commit(tx); err != nil {
						t.Errorf("commit %d: %v", key, err)
						return
					}
					version[key].Add(1)
				}
			}(w)
		}
		background := func(name string, op func() error) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					if err := op(); err != nil {
						t.Errorf("%s: %v", name, err)
						return
					}
				}
			}()
		}
		background("backup", func() error { _, _, err := db.BackupNow(); return err })
		background("checkpoint", func() error { _, err := db.Checkpoint(); return err })
		time.Sleep(40 * time.Millisecond)
		stop.Store(true)
		wg.Wait()

		if iter%2 == 1 {
			db.Crash()
			rdb, _, err := db.Restart()
			if err != nil {
				t.Fatalf("restart: %v", err)
			}
			db = rdb
		}
		db.FailDevice()
		ndb, _, err := db.RecoverMedia()
		if err != nil {
			t.Fatalf("media recovery: %v", err)
		}
		ndb.DrainRestore()
		ix2, err := ndb.Index("t")
		if err != nil {
			t.Fatal(err)
		}
		for key := 0; key < keys; key++ {
			if got, err := ix2.Get(k(key)); err != nil || !bytes.Equal(got, value(key)) {
				t.Fatalf("iter %d key %d after media recovery: %q, %v; want %q", iter, key, got, err, value(key))
			}
		}
		if m := ndb.Metrics(); m.Restore.Failed != 0 || m.Recovery.Escalations != 0 {
			t.Fatalf("restore failed %d, escalations %d", m.Restore.Failed, m.Recovery.Escalations)
		}
		ndb.Close()
	}
}
