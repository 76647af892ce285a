package spf

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestGroupCommitBasic: with a commit window configured, concurrent
// commits coalesce into shared flushes and remain durable.
func TestGroupCommitBasic(t *testing.T) {
	opts := testOptions()
	opts.GroupCommitWindow = 2 * time.Millisecond
	opts.PoolFrames = 512
	db := openTestDB(t, opts)
	defer db.Close()

	const workers = 4
	const perWorker = 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		ix, err := db.CreateIndex(fmt.Sprintf("gc-%d", w))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(w int, ix *Index) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tx := db.Begin()
				if err := ix.Insert(tx, k(i), v(i)); err != nil {
					t.Errorf("worker %d insert %d: %v", w, i, err)
					return
				}
				if err := db.Commit(tx); err != nil {
					t.Errorf("worker %d commit %d: %v", w, i, err)
					return
				}
			}
		}(w, ix)
	}
	wg.Wait()

	s := db.Metrics()
	if s.Log.GroupCommitWaiters == 0 {
		t.Error("no commits went through the group path")
	}
	if s.Log.GroupCommitBatches > s.Log.GroupCommitWaiters {
		t.Errorf("batches %d > waiters %d", s.Log.GroupCommitBatches, s.Log.GroupCommitWaiters)
	}
	for w := 0; w < workers; w++ {
		ix, err := db.Index(fmt.Sprintf("gc-%d", w))
		if err != nil {
			t.Fatal(err)
		}
		expectValues(t, ix, perWorker)
	}
}

// TestGroupCommitDurabilityAcrossCrash is the commit-durability ordering
// stress: workers commit under group commit while the main goroutine
// crashes the database mid-flight. Every transaction whose Commit returned
// nil must be replayed by restart; transactions that reported
// ErrCommitLost (or any error) may or may not survive.
func TestGroupCommitDurabilityAcrossCrash(t *testing.T) {
	opts := testOptions()
	opts.GroupCommitWindow = 200 * time.Microsecond
	// Ample frames: no eviction pressure, so no write-back hooks race the
	// crash (a real system's crash kills its threads; simulated zombies
	// must not keep flushing pages).
	opts.PoolFrames = 4096
	opts.DataSlots = 16384
	db := openTestDB(t, opts)

	const workers = 4
	type committed struct {
		worker, seq int
	}
	var mu sync.Mutex
	durable := make(map[committed]bool)
	var stop atomic.Bool
	var wg sync.WaitGroup

	names := make([]string, workers)
	for w := 0; w < workers; w++ {
		names[w] = fmt.Sprintf("stress-%d", w)
		if _, err := db.CreateIndex(names[w]); err != nil {
			t.Fatal(err)
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ix, err := db.Index(names[w])
			if err != nil {
				t.Errorf("worker %d: %v", w, err)
				return
			}
			for seq := 0; !stop.Load(); seq++ {
				tx := db.Begin()
				if err := ix.Insert(tx, k(seq), v(seq)); err != nil {
					// Crash-time failures are expected; the txn is a loser.
					return
				}
				if err := db.Commit(tx); err != nil {
					if errors.Is(err, ErrCommitLost) || errors.Is(err, ErrCrashed) {
						return
					}
					t.Errorf("worker %d commit %d: %v", w, seq, err)
					return
				}
				mu.Lock()
				durable[committed{w, seq}] = true
				mu.Unlock()
			}
		}(w)
	}

	time.Sleep(25 * time.Millisecond)
	db.Crash()
	stop.Store(true)
	wg.Wait()

	ndb, _, err := db.Restart()
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer ndb.Close()
	if len(durable) == 0 {
		t.Fatal("no transaction committed before the crash; stress produced nothing to verify")
	}
	for c := range durable {
		ix, err := ndb.Index(names[c.worker])
		if err != nil {
			t.Fatalf("index %s lost: %v", names[c.worker], err)
		}
		got, err := ix.Get(k(c.seq))
		if err != nil {
			t.Errorf("durably committed key %d/%d missing after restart: %v", c.worker, c.seq, err)
			continue
		}
		if string(got) != string(v(c.seq)) {
			t.Errorf("key %d/%d = %q after restart", c.worker, c.seq, got)
		}
	}
}

// TestCommitAcrossCrashReportsLost: a transaction spanning a crash must
// not claim durability.
func TestCommitAcrossCrashReportsLost(t *testing.T) {
	db := openTestDB(t, testOptions())
	ix, err := db.CreateIndex("span")
	if err != nil {
		t.Fatal(err)
	}
	// Make the index creation durable; only the transaction below spans
	// the crash.
	db.LogManager().FlushAll()
	tx := db.Begin()
	if err := ix.Insert(tx, k(1), v(1)); err != nil {
		t.Fatal(err)
	}
	db.Crash()
	if err := db.Commit(tx); err == nil {
		t.Fatal("commit spanning a crash returned nil; its updates vanished with the tail")
	}
	ndb, _, err := db.Restart()
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer ndb.Close()
	ix2, err := ndb.Index("span")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix2.Get(k(1)); !errors.Is(err, ErrKeyNotFound) {
		t.Errorf("uncommitted insert visible after restart: %v", err)
	}
}

// TestCommitAcrossMediaFailureReportsLost: media recovery rolls back a
// transaction that spans the device failure, so its commit must not report
// durable. The commit record goes to the failed incarnation's sealed log,
// never to the log RecoverMedia took over, and neither the recovered
// database nor a restart of it shows the update.
func TestCommitAcrossMediaFailureReportsLost(t *testing.T) {
	db := openTestDB(t, testOptions())
	ix := loadIndex(t, db, "t", 100)
	if _, _, err := db.BackupNow(); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	if err := ix.Update(tx, k(1), []byte("spans the failure")); err != nil {
		t.Fatal(err)
	}
	db.FailDevice()
	ndb, rep, err := db.RecoverMedia()
	if err != nil {
		t.Fatalf("media recovery: %v", err)
	}
	if rep.Undo.LosersRolledBack != 1 {
		t.Fatalf("media recovery rolled back %d transactions, want the one in flight", rep.Undo.LosersRolledBack)
	}
	if err := db.Commit(tx); !errors.Is(err, ErrCommitLost) {
		t.Fatalf("commit across a media failure = %v, want ErrCommitLost", err)
	}
	ndb.DrainRestore()
	ndb.Crash()
	rdb, _, err := ndb.Restart()
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer rdb.Close()
	ix2, err := rdb.Index("t")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := ix2.Get(k(1)); err != nil || string(got) != string(v(1)) {
		t.Fatalf("key 1 after the failure = %q, %v; want the committed %q", got, err, v(1))
	}
}

// TestCheckpointBesideTransactions is the -race regression for the active
// transaction table: a checkpoint snapshots every in-flight transaction's
// chain head (txn.Manager.Active) while the owning goroutines advance it
// with each record they log, abort and commit — the shape wire-mixed-cold
// and spfserver's periodic checkpoints run all day.
func TestCheckpointBesideTransactions(t *testing.T) {
	opts := testOptions()
	opts.PoolFrames = 512
	db := openTestDB(t, opts)
	defer db.Close()

	const workers = 4
	const perWorker = 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		ix, err := db.CreateIndex(fmt.Sprintf("ckpt-%d", w))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(w int, ix *Index) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tx := db.Begin()
				if err := ix.Insert(tx, k(i), v(i)); err != nil {
					t.Errorf("worker %d insert %d: %v", w, i, err)
					return
				}
				if i%5 == 4 {
					// Rollback logs CLRs: the chain head moves there too.
					if err := tx.Abort(); err != nil {
						t.Errorf("worker %d abort %d: %v", w, i, err)
						return
					}
					continue
				}
				if err := db.Commit(tx); err != nil {
					t.Errorf("worker %d commit %d: %v", w, i, err)
					return
				}
			}
		}(w, ix)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for checkpoints := 0; ; checkpoints++ {
		if _, err := db.Checkpoint(); err != nil {
			t.Fatalf("checkpoint %d: %v", checkpoints, err)
		}
		select {
		case <-done:
			return
		default:
		}
	}
}
