package spf

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/btree"
	"repro/internal/buffer"
	"repro/internal/chaos"
	"repro/internal/hashindex"
	"repro/internal/page"
	"repro/internal/recovery"
	"repro/internal/txn"
	"repro/internal/wal"
)

// System transactions are redo-only: restart drops one the crash cut
// (recovery.Analyze), and a runtime abort puts back copies of the pages it
// changed (txn.Txn.Abort). These tests hold both engines to that.

var engineKinds = []IndexKind{KindBTree, KindHash}

// shape is what an index's structure looks like, entry counts aside.
func shape(t *testing.T, ix *Index) string {
	t.Helper()
	if ix.Kind() == KindHash {
		s, err := ix.HashStats()
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("buckets %d pages %d level %d next %d chain %d",
			s.Buckets, s.Pages, s.Level, s.NextSplit, s.MaxChain)
	}
	s, err := ix.TreeStats()
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("nodes %d leaves %d fosters %d height %d", s.Nodes, s.Leaves, s.Fosters, s.Height)
}

// expectExactly fails t unless ix holds keys [0, n) with their values, no
// key of [n, upTo), and verifies clean.
func expectExactly(t *testing.T, ix *Index, n, upTo int) {
	t.Helper()
	expectValues(t, ix, n)
	for i := n; i < upTo; i++ {
		if got, err := ix.Get(k(i)); !errors.Is(err, ErrKeyNotFound) {
			t.Fatalf("key %d, never committed, reads %q, %v", i, got, err)
		}
	}
	if viols, err := ix.Verify(); err != nil || len(viols) != 0 {
		t.Fatalf("verify: %v %v", viols, err)
	}
}

// restartDrained restarts the crashed db and drains its redo backlog.
func restartDrained(t *testing.T, db *DB) (*DB, *RestartReport) {
	t.Helper()
	ndb, rep, err := db.Restart()
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	t.Cleanup(func() { ndb.Close() })
	ndb.DrainRestore()
	return ndb, rep
}

// TestSystemCommitReachesTheLogBeforeItsPages: an open user transaction
// inserts until a system transaction changes the index's structure, and
// nothing forces the log — no user commit, no checkpoint. Every page is
// then evicted, and the log crashed. The write-backs forced the system
// transactions' commits ahead of their pages, so restart shows the
// structure as it was, and the index verifies clean.
func TestSystemCommitReachesTheLogBeforeItsPages(t *testing.T) {
	for _, kind := range engineKinds {
		t.Run(kind.String(), func(t *testing.T) {
			const n = 200
			db := openTestDB(t, testOptions())
			ix := loadIndexKind(t, db, "t", kind, n)
			before := shape(t, ix)
			tx := db.Begin()
			i := n
			for ; shape(t, ix) == before; i++ {
				if err := ix.Insert(tx, k(i), v(i)); err != nil {
					t.Fatal(err)
				}
			}
			after := shape(t, ix)
			for _, id := range db.Pages() {
				if err := db.EvictPage(id); err != nil {
					t.Fatal(err)
				}
			}
			db.Crash()
			ndb, _ := restartDrained(t, db)
			ix2, err := ndb.Index("t")
			if err != nil {
				t.Fatal(err)
			}
			if got := shape(t, ix2); got != after {
				t.Fatalf("restart shows %s, want %s: a structural change written back was lost", got, after)
			}
			expectExactly(t, ix2, n, i)
		})
	}
}

// errInjected is the allocation failure failingPager injects.
var errInjected = errors.New("injected allocation failure")

// failingPager is the database as the engines' pager, except that every
// allocation from the fail-th on (1-based) fails.
type failingPager struct {
	*DB
	fail, n int
}

func (p *failingPager) AllocateNode(t *txn.Txn, typ page.Type, payload []byte) (*buffer.Handle, error) {
	if p.n++; p.n >= p.fail {
		return nil, errInjected
	}
	return p.DB.AllocateNode(t, typ, payload)
}

// restartModes are the two restarts: on demand, and the forward log scan
// a database without the PageLSN check takes.
var restartModes = []struct {
	name string
	opts func() Options
}{
	{"instant", testOptions},
	{"forward-redo", func() Options {
		o := testOptions()
		o.DisablePageLSNCheck = true
		return o
	}},
}

// noLatchHeld fails t if any page of db is latched.
func noLatchHeld(t *testing.T, db *DB) {
	t.Helper()
	for _, id := range db.Pages() {
		h, err := db.pool.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		if !h.TryLock() {
			t.Fatalf("page %d is still latched", id)
		}
		h.Unlock()
		h.Release()
	}
}

// TestSystemAbortLeavesTheIndexAsItWas: a split whose allocation fails
// aborts its system transaction after its first change, and so does a
// hash table's creation. The index is left as it was, no latch is left
// held, and Crash plus Restart, in both restart modes, shows the same.
func TestSystemAbortLeavesTheIndexAsItWas(t *testing.T) {
	const n = 100
	for _, mode := range restartModes {
		for _, kind := range engineKinds {
			t.Run(mode.name+"/split/"+kind.String(), func(t *testing.T) {
				db := openTestDB(t, mode.opts())
				ix := loadIndexKind(t, db, "t", kind, n)
				fp := &failingPager{DB: db, fail: 1}
				var eng interface {
					Insert(*txn.Txn, []byte, []byte) error
				} = btree.Open("t", ix.Root(), fp)
				if kind == KindHash {
					eng = hashindex.Open("t", ix.Root(), fp)
				}
				tx := db.Begin()
				i := n
				for ; i < 20*n; i++ {
					if err := eng.Insert(tx, k(i), v(i)); err != nil {
						if !errors.Is(err, errInjected) {
							t.Fatal(err)
						}
						break
					}
				}
				if i == 20*n {
					t.Fatal("no split was ever due")
				}
				if err := tx.Abort(); err != nil {
					t.Fatal(err)
				}
				noLatchHeld(t, db)
				expectExactly(t, ix, n, i+1)
				db.Crash()
				ndb, _ := restartDrained(t, db)
				ix2, err := ndb.Index("t")
				if err != nil {
					t.Fatal(err)
				}
				expectExactly(t, ix2, n, i+1)
			})
		}
		t.Run(mode.name+"/create/hash", func(t *testing.T) {
			db := openTestDB(t, mode.opts())
			ix := loadIndexKind(t, db, "t", KindHash, n)
			st := db.txns.BeginSystem()
			// The directory and one bucket are formatted, the second
			// bucket's allocation fails.
			if _, err := hashindex.Create(st, "h", &failingPager{DB: db, fail: 3}); !errors.Is(err, errInjected) {
				t.Fatalf("create = %v, want the injected failure", err)
			}
			if err := st.Abort(); err != nil {
				t.Fatal(err)
			}
			noLatchHeld(t, db)
			check := func(db *DB, ix *Index) {
				t.Helper()
				if _, err := db.Index("h"); err == nil {
					t.Fatal("the aborted table is registered")
				}
				expectExactly(t, ix, n, n)
			}
			check(db, ix)
			db.Crash()
			ndb, _ := restartDrained(t, db)
			ix2, err := ndb.Index("t")
			if err != nil {
				t.Fatal(err)
			}
			check(ndb, ix2)
		})
	}
}

// cutSystemTransaction has an open user transaction insert keys from n on
// into ix until a system transaction is about to commit. A concurrent
// commit's force makes that transaction's changes stable right then, and
// the crash seals the log before its commit; the database is then crashed.
// With half set, the transaction cut is one with two updates or more, and
// the force covers only its first. It returns the first key the user
// transaction did not insert.
func cutSystemTransaction(t *testing.T, db *DB, ix *Index, n int, half bool) int {
	t.Helper()
	defer chaos.Reset()
	var cut atomic.Bool
	var arm func()
	arm = func() {
		chaos.Arm("txn.syscommit", 1, func(chaos.Hit) {
			through := db.log.EndLSN()
			if half {
				lsns := lastSystemUpdates(t, db)
				if len(lsns) < 2 {
					arm() // let this one commit, and cut a later one
					return
				}
				through = lsns[0]
			}
			if err := db.log.Flush(through); err != nil {
				t.Error(err)
			}
			db.log.Crash()
			cut.Store(true)
		})
	}
	arm()
	tx := db.Begin()
	i := n
	for ; !cut.Load(); i++ {
		if i == 50*n {
			t.Fatal("no system transaction was ever cut")
		}
		// An insert that needs the structural change logs into the sealed
		// log; whatever it reports, it is not durable.
		_ = ix.Insert(tx, k(i), v(i))
	}
	db.Crash()
	return i
}

// lastSystemUpdates returns the LSNs of the update records of the system
// transaction that logged the newest one.
func lastSystemUpdates(t *testing.T, db *DB) []page.LSN {
	t.Helper()
	byTxn := make(map[wal.TxnID][]page.LSN)
	var last wal.TxnID
	if err := db.log.Scan(wal.FirstLSN(), func(rec *wal.Record) bool {
		if rec.Type == wal.TypeUpdate && txn.IsSystemID(rec.Txn) {
			byTxn[rec.Txn] = append(byTxn[rec.Txn], rec.LSN)
			last = rec.Txn
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return byTxn[last]
}

// droppedPages lists the pages the dropped system transactions changed.
func droppedPages(t *testing.T, db *DB, a *recovery.AnalysisResult) []PageID {
	t.Helper()
	var ids []PageID
	for _, lsns := range a.Dropped {
		for _, lsn := range lsns {
			rec, err := db.log.Read(lsn)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, rec.PageID)
		}
	}
	if len(ids) == 0 {
		t.Fatal("restart dropped no system transaction")
	}
	return ids
}

// restartBeforeCheckpoint is a restart a second crash cuts before its
// checkpoint: analysis, the redo marks and the undo pass ran, and their
// records are stable.
func restartBeforeCheckpoint(t *testing.T, db *DB) (*DB, *recovery.AnalysisResult) {
	t.Helper()
	log := wal.TakeOver(db.log)
	a, err := recovery.Analyze(log, db.opts.DataSlots)
	if err != nil {
		t.Fatal(err)
	}
	backlog, _ := recovery.PrepareRedo(a)
	ndb := newDB(db.opts, db.dev, db.store, db.arch, log, a.Map, a.PRI)
	ndb.workOff(backlog)
	if _, err := recovery.Undo(ndb.txns, a); err != nil {
		t.Fatal(err)
	}
	log.FlushAll()
	ndb.Crash()
	return ndb, a
}

// TestSecondCrashAfterDroppedSystemTransaction: a crash cuts a system
// transaction that changed the pages an open user transaction wrote.
// Restart drops the system transaction and rolls the user transaction back,
// logging CLRs on those pages, and a second crash lands before that
// restart's checkpoint. The next restart meets the dropped transaction
// again, drops it again, and restarts exactly: the index holds the
// committed keys only and verifies clean, and the pages of the dropped
// transaction read back right.
func TestSecondCrashAfterDroppedSystemTransaction(t *testing.T) {
	for _, kind := range engineKinds {
		t.Run(kind.String(), func(t *testing.T) {
			const n = 200
			db := openTestDB(t, testOptions())
			ix := loadIndexKind(t, db, "t", kind, n)
			upTo := cutSystemTransaction(t, db, ix, n, false)

			mid, a := restartBeforeCheckpoint(t, db)
			victims := droppedPages(t, mid, a)
			ndb, rep := restartDrained(t, mid)
			clrs := 0
			if err := ndb.log.Scan(wal.FirstLSN(), func(rec *wal.Record) bool {
				if rec.Type == wal.TypeCLR && slices.Contains(victims, rec.PageID) && !txn.IsSystemID(rec.Txn) {
					clrs++
				}
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if clrs == 0 {
				t.Fatal("the first restart's undo logged no CLR on a page of the dropped transaction")
			}
			if len(rep.Analysis.Dropped) != len(a.Dropped) {
				t.Fatalf("second restart dropped %d system transactions, the first %d",
					len(rep.Analysis.Dropped), len(a.Dropped))
			}
			for id := range a.Dropped {
				if _, again := rep.Analysis.Dropped[id]; !again {
					t.Fatalf("second restart did not drop system transaction %d", id)
				}
			}
			ix2, err := ndb.Index("t")
			if err != nil {
				t.Fatal(err)
			}
			expectExactly(t, ix2, n, upTo)
			for _, id := range victims {
				if err := ndb.EvictPage(id); err != nil {
					t.Fatal(err)
				}
			}
			expectExactly(t, ix2, n, upTo)
		})
	}
}

// TestRestartDropsAHalfLoggedSystemTransaction: a crash cuts a system
// transaction after its first change reached the log and before the rest
// did — half an adoption, half a bucket split. Restart, on demand or by
// the forward scan, drops what reached the log: the index holds the
// committed keys only and verifies clean.
func TestRestartDropsAHalfLoggedSystemTransaction(t *testing.T) {
	const n = 200
	for _, mode := range restartModes {
		for _, kind := range engineKinds {
			t.Run(mode.name+"/"+kind.String(), func(t *testing.T) {
				db := openTestDB(t, mode.opts())
				ix := loadIndexKind(t, db, "t", kind, n)
				upTo := cutSystemTransaction(t, db, ix, n, true)
				ndb, rep := restartDrained(t, db)
				droppedPages(t, ndb, &rep.Analysis)
				ix2, err := ndb.Index("t")
				if err != nil {
					t.Fatal(err)
				}
				expectExactly(t, ix2, n, upTo)
			})
		}
	}
}

// TestRepairReplaysPastDroppedRecordsInTheArchive: after a restart that
// dropped a system transaction, the pages it changed carry its records as a
// dead branch of their chains. Once those records are archived and the
// live log recycled, a repair of such a page walks its chain through the
// archive past them to the right image.
func TestRepairReplaysPastDroppedRecordsInTheArchive(t *testing.T) {
	for _, kind := range engineKinds {
		t.Run(kind.String(), func(t *testing.T) {
			const n = 200
			db := openTestDB(t, lifecycleOptions())
			ix := loadIndexKind(t, db, "t", kind, n)
			if _, _, err := db.BackupNow(); err != nil {
				t.Fatal(err)
			}
			upTo := cutSystemTransaction(t, db, ix, n, false)
			ndb, rep := restartDrained(t, db)
			victims := droppedPages(t, ndb, &rep.Analysis)
			if err := ndb.ArchiveNow(); err != nil {
				t.Fatal(err)
			}
			if ndb.LogManager().Stats().TruncatedLSN <= highestDropped(rep.Analysis.Dropped) {
				t.Fatal("the live log still holds the dropped records")
			}
			ix2, err := ndb.Index("t")
			if err != nil {
				t.Fatal(err)
			}
			reads := ndb.LogManager().Stats().ArchiveReads
			for _, id := range victims {
				if err := ndb.EvictPage(id); err != nil {
					t.Fatal(err)
				}
				if err := ndb.CorruptPage(id); err != nil {
					t.Fatal(err)
				}
			}
			expectExactly(t, ix2, n, upTo)
			if ndb.LogManager().Stats().ArchiveReads == reads {
				t.Fatal("no repair read the archive")
			}
			for _, id := range victims {
				h, err := ndb.pool.Fetch(id)
				if err != nil {
					t.Fatalf("page %d: %v", id, err)
				}
				h.Release()
			}
		})
	}
}

// highestDropped is the highest LSN among the dropped records.
func highestDropped(dropped map[wal.TxnID][]page.LSN) page.LSN {
	var hi page.LSN
	for _, lsns := range dropped {
		for _, l := range lsns {
			hi = max(hi, l)
		}
	}
	return hi
}
