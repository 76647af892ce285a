package spf

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/archive"
	"repro/internal/backup"
	"repro/internal/page"
	"repro/internal/wal"
)

// The archive is a redo store: runs hold per-page chain records only, and a
// committed transaction's updates lose their undo information on the way
// in. These tests pin what may and may not read it that way.

var bothEngines = []IndexKind{KindBTree, KindHash}

// roundValue is key i's value after round r; the lengths vary so updates
// move records around and split pages.
func roundValue(r, i int) []byte {
	return []byte(fmt.Sprintf("r%02d-%06d%s", r, i, strings.Repeat("*", (r*7+i)%23)))
}

// putEach writes want[i] for every i in keys, one committed transaction per
// key: each update's commit follows it at once, in the batch the archiver
// collects with it.
func putEach(t *testing.T, db *DB, ix *Index, keys []int, want [][]byte) {
	t.Helper()
	for _, i := range keys {
		tx := db.Begin()
		if err := ix.Update(tx, k(i), want[i]); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		if err := db.Commit(tx); err != nil {
			t.Fatal(err)
		}
	}
}

// expectAll reads every key back and checks it against want, then
// verifies the index's structure.
func expectAll(t *testing.T, ix *Index, want [][]byte) {
	t.Helper()
	for i, w := range want {
		got, err := ix.Get(k(i))
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if !bytes.Equal(got, w) {
			t.Fatalf("get %d = %q, want %q", i, got, w)
		}
	}
	if viols, err := ix.Verify(); err != nil || len(viols) != 0 {
		t.Fatalf("verify: %v %v", viols, err)
	}
}

// liveRecords copies every flushed record the archiver has not collected
// yet: what the next ArchiveNow turns into runs.
func liveRecords(t *testing.T, db *DB, into map[page.LSN]*wal.Record) {
	t.Helper()
	flushed := db.log.FlushedLSN()
	if err := db.log.Scan(db.arch.ArchivedUpTo(), func(r *wal.Record) bool {
		if r.LSN >= flushed {
			return false
		}
		cp := *r
		cp.Payload = bytes.Clone(r.Payload)
		into[r.LSN] = &cp
		return true
	}); err != nil {
		t.Fatal(err)
	}
}

// TestArchiveHoldsOnlyChainRecords: after a lifecycle run with recycles,
// on both engines, every record the log held below the truncation boundary
// is in the archive if and only if it is a chain record — commit, abort,
// sys-commit, PRI and checkpoint records read ErrNotArchived — and each
// archived record is the logged one or its RedoOnly form.
func TestArchiveHoldsOnlyChainRecords(t *testing.T) {
	const n = 150
	for _, kind := range bothEngines {
		t.Run(kind.String(), func(t *testing.T) {
			db := openTestDB(t, lifecycleOptions())
			defer db.Close()
			ix := loadIndexKind(t, db, "t", kind, n)
			if _, _, err := db.BackupNow(); err != nil {
				t.Fatal(err)
			}
			logged := make(map[page.LSN]*wal.Record)
			want := make([][]byte, n)
			for i := range want {
				want[i] = v(i)
			}
			keys := make([]int, 0, n)
			for round := 0; round < 6; round++ {
				keys = keys[:0]
				for i := round % 3; i < n; i += 3 {
					want[i] = roundValue(round, i)
					keys = append(keys, i)
				}
				putEach(t, db, ix, keys, want)
				doomed := db.Begin()
				if err := ix.Update(doomed, k(round), []byte("doomed")); err != nil {
					t.Fatal(err)
				}
				if err := doomed.Abort(); err != nil {
					t.Fatal(err)
				}
				if _, err := db.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				liveRecords(t, db, logged)
				if err := db.ArchiveNow(); err != nil {
					t.Fatal(err)
				}
			}
			lo, hi := db.arch.Released(), db.log.TruncatedLSN()
			seen := make(map[wal.RecType]int)
			stripped := 0
			for lsn, rec := range logged {
				if lsn < lo || lsn >= hi {
					continue
				}
				seen[rec.Type]++
				got, err := db.arch.ReadRecord(lsn)
				switch rec.Type {
				case wal.TypeUpdate, wal.TypeCLR, wal.TypeFormat:
					if err != nil || got.Type != rec.Type {
						t.Fatalf("%v record at %d: %v, %v", rec.Type, lsn, got, err)
					}
					if !bytes.Equal(got.Payload, rec.Payload) {
						if !bytes.Equal(got.Payload, applier{}.RedoOnly(rec.Payload)) {
							t.Fatalf("%v record at %d archived as %x, logged %x", rec.Type, lsn, got.Payload, rec.Payload)
						}
						stripped++
					}
				default:
					if !errors.Is(err, archive.ErrNotArchived) {
						t.Fatalf("%v record at %d: err = %v, want ErrNotArchived", rec.Type, lsn, err)
					}
				}
			}
			for _, typ := range []wal.RecType{wal.TypeCommit, wal.TypeAbort, wal.TypeSysCommit, wal.TypePRIUpdate, wal.TypeCheckpointEnd, wal.TypeUpdate, wal.TypeCLR} {
				if seen[typ] == 0 {
					t.Errorf("no %v record below the truncation boundary to check", typ)
				}
			}
			as := db.Metrics().Archive
			if stripped == 0 || as.UndoBytesStripped == 0 || as.RecordsDropped == 0 {
				t.Fatalf("%d stripped records checked; archive stats %+v", stripped, as)
			}
			expectAll(t, ix, want)
		})
	}
}

// TestAbortReadsArchivedUndo: a transaction still active while its updates
// are archived and recycled rolls back from the archive's whole records.
func TestAbortReadsArchivedUndo(t *testing.T) {
	const n = 200
	for _, kind := range bothEngines {
		t.Run(kind.String(), func(t *testing.T) {
			db := openTestDB(t, lifecycleOptions())
			defer db.Close()
			ix := loadIndexKind(t, db, "t", kind, n)
			from := db.log.EndLSN()
			tx := db.Begin()
			for i := 0; i < n; i++ {
				if err := ix.Update(tx, k(i), roundValue(9, i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.FlushAll(); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := db.ArchiveNow(); err != nil {
				t.Fatal(err)
			}
			if got := db.log.TruncatedLSN(); got <= from {
				t.Fatalf("live log recycled to %d, the transaction began at %d", got, from)
			}
			if err := tx.Abort(); err != nil {
				t.Fatalf("abort over archived updates: %v", err)
			}
			expectValues(t, ix, n)
			if viols, err := ix.Verify(); err != nil || len(viols) != 0 {
				t.Fatalf("verify: %v %v", viols, err)
			}
		})
	}
}

// TestRecoveriesAfterManyRecycles: after twenty and more recycles with
// committed history stored redo-only and a loser whose updates were
// archived too, Restart and then RecoverMedia bring back exactly the
// committed state, on both engines.
func TestRecoveriesAfterManyRecycles(t *testing.T) {
	const n = 150
	for _, kind := range bothEngines {
		t.Run(kind.String(), func(t *testing.T) {
			db := openTestDB(t, lifecycleOptions())
			ix := loadIndexKind(t, db, "t", kind, n)
			if _, _, err := db.BackupNow(); err != nil {
				t.Fatal(err)
			}
			want := make([][]byte, n)
			for i := range want {
				want[i] = v(i)
			}
			recycles := 0
			for round := 0; recycles < 20; round++ {
				if round == 60 {
					t.Fatalf("only %d recycles in %d rounds", recycles, round)
				}
				var keys []int
				for i := round % 5; i < n; i += 5 {
					want[i] = roundValue(round, i)
					keys = append(keys, i)
				}
				putEach(t, db, ix, keys, want)
				if round == 12 {
					if _, _, err := db.BackupNow(); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := db.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				base := db.log.TruncatedLSN()
				if err := db.ArchiveNow(); err != nil {
					t.Fatal(err)
				}
				if db.log.TruncatedLSN() > base {
					recycles++
				}
			}
			loser := db.Begin()
			for i := 0; i < n; i += 2 {
				if err := ix.Update(loser, k(i), []byte("loser")); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.FlushAll(); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := db.ArchiveNow(); err != nil {
				t.Fatal(err)
			}
			if db.Metrics().Archive.UndoBytesStripped == 0 {
				t.Fatal("no committed update was archived redo-only")
			}

			db.Crash()
			rdb, _, err := db.Restart()
			if err != nil {
				t.Fatalf("restart: %v", err)
			}
			rix, err := rdb.Index("t")
			if err != nil {
				t.Fatal(err)
			}
			rdb.DrainRestore()
			expectAll(t, rix, want)

			rdb.FailDevice()
			mdb, _, err := rdb.RecoverMedia()
			if err != nil {
				t.Fatalf("media recovery: %v", err)
			}
			defer mdb.Close()
			mix, err := mdb.Index("t")
			if err != nil {
				t.Fatal(err)
			}
			mdb.DrainRestore()
			expectAll(t, mix, want)
			if m := mdb.Metrics(); m.Recovery.Escalations != 0 || m.Pool.Escalations != 0 {
				t.Fatalf("escalations after media recovery: %+v %+v", m.Recovery, m.Pool)
			}
		})
	}
}

// TestRedoOnlyChainRepairsAndRestores: a page whose whole chain above the
// backup was archived redo-only — every record the RedoOnly form of the
// logged one, some of them cut — is rebuilt to exactly its committed image
// by single-page recovery, and the device by media recovery.
func TestRedoOnlyChainRepairsAndRestores(t *testing.T) {
	const n = 200
	for _, kind := range bothEngines {
		t.Run(kind.String(), func(t *testing.T) {
			opts := lifecycleOptions()
			opts.Lifecycle.SegmentBytes = 4 << 20 // each ArchiveNow collects one batch
			db := openTestDB(t, opts)
			ix := loadIndexKind(t, db, "t", kind, n)
			if _, _, err := db.BackupNow(); err != nil {
				t.Fatal(err)
			}
			want := make([][]byte, n)
			keys := make([]int, n)
			for i := range want {
				keys[i] = i
			}
			for round := 0; round < 4; round++ {
				for i := range want {
					want[i] = roundValue(round, i)
				}
				putEach(t, db, ix, keys, want)
			}
			if err := db.FlushAll(); err != nil {
				t.Fatal(err)
			}
			victim := longestChainPage(t, db)
			e, err := db.pri.Get(victim)
			if err != nil {
				t.Fatal(err)
			}
			h, err := db.pool.Fetch(victim)
			if err != nil {
				t.Fatal(err)
			}
			h.RLock()
			committed := h.Page().Clone()
			h.RUnlock()
			h.Release()
			floor := db.res.BackupLSN(e.Backup, victim)
			live, err := db.log.WalkPageChain(committed.LSN(), floor, victim)
			if err != nil {
				t.Fatal(err)
			}

			if _, err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := db.ArchiveNow(); err != nil {
				t.Fatal(err)
			}
			if got := db.log.TruncatedLSN(); got <= committed.LSN() {
				t.Fatalf("live log recycled to %d, the chain ends at %d", got, committed.LSN())
			}
			archived, err := db.log.WalkPageChain(committed.LSN(), floor, victim)
			if err != nil || len(archived) != len(live) {
				t.Fatalf("archived chain: %d records, %v; live had %d", len(archived), err, len(live))
			}
			cut := 0
			for i, rec := range archived {
				if !bytes.Equal(rec.Payload, applier{}.RedoOnly(live[i].Payload)) {
					t.Fatalf("chain record %d archived as %x, logged %x", rec.LSN, rec.Payload, live[i].Payload)
				}
				cut += len(live[i].Payload) - len(rec.Payload)
			}
			if cut == 0 {
				t.Fatal("no record of the chain was stripped")
			}

			rep, err := db.RecoverPageNow(victim)
			if err != nil || rep.RecordsApplied != len(archived) {
				t.Fatalf("single-page recovery: %+v, %v", rep, err)
			}
			rebuilt, _, err := db.rec.RecoverPage(victim, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rebuilt.Encode(), committed.Encode()) {
				t.Fatal("redo-only replay rebuilt a different page")
			}
			if err := db.CorruptPage(victim); err != nil {
				t.Fatal(err)
			}
			expectAll(t, ix, want)

			db.FailDevice()
			mdb, _, err := db.RecoverMedia()
			if err != nil {
				t.Fatalf("media recovery: %v", err)
			}
			defer mdb.Close()
			mix, err := mdb.Index("t")
			if err != nil {
				t.Fatal(err)
			}
			mdb.DrainRestore()
			expectAll(t, mix, want)
			if m := mdb.Metrics(); m.Recovery.Escalations != 0 || m.Pool.Escalations != 0 {
				t.Fatalf("escalations after media recovery: %+v %+v", m.Recovery, m.Pool)
			}
		})
	}
}

// randomHistory runs a seeded mix of inserts, updates and deletes on a
// fresh index of the given kind, some transactions rolled back, with values
// of varied lengths so both engines split and restructure pages. Only
// transactions that deleted nothing roll back: a later insert's ghost purge
// can reclaim an uncommitted delete's ghost, and its rollback then fails on
// both engines (open, and not this history's subject; see ROADMAP).
func randomHistory(tb testing.TB, db *DB, kind IndexKind, seed int64, ops int) {
	tb.Helper()
	ix, err := db.CreateIndexKind("h", kind)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	present := make(map[int]bool)
	for done := 0; done < ops; {
		tx := db.Begin()
		cur := maps.Clone(present)
		deleted := false
		for j := rng.Intn(4) + 1; j > 0; j, done = j-1, done+1 {
			i := rng.Intn(300)
			val := bytes.Repeat([]byte{byte('a' + rng.Intn(26))}, rng.Intn(90)+1)
			switch {
			case !cur[i]:
				err, cur[i] = ix.Insert(tx, k(i), val), true
			case rng.Intn(4) == 0:
				err, cur[i], deleted = ix.Delete(tx, k(i)), false, true
			default:
				err = ix.Update(tx, k(i), val)
			}
			if err != nil {
				tb.Fatalf("op %d on key %d: %v", done, i, err)
			}
		}
		if rng.Intn(6) == 0 && !deleted {
			err = tx.Abort()
		} else {
			err, present = db.Commit(tx), cur
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
}

// redoOnlyReplay replays db's log from its format records twice, every
// update and CLR once as logged and once in its RedoOnly form, failing as
// soon as an op leaves the two images of its page different. It returns the
// logged ops, the final images and the undo bytes RedoOnly cut.
func redoOnlyReplay(tb testing.TB, db *DB) (ops [][]byte, pages []*page.Page, cut int) {
	tb.Helper()
	whole := make(map[page.ID]*page.Page)
	stripped := make(map[page.ID]*page.Page)
	var failure error
	err := db.log.Scan(wal.FirstLSN(), func(rec *wal.Record) bool {
		switch rec.Type {
		case wal.TypeFormat:
			pg, err := backup.PageFromFormatRecord(rec, db.opts.PageSize)
			if err != nil {
				failure = err
				return false
			}
			whole[rec.PageID], stripped[rec.PageID] = pg, pg.Clone()
		case wal.TypeUpdate, wal.TypeCLR:
			a, b := whole[rec.PageID], stripped[rec.PageID]
			if a == nil {
				return true
			}
			ro := applier{}.RedoOnly(rec.Payload)
			ea := applier{}.ApplyRedo(rec, a)
			eb := applier{}.ApplyRedo(&wal.Record{Payload: ro}, b)
			if ea != nil || eb != nil || !bytes.Equal(a.Encode(), b.Encode()) {
				failure = fmt.Errorf("%v at %d on page %d: whole %v, redo-only %v, pages equal %v",
					rec.Type, rec.LSN, rec.PageID, ea, eb, bytes.Equal(a.Encode(), b.Encode()))
				return false
			}
			ops = append(ops, bytes.Clone(rec.Payload))
			cut += len(rec.Payload) - len(ro)
		}
		return true
	})
	if err == nil {
		err = failure
	}
	if err != nil {
		tb.Fatal(err)
	}
	for _, pg := range whole {
		pages = append(pages, pg)
	}
	return ops, pages, cut
}

// TestRedoOnlyReplayMatchesWholeReplay is the property over real histories:
// for seeded random workloads on both engines, replaying every logged op in
// its RedoOnly form leaves every page byte-identical to replaying it whole,
// op by op — over every opcode the engines log, splits, merges of foster
// chains and compensations included.
func TestRedoOnlyReplayMatchesWholeReplay(t *testing.T) {
	for _, kind := range bothEngines {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%v/seed=%d", kind, seed), func(t *testing.T) {
				db := openTestDB(t, testOptions())
				defer db.Close()
				randomHistory(t, db, kind, seed, 500)
				ops, _, cut := redoOnlyReplay(t, db)
				codes := make(map[byte]bool)
				for _, op := range ops {
					codes[op[0]] = true
				}
				if cut == 0 || len(codes) < 5 {
					t.Fatalf("%d ops of %d opcodes, %d undo bytes cut: the history is too thin", len(ops), len(codes), cut)
				}
			})
		}
	}
}

// FuzzRedoOnly: for any op bytes, RedoOnly never writes to or grows its
// argument and is its own fixed point, and applying the op whole or
// redo-only to any page a real history of either engine left behind fails
// alike or leaves the same page.
func FuzzRedoOnly(f *testing.F) {
	var pages []*page.Page
	for i, kind := range bothEngines {
		db, err := Open(testOptions())
		if err != nil {
			f.Fatal(err)
		}
		randomHistory(f, db, kind, int64(i+1), 200)
		ops, pgs, _ := redoOnlyReplay(f, db)
		pages = append(pages, pgs...)
		for j, op := range ops {
			if j%7 == 0 {
				f.Add(op)
			}
		}
		if err := db.Close(); err != nil {
			f.Fatal(err)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0x03, 1, 2})
	f.Fuzz(func(t *testing.T, op []byte) {
		orig := bytes.Clone(op)
		ro := applier{}.RedoOnly(op)
		if !bytes.Equal(op, orig) {
			t.Fatalf("RedoOnly wrote to its argument: %x -> %x", orig, op)
		}
		if len(ro) > len(op) {
			t.Fatalf("RedoOnly grew %x to %x", op, ro)
		}
		if again := (applier{}).RedoOnly(ro); !bytes.Equal(again, ro) {
			t.Fatalf("RedoOnly not idempotent: %x -> %x -> %x", op, ro, again)
		}
		for _, base := range pages {
			a, b := base.Clone(), base.Clone()
			ea := applier{}.ApplyRedo(&wal.Record{Payload: op}, a)
			eb := applier{}.ApplyRedo(&wal.Record{Payload: ro}, b)
			if (ea == nil) != (eb == nil) || !bytes.Equal(a.Encode(), b.Encode()) {
				t.Fatalf("op %x on page %d: whole %v, redo-only %v", op, base.ID(), ea, eb)
			}
		}
	})
}
