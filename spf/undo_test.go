package spf

import (
	"bytes"
	"testing"
)

// TestUndoRoutesByRootPageAcrossEngines: one user transaction inserts,
// updates and deletes in a B-tree and in a hash index, interleaved, with
// updates that grow their values so both engines restructure pages under
// it, and re-inserts some keys it deleted. It rolls back three ways: a
// runtime Abort, and as the loser of a crash under instant restart and
// under forward redo. Both engines log the same user ops, so undo routes
// each record by the type of the root page it names; each index must read
// as it did before the transaction and verify clean.
func TestUndoRoutesByRootPageAcrossEngines(t *testing.T) {
	const n = 300
	grown := bytes.Repeat([]byte("u"), 60)
	for _, mode := range []string{"abort", "instant", "forward"} {
		t.Run(mode, func(t *testing.T) {
			opts := testOptions()
			opts.DisablePageLSNCheck = mode == "forward" // restart redoes every page before undo
			db := openTestDB(t, opts)
			names := []string{"btree", "hash"}
			ixs := []*Index{loadIndexKind(t, db, names[0], KindBTree, n), loadIndexKind(t, db, names[1], KindHash, n)}
			tx := db.Begin()
			for i := 0; i < n; i += 3 {
				for _, ix := range ixs {
					if err := ix.Insert(tx, k(n+i), v(n+i)); err != nil {
						t.Fatalf("%v insert %d: %v", ix.Kind(), n+i, err)
					}
					if err := ix.Update(tx, k(i), grown); err != nil {
						t.Fatalf("%v update %d: %v", ix.Kind(), i, err)
					}
					if err := ix.Delete(tx, k(i+1)); err != nil {
						t.Fatalf("%v delete %d: %v", ix.Kind(), i+1, err)
					}
				}
			}
			for i := 1; i < n; i += 30 {
				for _, ix := range ixs {
					if err := ix.Insert(tx, k(i), grown); err != nil {
						t.Fatalf("%v re-insert %d: %v", ix.Kind(), i, err)
					}
				}
			}
			if mode == "abort" {
				if err := tx.Abort(); err != nil {
					t.Fatalf("abort: %v", err)
				}
				t.Cleanup(func() { db.Close() })
			} else {
				db.LogManager().FlushAll() // the loser's records survive the crash
				db.Crash()
				ndb, rep := restartDrained(t, db)
				if rep.Undo.LosersRolledBack != 1 || rep.OnDemand != (mode == "instant") {
					t.Fatalf("restart rolled back %d losers, on demand %v", rep.Undo.LosersRolledBack, rep.OnDemand)
				}
				for j, name := range names {
					ix, err := ndb.Index(name)
					if err != nil {
						t.Fatal(err)
					}
					ixs[j] = ix
				}
			}
			for _, ix := range ixs {
				expectExactly(t, ix, n, 2*n)
			}
		})
	}
}
