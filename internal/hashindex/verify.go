package hashindex

import (
	"fmt"

	"repro/internal/page"
)

// Violation is one structural-invariant failure found by VerifyAll.
type Violation struct {
	Page   page.ID
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("page %d: %s", v.Page, v.Detail)
}

// Stats snapshots table-level counters gathered by WalkStats.
type Stats struct {
	Buckets    int // primary buckets (= directory slots)
	Pages      int // bucket pages, overflow pages included
	Entries    int // live entries
	Ghosts     int
	MaxChain   int // longest overflow chain, in pages
	Level      int // current round level
	NextSplit  int // round pointer
	Overflowed int // buckets with at least one overflow page
}

// VerifyAll exhaustively checks every structural invariant of the table —
// the offline audit counterpart to the continuous cross-checks the
// descents perform. It verifies, per chain page, the full check set from
// the package comment (stamps, back-pointers, chain positions), plus the
// invariants only a whole-table scan can see: each entry's key hashes to
// the bucket that holds it under the current (level, next), no key appears
// twice across a chain, and the directory's slot count matches its round
// state.
//
// VerifyAll latches one page at a time (shared), so it runs without
// blocking foreground traffic — but like any offline audit it assumes a
// quiesced table for exact results.
func (tb *Table) VerifyAll() ([]Violation, error) {
	var viols []Violation
	dh, d, err := tb.fetchDir()
	if err != nil {
		return nil, err
	}
	dv := dirView{id: dh.ID(), level: d.level, next: d.next}
	// fetchDir's parse already established that the slot count matches the
	// round state; the table is copied out because the walk outlives the
	// directory latch.
	buckets := d.buckets()
	dh.RUnlock()
	dh.Release()
	for b, pid := range buckets {
		keys := make(map[string]bool)
		id := pid
		for pos, via := uint32(0), dv.id; id != page.InvalidID; pos++ {
			h, err := tb.pager.Fetch(id)
			if err != nil {
				return viols, fmt.Errorf("hashindex: verify fetch of page %d: %w", id, err)
			}
			h.RLock()
			// The whole-page structural validation (offsets, entry shape,
			// key order) first, then the cross-checks every descent runs.
			var n bucket
			err = h.Page().Check()
			if err == nil {
				n, err = checkedBucket(h, via, b, pos, dv)
			}
			if err != nil {
				viols = append(viols, Violation{id, err.Error()})
				h.RUnlock()
				h.Release()
				break
			}
			for i := 0; i < n.Count(); i++ {
				k, _, _, _ := n.Record(i) // Check passed: cannot fail
				if got := d.bucketOf(hashKey(k)); got != b {
					viols = append(viols, Violation{id, fmt.Sprintf(
						"entry %q hashes to bucket %d but lives in bucket %d", k, got, b)})
				}
				if keys[string(k)] {
					viols = append(viols, Violation{id, fmt.Sprintf(
						"key %q appears more than once in bucket %d", k, b)})
				}
				keys[string(k)] = true
			}
			via, id = id, n.next
			h.RUnlock()
			h.Release()
		}
	}
	return viols, nil
}

// WalkStats traverses the whole table and returns aggregate statistics.
// Like VerifyAll it latches one page at a time; counts taken against a
// concurrently mutating table are approximate.
func (tb *Table) WalkStats() (Stats, error) {
	var st Stats
	dh, d, err := tb.fetchDir()
	if err != nil {
		return st, err
	}
	buckets := d.buckets()
	dh.RUnlock()
	dh.Release()
	st.Buckets = len(buckets)
	st.Level = int(d.level)
	st.NextSplit = int(d.next)
	for _, pid := range buckets {
		chain := 0
		id := pid
		for id != page.InvalidID {
			h, err := tb.pager.Fetch(id)
			if err != nil {
				return st, err
			}
			h.RLock()
			n, err := parseBucket(h.Page().Payload())
			for i := 0; err == nil && i < n.Count(); i++ {
				var ghost bool
				if _, _, ghost, err = n.Record(i); ghost {
					st.Ghosts++
				} else {
					st.Entries++
				}
			}
			if err != nil {
				h.RUnlock()
				h.Release()
				return st, err
			}
			st.Pages++
			chain++
			id = n.next
			h.RUnlock()
			h.Release()
		}
		if chain > st.MaxChain {
			st.MaxChain = chain
		}
		if chain > 1 {
			st.Overflowed++
		}
	}
	return st, nil
}
