package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/page"
	"repro/internal/pageop"
)

// levelFill is the occupancy of one tree level: its pages in key order and
// the used share of each page's capacity.
type levelFill struct {
	pages int
	fills []float64
}

func (l levelFill) mean() float64 {
	var sum float64
	for _, f := range l.fills {
		sum += f
	}
	return sum / float64(len(l.fills))
}

// treeFill walks the whole tree (children and foster pointers) and returns
// the occupancy per level, leaves at index 0, every level in key order.
func treeFill(t *testing.T, tr *Tree) []levelFill {
	t.Helper()
	var levels []levelFill
	var walk func(id page.ID)
	walk = func(id page.ID) {
		h, err := tr.pager.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		n := snapshotNode(t, h)
		fill := float64(n.Size()) / float64(h.Page().Capacity())
		h.Release()
		for len(levels) <= int(n.level) {
			levels = append(levels, levelFill{})
		}
		l := &levels[n.level]
		l.pages++
		l.fills = append(l.fills, fill)
		if !n.isLeaf() {
			for _, c := range childIDs(t, &n) {
				walk(c)
			}
		}
		if n.hasFoster() {
			walk(n.foster)
		}
	}
	walk(tr.root)
	return levels
}

// recordShape is the key and value a density load writes for i.
type recordShape struct {
	name string
	key  func(i int) []byte
	val  func(i int) []byte
}

// recordShapes are chosen by what one moved record frees against what the
// foster parent must keep free to be adopted later (room for its new high
// fence a second time, in the chain-high slot): more than enough, less than
// enough in a leaf, and less than enough in a branch.
var recordShapes = []recordShape{
	{"26-byte records", key, val},
	{"2-byte values", key, func(int) []byte { return []byte("v0") }},
	{"40-byte keys", func(i int) []byte { return []byte(fmt.Sprintf("key-%036d", i)) }, val},
}

// loadKeys inserts the shape's record for every i of order under one
// transaction.
func loadKeys(t *testing.T, tr *Tree, p *testPager, shape recordShape, order []int) {
	t.Helper()
	tx := p.txns.Begin()
	for _, i := range order {
		if err := tr.Insert(tx, shape.key(i), shape.val(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	mustCommit(t, tx)
	verifyClean(t, tr)
}

func ascending(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// TestAscendingLoadFillsLeaves: an insert that lands after a full node's
// last record splits the node at that end, so an ascending load leaves full
// pages behind it — and every one of them adopted, whatever the record
// size. The reference is the same keys loaded descending, where every insert
// lands at a node's start and every split is a midpoint split.
func TestAscendingLoadFillsLeaves(t *testing.T) {
	const n = 10000
	for _, shape := range recordShapes {
		t.Run(shape.name, func(t *testing.T) {
			asc, ap := newTestTree(t)
			loadKeys(t, asc, ap, shape, ascending(n))
			desc, dp := newTestTree(t)
			order := ascending(n)
			for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
			loadKeys(t, desc, dp, shape, order)

			levels := treeFill(t, asc)
			if m := levels[0].mean(); m < 0.90 {
				t.Errorf("mean leaf fill after an ascending load = %.2f, want >= 0.90", m)
			}
			var pages, midpointPages int
			for _, l := range levels {
				pages += l.pages
			}
			for _, l := range treeFill(t, desc) {
				midpointPages += l.pages
			}
			if float64(pages) > 0.55*float64(midpointPages) {
				t.Errorf("ascending load used %d pages, midpoint splits %d: want <= 0.55x", pages, midpointPages)
			}
			st, err := asc.WalkStats()
			if err != nil {
				t.Fatal(err)
			}
			if st.Fosters > 1 {
				t.Errorf("%d of %d nodes still hold a foster child: full foster parents are not being adopted", st.Fosters, st.Nodes)
			}
			for i := 0; i < n; i++ {
				got, err := asc.Get(shape.key(i))
				if err != nil || !bytes.Equal(got, shape.val(i)) {
					t.Fatalf("key %d reads back %q, %v", i, got, err)
				}
			}
		})
	}
}

// TestRandomLoadStillSplitsInHalf: the end split fires only where the
// insert lands at a node's right edge; a shuffled load keeps the usual
// midpoint-split occupancy.
func TestRandomLoadStillSplitsInHalf(t *testing.T) {
	const n = 10000
	tr, p := newTestTree(t)
	order := ascending(n)
	rand.New(rand.NewSource(20)).Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	loadKeys(t, tr, p, recordShapes[0], order)
	if m := treeFill(t, tr)[0].mean(); m < 0.60 || m > 0.75 {
		t.Errorf("mean leaf fill after a shuffled load = %.2f, want 0.60..0.75", m)
	}
}

// TestAscendingAdoptionsFillBranches: the separator an adoption brings to a
// full branch sorts after the branch's last one under an ascending load, so
// the branch splits at its end too and every branch but the one still
// filling stays full.
func TestAscendingAdoptionsFillBranches(t *testing.T) {
	for _, shape := range recordShapes {
		t.Run(shape.name, func(t *testing.T) {
			tr, p := newTestTree(t)
			loadKeys(t, tr, p, shape, ascending(10000))
			levels := treeFill(t, tr)
			if len(levels) < 3 || levels[1].pages < 3 {
				t.Fatalf("levels %+v: the load never split a branch", levels)
			}
			branches := levels[1]
			for i, f := range branches.fills[:branches.pages-1] {
				if f < 0.90 {
					t.Errorf("level-1 branch %d of %d is %.2f full, want >= 0.90", i, branches.pages, f)
				}
			}
		})
	}
}

// TestAdoptionMakesRoomInAFullFosterParent: a foster parent that inserts
// filled before its child was adopted cannot take its high fence into the
// chain-high slot as well. The adoption must notice before it touches the
// parent, make room, and succeed on a later descent — not apply half, roll
// it back, and try again for ever.
func TestAdoptionMakesRoomInAFullFosterParent(t *testing.T) {
	tr, p := newTestTree(t)
	const n = 500
	loadKeys(t, tr, p, recordShapes[0], ascending(n))

	// The rightmost leaf is the one whose chain-high fence is infinite, so
	// clearing its foster pointer grows it by the whole high fence.
	lt := &latchTracker{}
	lh, _, _, err := tr.descend(key(n-1), nil, false, lt)
	if err != nil {
		t.Fatal(err)
	}
	leafID := lh.ID()
	lt.unpin(lh, false)
	if err := tr.fosterSplit(leafID, 1<<20, nil, &latchTracker{}); err != nil {
		t.Fatal(err)
	}

	// Fill the foster parent to within two bytes of its capacity, below the
	// descents that would adopt its child first.
	h, err := p.Fetch(leafID)
	if err != nil {
		t.Fatal(err)
	}
	h.Lock()
	parent, err := parseNode(h.Page().Payload())
	if err != nil {
		t.Fatal(err)
	}
	if !parent.hasFoster() || !parent.chain.inf {
		t.Fatalf("page %d: foster %d, chain-high %v: not a rightmost foster parent", leafID, parent.foster, parent.chain)
	}
	k, _, _, err := parent.Record(0)
	if err != nil {
		t.Fatal(err)
	}
	filler := append(append([]byte(nil), k...), '+')
	room := h.Page().Capacity() - parent.Size() - 2
	tx := p.txns.Begin()
	if err := ops.LogApply(tx, h, pageop.EncodeInsert(tr.root, filler, make([]byte, room-page.RecordSize(len(filler), 0)))); err != nil {
		t.Fatal(err)
	}
	h.Unlock()
	h.Release()

	// Every write descent through a foster parent's parent retries the
	// adoption: the first makes room (a second split), the following ones
	// adopt the two foster children.
	for round := 0; round < 3; round++ {
		for i := n - 40; i < n; i++ {
			if err := tr.Update(tx, key(i), val(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	mustCommit(t, tx)
	verifyClean(t, tr)
	st, err := tr.WalkStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Fosters != 0 {
		t.Errorf("%d foster children left after the write descents: the full foster parent was never adopted", st.Fosters)
	}
	if got, err := tr.Get(filler); err != nil || len(got) == 0 {
		t.Errorf("filler record reads back %d bytes, %v", len(got), err)
	}
}
