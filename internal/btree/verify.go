package btree

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

// VerifyAll exhaustively checks every structural invariant of the tree —
// the offline, full-scan verification that utilities like DBCC or db2dart
// perform (§2). The paper's point is that Foster B-trees make most of
// these checks continuous side effects of normal descents; this function
// exists as the comparator and as the deep audit after fault-injection
// campaigns.
//
// Checks per node: fence ordering, key ordering and fence containment,
// branch shape (children = separators + 1), level consistency between
// parent and child, fence agreement between parent separators and child
// fences (including along foster chains), and exactly one incoming pointer
// per node.
//
// VerifyAll latches one page at a time (shared), so it runs without
// blocking foreground traffic — but like any offline audit it assumes a
// quiesced tree for exact results: a structural change between two of its
// page visits can surface as a transient violation.
func (tr *Tree) VerifyAll() ([]Violation, error) {
	var viols []Violation
	seen := make(map[page.ID]int) // incoming pointer count

	type job struct {
		id           page.ID
		expLow       fence
		expChainHigh fence
		expLevel     int // -1 = unknown (root)
	}
	queue := []job{{id: tr.root, expLow: finite(nil), expChainHigh: infFence, expLevel: -1}}
	for len(queue) > 0 {
		j := queue[0]
		queue = queue[1:]
		seen[j.id]++
		if seen[j.id] > 1 {
			viols = append(viols, Violation{j.id, "more than one incoming pointer"})
			continue
		}
		h, err := tr.pager.Fetch(j.id)
		if err != nil {
			return viols, fmt.Errorf("btree: verify fetch of page %d: %w", j.id, err)
		}
		h.RLock()
		// The whole-page structural validation (offsets, entry shape, key
		// order) first: the accessors below then walk a sound page.
		derr := h.Page().Check()
		var n node
		if derr == nil {
			n, derr = parseNode(h.Page().Payload())
		}
		if derr != nil {
			viols = append(viols, Violation{j.id, derr.Error()})
			h.RUnlock()
			h.Release()
			continue
		}
		viols = append(viols, verifyNodeShape(j.id, &n)...)
		if !n.low.equal(j.expLow) {
			viols = append(viols, Violation{j.id, fmt.Sprintf(
				"low fence %v, expected %v", n.low, j.expLow)})
		}
		if !n.chain.equal(j.expChainHigh) {
			viols = append(viols, Violation{j.id, fmt.Sprintf(
				"chain high fence %v, expected %v", n.chain, j.expChainHigh)})
		}
		if j.expLevel >= 0 && int(n.level) != j.expLevel {
			viols = append(viols, Violation{j.id, fmt.Sprintf(
				"level %d, expected %d", n.level, j.expLevel)})
		}
		// Queued expectations outlive this node's latch, and the fences
		// alias the page payload: clone them.
		if n.hasFoster() {
			queue = append(queue, job{
				id: n.foster, expLow: n.high.clone(), expChainHigh: n.chain.clone(),
				expLevel: int(n.level),
			})
		}
		if !n.isLeaf() {
			for i := 0; i < n.fanout(); i++ {
				// Check passed, so these accessors cannot fail.
				c, _ := n.child(i)
				eLow, _ := n.sepFence(i - 1)
				eHigh, _ := n.sepFence(i)
				queue = append(queue, job{id: c, expLow: eLow.clone(), expChainHigh: eHigh.clone(),
					expLevel: int(n.level) - 1})
			}
		}
		h.RUnlock()
		h.Release()
	}
	return viols, nil
}

// verifyNodeShape checks the intra-node invariants (Fig. 2: all key values
// fall between the two fences).
func verifyNodeShape(id page.ID, n *node) []Violation {
	var v []Violation
	if !n.low.less(n.high) && !n.low.equal(n.high) {
		v = append(v, Violation{id, fmt.Sprintf("inverted fences %v >= %v", n.low, n.high)})
	}
	if n.high.inf && n.hasFoster() {
		v = append(v, Violation{id, "foster child with infinite high fence"})
	}
	if n.hasFoster() && n.chain.less(n.high) {
		v = append(v, Violation{id, "chain high below high fence"})
	}
	if !n.hasFoster() && !n.high.equal(n.chain) {
		v = append(v, Violation{id, "chain high differs from high without foster child"})
	}
	// Key order and non-empty keys were established by page.Check; what is
	// left is fence containment, for entries and separators alike.
	what := "separator"
	if n.isLeaf() {
		what = "key"
	}
	for i := 0; i < n.Count(); i++ {
		k, val, _, err := n.Record(i)
		if err != nil {
			v = append(v, Violation{id, err.Error()})
			break
		}
		if !coversKey(n.low, n.high, k) {
			v = append(v, Violation{id, fmt.Sprintf(
				"%s %q outside fences [%v, %v)", what, k, n.low, n.high)})
		}
		if !n.isLeaf() && len(val) != 8 {
			v = append(v, Violation{id, fmt.Sprintf(
				"branch record %d holds a %d-byte child pointer", i, len(val))})
		}
	}
	return v
}

// WalkStats traverses the whole tree and returns aggregate statistics.
// Like VerifyAll it latches one page at a time; counts taken against a
// concurrently mutating tree are approximate.
func (tr *Tree) WalkStats() (Stats, error) {
	var st Stats
	var walk func(id page.ID, depth int) error
	walk = func(id page.ID, depth int) error {
		h, err := tr.pager.Fetch(id)
		if err != nil {
			return err
		}
		h.RLock()
		n, err := parseNode(h.Page().Payload())
		if err != nil {
			h.RUnlock()
			h.Release()
			return err
		}
		st.Nodes++
		if depth+1 > st.Height {
			st.Height = depth + 1
		}
		if n.hasFoster() {
			st.Fosters++
		}
		var children []page.ID
		if n.isLeaf() {
			st.Leaves++
			for i := 0; err == nil && i < n.Count(); i++ {
				var ghost bool
				if _, _, ghost, err = n.Record(i); ghost {
					st.Ghosts++
				} else {
					st.Entries++
				}
			}
		} else {
			children = make([]page.ID, n.fanout())
			for i := 0; err == nil && i < len(children); i++ {
				children[i], err = n.child(i)
			}
		}
		if err != nil {
			h.RUnlock()
			h.Release()
			return err
		}
		foster := n.foster
		h.RUnlock()
		h.Release()
		if foster != page.InvalidID {
			// Foster children sit at the same depth as their foster
			// parent.
			if err := walk(foster, depth); err != nil {
				return err
			}
		}
		for _, c := range children {
			if err := walk(c, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(tr.root, 0); err != nil {
		return st, err
	}
	return st, nil
}
