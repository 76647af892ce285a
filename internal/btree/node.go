// Package btree implements a Foster B-tree (Graefe, Kimura, Kuno) with
// symmetric fence keys — the storage structure the paper uses to show that
// comprehensive failure detection can run as a side effect of normal
// root-to-leaf descents (§4.2, Figs. 2–3).
//
// Every node carries a low and a high fence key: copies of the separator
// keys posted in the node's parent when the node was split from its
// neighbors. A node that recently split acts as the "foster parent" of its
// new sibling (the "foster child") until the permanent parent adopts it;
// during that time the foster parent carries the high fence of the entire
// foster chain so that consistency checks can cover the chain from the
// parent. Each node has exactly one incoming pointer at all times, which
// enables cheap page migration (write-optimized B-trees, §5.1.3/§5.2.1).
package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/page"
	"repro/internal/pageop"
)

// Errors from node parsing and structural checks. ErrNodeCorrupt is the
// shared layout error, so a violation reads the same whether the layout
// (internal/page) or the B-tree header check found it; the operation
// outcomes are the ones both engines share (internal/pageop).
var (
	ErrNodeCorrupt   = page.ErrCorrupt
	ErrNodeFull      = errors.New("btree: node full")
	ErrKeyNotFound   = pageop.ErrKeyNotFound
	ErrKeyExists     = pageop.ErrKeyExists
	ErrDetected      = pageop.ErrDetected
	ErrKeyOutOfFence = errors.New("btree: key outside node fences")
)

// CorruptionError is the shared cross-page check failure.
type CorruptionError = pageop.CorruptionError

// fence is a fence key: a byte string or +infinity (the upper bound of the
// rightmost nodes). The empty byte string serves as -infinity since keys
// are non-empty.
type fence struct {
	inf bool
	k   []byte
}

var infFence = fence{inf: true}

func finite(k []byte) fence { return fence{k: k} }

// less reports f < g in fence order.
func (f fence) less(g fence) bool {
	if f.inf {
		return false
	}
	if g.inf {
		return true
	}
	return bytes.Compare(f.k, g.k) < 0
}

// equal reports fence equality.
func (f fence) equal(g fence) bool {
	return f.inf == g.inf && (f.inf || bytes.Equal(f.k, g.k))
}

// clone deep-copies a fence. Decoded fences alias their page payload; a
// fence retained past the page latch must be cloned.
func (f fence) clone() fence {
	if f.inf {
		return infFence
	}
	return finite(append([]byte(nil), f.k...))
}

// coversKey reports low <= key < high for a node with these fences.
func coversKey(low, high fence, key []byte) bool {
	if !low.inf && bytes.Compare(key, low.k) < 0 {
		return false
	}
	if high.inf {
		return true
	}
	return bytes.Compare(key, high.k) < 0
}

func (f fence) String() string {
	if f.inf {
		return "+inf"
	}
	return fmt.Sprintf("%q", f.k)
}

// A node page is a record page (internal/page Records) of kind KindNode
// operated on in place — there is no decoded node struct. The engine
// extension and the three reserved records carry the B-tree's header:
//
//	extension: u16 level (0 = leaf)
//	           u8  flags (bit0 foster present, bit1 high==inf, bit2 chainHigh==inf)
//	           u64 foster page id (0 when none)
//	           u64 leftmost child id (0 in leaves)
//	reserved:  low fence, high fence, chain-high fence (empty when infinite;
//	           low is never infinite — the leftmost node's low fence is the
//	           empty string)
//	records:   leaf:   key -> value, ghost flag in the record
//	           branch: separator -> child id; the child left of the first
//	                   separator is the extension's leftmost child, so child
//	                   i covers [sep[i-1], sep[i]) with sep[-1] = low and
//	                   sep[count] = high
const (
	nodeExtSize = 2 + 1 + 8 + 8

	flagFoster   = 1 << 0
	flagHighInf  = 1 << 1
	flagChainInf = 1 << 2

	// Reserved record slots.
	slotLow, slotHigh, slotChain = 0, 1, 2
)

// node is the parsed header of a latched node page: the record view plus
// the extension fields and fences, every slice aliasing the payload. It is
// valid only while the caller's page latch is held and becomes stale the
// moment an op is applied to the page; callers retaining any field beyond
// that window copy it explicitly.
type node struct {
	page.Records
	level  uint16
	foster page.ID
	child0 page.ID // leftmost child (branches)
	low    fence   // inclusive lower bound
	high   fence   // exclusive upper bound of keys in THIS node
	chain  fence   // high fence of the entire foster chain (== high when no foster child)
}

func (n *node) isLeaf() bool    { return n.level == 0 }
func (n *node) hasFoster() bool { return n.foster != page.InvalidID }

// fanout returns the number of entries (leaf) or children (branch).
func (n *node) fanout() int {
	if n.isLeaf() {
		return n.Count()
	}
	return n.Count() + 1
}

// nodeExt encodes the extension.
func nodeExt(level uint16, foster, child0 page.ID, high, chain fence) []byte {
	ext := make([]byte, nodeExtSize)
	binary.LittleEndian.PutUint16(ext, level)
	if foster != page.InvalidID {
		ext[2] |= flagFoster
	}
	if high.inf {
		ext[2] |= flagHighInf
	}
	if chain.inf {
		ext[2] |= flagChainInf
	}
	binary.LittleEndian.PutUint64(ext[3:], uint64(foster))
	binary.LittleEndian.PutUint64(ext[11:], uint64(child0))
	return ext
}

// newNodePayload builds the payload of a node holding no records yet.
func newNodePayload(level uint16, low, high, chain fence, foster, child0 page.ID) []byte {
	return page.NewRecords(page.KindNode, nodeExt(level, foster, child0, high, chain), low.k, high.k, chain.k)
}

// parseNode reads a node page's header and runs the in-page plausibility
// checks every read repeats (§4.2): layout kind, extension shape, flag and
// pointer agreement. Record offsets are bounds-checked as they are
// dereferenced; the whole-page structure was validated by page.Check when
// the image entered the pool.
func parseNode(payload []byte) (node, error) {
	r, err := page.ParseRecords(payload)
	if err != nil {
		return node{}, err
	}
	ext := r.Ext()
	if r.Kind() != page.KindNode || len(ext) != nodeExtSize || r.Reserved() != 3 {
		return node{}, fmt.Errorf("%w: not a B-tree node (kind %d, extension %d bytes, %d reserved records)",
			ErrNodeCorrupt, r.Kind(), len(ext), r.Reserved())
	}
	n := node{
		Records: r,
		level:   binary.LittleEndian.Uint16(ext),
		foster:  page.ID(binary.LittleEndian.Uint64(ext[3:])),
		child0:  page.ID(binary.LittleEndian.Uint64(ext[11:])),
	}
	flags := ext[2]
	var fk [3][]byte
	for i := range fk {
		if fk[i], err = r.ReservedRecord(i); err != nil {
			return node{}, err
		}
	}
	n.low, n.high, n.chain = finite(fk[slotLow]), finite(fk[slotHigh]), finite(fk[slotChain])
	if flags&flagHighInf != 0 {
		n.high = infFence
	}
	if flags&flagChainInf != 0 {
		n.chain = infFence
	}
	switch {
	case flags&^(flagFoster|flagHighInf|flagChainInf) != 0:
		return node{}, fmt.Errorf("%w: unknown flag bits %#x", ErrNodeCorrupt, flags)
	case (flags&flagFoster != 0) != n.hasFoster():
		return node{}, fmt.Errorf("%w: foster flag disagrees with foster id %d", ErrNodeCorrupt, n.foster)
	case n.high.inf && len(fk[slotHigh]) != 0, n.chain.inf && len(fk[slotChain]) != 0:
		return node{}, fmt.Errorf("%w: infinite fence with key bytes", ErrNodeCorrupt)
	case n.isLeaf() != (n.child0 == page.InvalidID):
		return node{}, fmt.Errorf("%w: level %d with leftmost child %d", ErrNodeCorrupt, n.level, n.child0)
	}
	return n, nil
}

// child returns branch child i (0 <= i < fanout).
func (n *node) child(i int) (page.ID, error) {
	if i == 0 {
		return n.child0, nil
	}
	_, v, _, err := n.Record(i - 1)
	if err != nil {
		return 0, err
	}
	if len(v) != 8 {
		return 0, fmt.Errorf("%w: branch record %d holds a %d-byte child pointer", ErrNodeCorrupt, i-1, len(v))
	}
	return page.ID(binary.LittleEndian.Uint64(v)), nil
}

// sepFence returns the fence separator i denotes, with sep[-1] = low and
// sep[count] = high.
func (n *node) sepFence(i int) (fence, error) {
	switch {
	case i < 0:
		return n.low, nil
	case i >= n.Count():
		return n.high, nil
	}
	k, _, _, err := n.Record(i)
	return finite(k), err
}

// childFor returns the page ID of the child covering key, plus the
// expected fences of that child derived from the separators — the
// redundancy every descent verifies (§4.2). Branch nodes only.
func (n *node) childFor(key []byte) (childID page.ID, expLow, expHigh fence, err error) {
	// The child right of separator i covers keys >= sep[i]: route to the
	// child after the last separator <= key.
	i, found, err := n.Find(key)
	if err != nil {
		return 0, fence{}, fence{}, err
	}
	if found {
		i++
	}
	if childID, err = n.child(i); err != nil {
		return 0, fence{}, fence{}, err
	}
	if expLow, err = n.sepFence(i - 1); err != nil {
		return 0, fence{}, fence{}, err
	}
	if expHigh, err = n.sepFence(i); err != nil {
		return 0, fence{}, fence{}, err
	}
	return childID, expLow, expHigh, nil
}

// hasChild reports whether id is among the branch node's children.
func (n *node) hasChild(id page.ID) (bool, error) {
	for i := 0; i < n.fanout(); i++ {
		c, err := n.child(i)
		if err != nil {
			return false, err
		}
		if c == id {
			return true, nil
		}
	}
	return false, nil
}

// splitPoint chooses the first entry (leaf) or child (branch) a split moves
// to the foster child. The split point follows where the pending insert
// lands: when key — the leaf key or branch separator the caller is making
// room for; nil when it has none — sorts after the node's last record, the
// node keeps all it can and the foster child starts nearly empty, so an
// ascending load leaves full pages behind it instead of half-empty ones.
// All it can is everything but the last record, less whatever else must go
// to keep room for the adoption that follows: clearing the foster pointer
// copies the new high fence into the chain-high slot, and a foster parent
// too full for that could never hand its child over. Anywhere else the node
// splits in half.
func (n *node) splitPoint(key []byte, capacity int) (int, error) {
	half := n.fanout() / 2
	if key == nil {
		return half, nil
	}
	end, _, _, err := n.Record(n.Count() - 1)
	if err != nil {
		return 0, err
	}
	if bytes.Compare(key, end) <= 0 {
		return half, nil
	}
	// size is what the node keeps, without its high fence. cut is the first
	// record to leave: entry mid of a leaf, separator mid-1 of a branch (it
	// becomes the foster key) — the node's last record either way.
	size := n.Size() - len(n.high.k)
	cut := n.Count() - 1
	for mid := n.fanout() - 1; mid > half; mid, cut = mid-1, cut-1 {
		k, v, _, err := n.Record(cut)
		if err != nil {
			return 0, err
		}
		size -= page.RecordSize(len(k), len(v))
		// The foster key is this separator in a branch and no longer than
		// this key in a leaf; it lands in the high fence now and in the
		// chain-high fence at adoption.
		if size+2*len(k)-len(n.chain.k) <= capacity {
			return mid, nil
		}
	}
	return half, nil
}

// splitOff builds the foster child that takes the upper part of the node on
// pg, from splitPoint on: records [mid, count) move to the child. In a leaf
// the foster key is the shortest separator between the parts; in a branch it
// is separator mid-1 itself, which leaves the records — its child becomes
// the foster child's leftmost — exactly as in a permanent-parent split. The
// child starts as a copy of the node (same level, high and chain-high
// fences, foster pointer) and drops the lower part, so the moved records
// are spliced as one block, never rebuilt one by one.
func splitOff(pg *page.Page, n *node, key []byte) (child *page.Page, fosterKey []byte, err error) {
	mid, err := n.splitPoint(key, pg.Capacity())
	if err != nil {
		return nil, nil, err
	}
	last, _, _, err := n.Record(mid - 1)
	if err != nil {
		return nil, nil, err
	}
	child0 := page.InvalidID
	if n.isLeaf() {
		first, _, _, err := n.Record(mid)
		if err != nil {
			return nil, nil, err
		}
		fosterKey = shortestSeparator(last, first)
	} else {
		fosterKey = append([]byte(nil), last...)
		if child0, err = n.child(mid); err != nil {
			return nil, nil, err
		}
	}
	child = pg.Clone()
	if err := child.RemoveRecords(0, mid); err != nil {
		return nil, nil, err
	}
	if err := child.SetReservedRecord(slotLow, fosterKey); err != nil {
		return nil, nil, err
	}
	r, err := page.ParseRecords(child.Payload())
	if err != nil {
		return nil, nil, err
	}
	binary.LittleEndian.PutUint64(r.Ext()[11:], uint64(child0))
	return child, fosterKey, nil
}

// PageRole classifies a B-tree page payload for tests and tooling: "leaf"
// or "branch".
func PageRole(payload []byte) (string, error) {
	n, err := parseNode(payload)
	if err != nil {
		return "", err
	}
	if n.isLeaf() {
		return "leaf", nil
	}
	return "branch", nil
}

// shortestSeparator returns the shortest byte string s with a < s <= b,
// implementing suffix truncation of separator keys (Bayer/Unterauer prefix
// B-trees, cited by the paper for small fence keys).
func shortestSeparator(a, b []byte) []byte {
	for i := 0; i < len(b); i++ {
		var ca byte
		if i < len(a) {
			ca = a[i]
		} else if i == len(a) {
			// a is a strict prefix of b: the shortest separator is
			// b's prefix one byte longer than a... but any s with
			// prefix a and s <= b works only if s > a; a+b[i] is
			// the candidate.
			return append(append([]byte{}, b[:i]...), b[i])
		}
		if b[i] > ca {
			// Truncate after this position.
			return append(append([]byte{}, b[:i]...), b[i])
		}
		if b[i] < ca {
			// Shouldn't happen for a < b; fall back to b.
			break
		}
	}
	return append([]byte{}, b...)
}
