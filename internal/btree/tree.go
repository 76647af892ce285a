package btree

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/buffer"
	"repro/internal/page"
	"repro/internal/txn"
)

// Pager abstracts what the tree needs from the engine: page allocation
// (with format logging and page recovery index registration), page access
// through the validating buffer pool, and system transactions for
// structural changes.
type Pager interface {
	// AllocateNode allocates a fresh logical page, installs it in the
	// buffer pool, logs its TypeFormat record under t (which registers
	// the format record as the page's backup, §5.2.1), and returns the
	// pinned handle.
	AllocateNode(t *txn.Txn, typ page.Type, initialPayload []byte) (*buffer.Handle, error)
	// Fetch pins a page through the validating read path (Fig. 8).
	Fetch(id page.ID) (*buffer.Handle, error)
	// BeginSystem starts a system transaction (§5.1.5).
	BeginSystem() *txn.Txn
}

// ErrValueTooLarge reports an entry that cannot fit a node even after a
// split.
var ErrValueTooLarge = errors.New("btree: key/value too large for page")

// Tree is a Foster B-tree over a Pager.
//
// Concurrency is per page, not per tree: every operation crabs root-to-leaf
// with latch coupling (see descend), structural changes latch exactly the
// one or two pages they touch, and no operation ever holds more than two
// page latches at once. Readers of disjoint pages never contend; writers of
// disjoint leaves never contend; a structural change blocks only descents
// passing through its parent/child pair while its two log records apply.
type Tree struct {
	name  string
	root  page.ID
	pager Pager

	// rootIsBranch is a monotone hint (root growth never reverses): while
	// false, writers latch the root exclusively because it may be the
	// leaf they will update; once the root is seen to be a branch,
	// writers crab through it with a shared latch like any other branch.
	rootIsBranch atomic.Bool

	// optimisticOff disables the optimistic (version-validated, latch-free
	// on branch levels) descent, forcing every operation through the
	// latched crab. Benchmarks use it to measure the latched baseline;
	// default off (optimistic enabled).
	optimisticOff atomic.Bool

	// Optimistic-descent outcome counters: a hit completed the whole
	// descent routing branch levels without latches; a fallback re-ran it
	// through the latched crab (writer collision, skeleton miss under
	// contention, foster chain on a branch, or any verification anomaly).
	optHits      atomic.Int64
	optFallbacks atomic.Int64

	// Cumulative structural-change counters (foster churn).
	splits    atomic.Int64
	adoptions atomic.Int64
	rootGrows atomic.Int64
}

// SetOptimistic toggles the optimistic descent (enabled by default).
// Disabling forces the latched crab on every operation — the baseline the
// E23 and E28 benchmarks compare against.
func (tr *Tree) SetOptimistic(on bool) { tr.optimisticOff.Store(!on) }

// OptimisticStats reports how many descents completed optimistically and
// how many fell back to the latched crab.
func (tr *Tree) OptimisticStats() (hits, fallbacks int64) {
	return tr.optHits.Load(), tr.optFallbacks.Load()
}

// Counters reports cumulative structural changes: foster splits performed,
// foster children adopted by permanent parents, and root growths.
func (tr *Tree) Counters() (splits, adoptions, rootGrows int64) {
	return tr.splits.Load(), tr.adoptions.Load(), tr.rootGrows.Load()
}

// Stats snapshots tree-level counters maintained on demand (see Walk).
type Stats struct {
	Nodes   int
	Leaves  int
	Entries int // live (non-ghost) leaf entries
	Ghosts  int
	Fosters int // nodes currently holding a foster pointer
	Height  int
}

// Create builds a new empty tree: a single root leaf covering (-inf, +inf).
// The caller supplies the transaction under which the root's format record
// is logged (typically a system transaction).
func Create(t *txn.Txn, name string, pager Pager) (*Tree, error) {
	h, err := pager.AllocateNode(t, page.TypeBTree,
		newNodePayload(0, finite(nil), infFence, infFence, page.InvalidID, page.InvalidID))
	if err != nil {
		return nil, fmt.Errorf("btree: creating %q: %w", name, err)
	}
	root := h.ID()
	h.Release()
	return &Tree{name: name, root: root, pager: pager}, nil
}

// Open attaches to an existing tree rooted at root.
func Open(name string, root page.ID, pager Pager) *Tree {
	return &Tree{name: name, root: root, pager: pager}
}

// Name returns the tree's name.
func (tr *Tree) Name() string { return tr.name }

// Root returns the root page ID (stable for the life of the tree).
func (tr *Tree) Root() page.ID { return tr.root }

// adoptJob remembers one adoptable foster relationship a descent passed:
// childID holds a foster pointer that its branch parent should absorb. The
// adoption runs after the descent's leaf work completes (finishAdoptions),
// under a fresh exclusive latch pair with full revalidation, so the descent
// itself never escalates its latches.
type adoptJob struct {
	parent page.ID
	child  page.ID
}

// descend walks root-to-leaf for key with latch coupling ("crabbing"): the
// child is pinned, latched, and verified against the fences the parent
// predicts (§4.2, Figs. 2–3) BEFORE the parent latch is released, so no
// descent can observe a half-applied structural change, and at most two
// page latches are held at any instant. Readers latch every node shared;
// writers latch branches shared and the leaf level exclusive (the root is
// latched exclusive until it is known to be a branch). Foster chains are
// followed with the same hand-over-hand protocol, validating the foster
// child against the foster parent's high and chain-high fences.
//
// Fence expectations are only ever compared while the node that produced
// them is still latched, which is what makes the §4.2 checks sound under
// concurrency: a split changes neither a node's low nor its chain-high
// fence, and the one operation that does rewrite them — adoption — runs
// under an exclusive latch pair covering exactly the two pages a crabbing
// descent would compare.
//
// With a non-nil adopt transaction the descent records foster children due
// for adoption in the returned job list; the caller drains it with
// finishAdoptions after its leaf work.
//
// The returned leaf handle is pinned and still LATCHED (shared for readers,
// exclusive for writers), along with its parsed node header; the caller releases
// both latch and pin.
//
// When the optimistic mode is enabled (the default) and the root is known
// to be a branch, descend first attempts descendOptimistic — the same walk
// routed through cached skeletons with version validation instead of
// branch latches — and falls back here on any anomaly. The fallback is the
// authority: it re-verifies every fence under real latches, so corruption
// detection never depends on optimistic state.
func (tr *Tree) descend(key []byte, adopt *txn.Txn, write bool, lt *latchTracker) (*buffer.Handle, node, []adoptJob, error) {
	if !tr.optimisticOff.Load() && tr.rootIsBranch.Load() {
		if h, v, pend, ok := tr.descendOptimistic(key, adopt != nil, write, lt); ok {
			tr.optHits.Add(1)
			return h, v, pend, nil
		}
		tr.optFallbacks.Add(1)
	}
	var pend []adoptJob
	var none node
	curID := tr.root
	excl := write && !tr.rootIsBranch.Load()
	h, err := tr.pager.Fetch(curID)
	if err != nil {
		return nil, none, nil, err
	}
	lt.latchBranch(h, excl)
	v, err := parseNode(h.Page().Payload())
	if err != nil {
		lt.unpin(h, excl)
		return nil, none, nil, err
	}
	if viol := verifyFences(curID, page.InvalidID, &v, finite(nil), infFence, -1); viol != nil {
		lt.unpin(h, excl)
		return nil, none, nil, viol
	}
	if !v.isLeaf() {
		tr.rootIsBranch.Store(true)
	}
	for {
		// Follow the foster chain if the key lies beyond this node's own
		// range: the foster child's fences must line up with the foster
		// parent's (Fig. 3).
		if v.hasFoster() && !coversKey(v.low, v.high, key) {
			nextID := v.foster
			if nextID == curID {
				viol := &CorruptionError{Page: curID, Detail: "foster pointer to self"}
				lt.unpin(h, excl)
				return nil, none, nil, viol
			}
			nh, err := tr.pager.Fetch(nextID)
			if err != nil {
				lt.unpin(h, excl)
				return nil, none, nil, err
			}
			if v.isLeaf() { // same level: same mode
				lt.latchLeaf(nh, excl)
			} else {
				lt.latchBranch(nh, excl)
			}
			nv, err := parseNode(nh.Page().Payload())
			if err != nil {
				lt.unpin(nh, excl)
				lt.unpin(h, excl)
				return nil, none, nil, err
			}
			if viol := verifyFences(nextID, curID, &nv, v.high, v.chain, int(v.level)); viol != nil {
				lt.unpin(nh, excl)
				lt.unpin(h, excl)
				return nil, none, nil, viol
			}
			lt.unpin(h, excl)
			h, v, curID = nh, nv, nextID
			continue
		}
		if v.isLeaf() {
			return h, v, pend, nil
		}
		childID, eLow, eHigh, err := v.childFor(key)
		if err != nil {
			lt.unpin(h, excl)
			return nil, none, nil, err
		}
		if childID == curID {
			viol := &CorruptionError{Page: curID, Detail: "child pointer to self"}
			lt.unpin(h, excl)
			return nil, none, nil, viol
		}
		ch, err := tr.pager.Fetch(childID)
		if err != nil {
			lt.unpin(h, excl)
			return nil, none, nil, err
		}
		chExcl := write && v.level == 1
		if v.level == 1 {
			lt.latchLeaf(ch, chExcl)
		} else {
			lt.latchBranch(ch, chExcl)
		}
		cv, err := parseNode(ch.Page().Payload())
		if err != nil {
			lt.unpin(ch, chExcl)
			lt.unpin(h, excl)
			return nil, none, nil, err
		}
		if viol := verifyFences(childID, curID, &cv, eLow, eHigh, int(v.level)-1); viol != nil {
			lt.unpin(ch, chExcl)
			lt.unpin(h, excl)
			return nil, none, nil, viol
		}
		if adopt != nil && cv.hasFoster() && !cv.high.inf {
			pend = append(pend, adoptJob{parent: curID, child: childID})
		}
		lt.unpin(h, excl)
		h, v, curID, excl = ch, cv, childID, chExcl
	}
}

// descendOptimistic is the optimistic-latch-coupling fast path: branch
// levels are routed through per-frame cached skeletons with NO latch —
// each hop reads the frame's stable version, routes through the skeleton
// built from that version, and re-validates the version before acting on
// the result — while the leaf is still latched for real (shared for
// readers, exclusive for writers), so mutations and the §4.2 fence
// verification stay exact. The frame pin is kept throughout (Fetch), so
// no frame this walk touches can be evicted or replaced mid-read; only
// the per-level RWMutex traffic is elided.
//
// Any anomaly — an odd (writer-active) version, a version that moved, a
// skeleton that will not build, a foster chain on a branch, a fence
// mismatch, a fetch error — returns ok=false and the caller falls back to
// the latched crab, which re-verifies everything authoritatively. The
// optimistic path therefore never reports corruption itself and never
// routes past a fence check undetected: routing is only trusted when the
// version it came from is proven unchanged, and the final leaf check runs
// under a real latch with expectations from that proven snapshot.
func (tr *Tree) descendOptimistic(key []byte, wantAdopt, write bool, lt *latchTracker) (*buffer.Handle, node, []adoptJob, bool) {
	var none node
	curID := tr.root
	h, err := tr.pager.Fetch(curID)
	if err != nil {
		return nil, none, nil, false
	}
	ver, stable := h.StableVersion()
	if !stable {
		h.Release()
		return nil, none, nil, false
	}
	sk := skeletonFor(h, ver)
	expLow, expHigh, expLevel := finite(nil), infFence, -1
	for {
		// The node must be a quiescent branch whose fences match what the
		// parent predicted — the optimistic rendering of verifyFences for
		// the no-foster branch case (foster on a branch level is rare and
		// transient; the latched path handles it).
		if sk == nil || sk.hasFoster() || (expLevel >= 0 && int(sk.level) != expLevel) ||
			!sk.low.equal(expLow) || !sk.chain.equal(expHigh) || !sk.high.equal(sk.chain) {
			h.Release()
			return nil, none, nil, false
		}
		childID, eLow, eHigh := sk.childFor(key)
		if childID == curID {
			h.Release()
			return nil, none, nil, false
		}
		ch, err := tr.pager.Fetch(childID)
		if err != nil {
			h.Release()
			return nil, none, nil, false
		}
		if sk.level == 1 {
			// Leaf level: latch for real, then prove the routing that led
			// here is still current before trusting its expectations.
			chExcl := write
			lt.latchLeaf(ch, chExcl)
			if !h.ValidateVersion(ver) {
				lt.unpin(ch, chExcl)
				h.Release()
				return nil, none, nil, false
			}
			h.Release()
			cv, perr := parseNode(ch.Page().Payload())
			if perr != nil || verifyFences(childID, curID, &cv, eLow, eHigh, 0) != nil {
				lt.unpin(ch, chExcl)
				return nil, none, nil, false
			}
			var pend []adoptJob
			if wantAdopt && cv.hasFoster() && !cv.high.inf {
				pend = append(pend, adoptJob{parent: curID, child: childID})
			}
			// Leaf foster chase under real latches: every step is the
			// authoritative hand-over-hand §4.2 check, same as descend.
			lh, lv, lid := ch, cv, childID
			for lv.hasFoster() && !coversKey(lv.low, lv.high, key) {
				nextID := lv.foster
				if nextID == lid {
					lt.unpin(lh, chExcl)
					return nil, none, nil, false
				}
				nh, err := tr.pager.Fetch(nextID)
				if err != nil {
					lt.unpin(lh, chExcl)
					return nil, none, nil, false
				}
				lt.latchLeaf(nh, chExcl)
				nv, perr := parseNode(nh.Page().Payload())
				if perr != nil || verifyFences(nextID, lid, &nv, lv.high, lv.chain, 0) != nil {
					lt.unpin(nh, chExcl)
					lt.unpin(lh, chExcl)
					return nil, none, nil, false
				}
				lt.unpin(lh, chExcl)
				lh, lv, lid = nh, nv, nextID
			}
			return lh, lv, pend, true
		}
		// Interior hop: snapshot the child's version and skeleton, then
		// prove the parent did not change while we did — the optimistic
		// equivalent of "the child is verified before the parent latch
		// drops". The child's fences are checked at the top of the next
		// iteration against eLow/eHigh, which alias the parent's immutable
		// skeleton and so outlive the parent pin.
		cver, cstable := ch.StableVersion()
		if !cstable {
			ch.Release()
			h.Release()
			return nil, none, nil, false
		}
		csk := skeletonFor(ch, cver)
		if csk == nil || !h.ValidateVersion(ver) {
			ch.Release()
			h.Release()
			return nil, none, nil, false
		}
		h.Release()
		expLevel = int(sk.level) - 1
		h, ver, sk, curID = ch, cver, csk, childID
		expLow, expHigh = eLow, eHigh
	}
}

// finishAdoptions drains the adoption work a descent noted. Adoption is
// opportunistic maintenance — every condition is revalidated under the
// latch pair, and failures (contended latches, a page failure mid-fetch)
// are dropped: the next descent through the same parent will retry, and
// any real corruption resurfaces through the §4.2 checks of that descent.
func (tr *Tree) finishAdoptions(pend []adoptJob, lt *latchTracker) {
	for _, j := range pend {
		_, _ = tr.tryAdopt(j.parent, j.child, lt)
	}
}

// verifyFences checks what a descent expects of the node it just reached —
// the incremental, instantaneous error detection of §4.2: the fence keys
// the predecessor's separators predict, and the level its own level implies
// (expLevel < 0: unknown, at the root). The expectations were derived from
// the still-latched predecessor via (parent or foster parent), which is
// what makes the check sound under concurrency.
func verifyFences(id, via page.ID, v *node, expLow, expHigh fence, expLevel int) error {
	detail := ""
	switch {
	case expLevel >= 0 && int(v.level) != expLevel:
		detail = fmt.Sprintf("level %d, predecessor implies %d", v.level, expLevel)
	case !v.low.equal(expLow):
		detail = fmt.Sprintf("low fence %v, parent separator %v", v.low, expLow)
	case !v.chain.equal(expHigh):
		detail = fmt.Sprintf("chain high fence %v, parent separator %v", v.chain, expHigh)
	case v.hasFoster() && v.chain.less(v.high):
		detail = "high fence above chain high fence"
	case !v.hasFoster() && !v.high.equal(v.chain):
		detail = "no foster child but chain high differs from high"
	case v.hasFoster() && !v.low.less(v.high):
		detail = "foster parent with empty key range"
	default:
		return nil
	}
	return &CorruptionError{Page: id, Via: via, Detail: detail}
}

// tryAdopt moves child's foster child (if any) under the branch parent: the
// separator and pointer are inserted into the parent and the foster pointer
// cleared, all in one system transaction applied under an exclusive latch
// pair on parent and child. Concurrent descents crab through that pair
// strictly before or after the adoption, never between its two halves — the
// "localized structural change" that lets the tree drop any global writer
// lock. The latches are TryLocked: adoption is opportunistic, and a
// contended page means a later descent will retry. Returns whether an
// adoption happened.
func (tr *Tree) tryAdopt(parentID, childID page.ID, lt *latchTracker) (bool, error) {
	parentH, err := tr.pager.Fetch(parentID)
	if err != nil {
		return false, err
	}
	defer parentH.Release()
	if !lt.tryLatch(parentH) {
		return false, nil
	}
	parent, err := parseNode(parentH.Page().Payload())
	if err != nil {
		lt.unlatch(parentH, true)
		return false, err
	}
	// Everything was observed under latches long since released:
	// revalidate that the parent is still a branch holding this child.
	childStillOurs := false
	if !parent.isLeaf() {
		ok, err := parent.hasChild(childID)
		if err != nil {
			lt.unlatch(parentH, true)
			return false, err
		}
		childStillOurs = ok
	}
	if !childStillOurs {
		lt.unlatch(parentH, true)
		return false, nil
	}
	childH, err := tr.pager.Fetch(childID)
	if err != nil {
		lt.unlatch(parentH, true)
		return false, err
	}
	defer childH.Release()
	if !lt.tryLatch(childH) {
		lt.unlatch(parentH, true)
		return false, nil
	}
	child, err := parseNode(childH.Page().Payload())
	if err != nil {
		lt.unlatch(childH, true)
		lt.unlatch(parentH, true)
		return false, err
	}
	if !child.hasFoster() || child.high.inf || !child.high.less(child.chain) {
		lt.unlatch(childH, true)
		lt.unlatch(parentH, true)
		return false, nil
	}
	fosterPID := child.foster
	fosterKey := append([]byte(nil), child.high.k...)
	oldChainHigh := child.chain
	// Both halves must fit before either applies. A full parent is itself
	// split (or the root grown) so that adoptions keep draining foster
	// chains; without this, interior nodes would never split and chains
	// would grow without bound. A child that inserts filled since its split
	// is too full to take its high fence into the chain-high slot as well,
	// and makes room the same way.
	need := page.RecordSize(len(fosterKey), 8)
	grow := len(fosterKey) - len(oldChainHigh.k)
	parentFull := parent.Size()+need > parentH.Page().Capacity()
	if parentFull || child.Size()+grow > childH.Page().Capacity() {
		lt.unlatch(childH, true)
		lt.unlatch(parentH, true)
		if parentFull {
			return false, tr.makeSpace(parentID, need, fosterKey, true, lt)
		}
		return false, tr.makeSpace(childID, grow, nil, true, lt)
	}

	st := tr.pager.BeginSystem()
	if err := ops.LogApply(st, parentH, encodeAdoptOp(opAdopt, fosterKey, fosterPID)); err != nil {
		lt.unlatch(childH, true)
		lt.unlatch(parentH, true)
		_ = st.Abort()
		return false, err
	}
	if err = ops.LogApply(st, childH, encodeFosterOp(opClearFoster, fosterPID, oldChainHigh)); err == nil {
		err = st.Commit() // before the latches go: its undo is physical (ops.go)
	}
	lt.unlatch(childH, true)
	lt.unlatch(parentH, true)
	if err != nil {
		// The adopt half already applied to the parent: abort so its CLR
		// (deAdopt) removes the second incoming pointer instead of
		// leaking a half-applied adoption and an open system txn. The
		// latches are released, so the abort can re-latch freely.
		_ = st.Abort()
		return false, err
	}
	tr.adoptions.Add(1)
	return true, nil
}

// Get returns the value for key, or ErrKeyNotFound. The descent verifies
// every fence on the way down, holding at most two shared latches (none on
// branch levels when the optimistic fast path hits).
func (tr *Tree) Get(key []byte) ([]byte, error) {
	return tr.GetTo(nil, key)
}

// GetTo is Get appending the value to dst and returning the extended
// slice, so a caller that reuses its buffer reads with zero allocations on
// the optimistic hit path (the value is copied out under the leaf latch —
// it never aliases the page).
func (tr *Tree) GetTo(dst, key []byte) ([]byte, error) {
	if len(key) == 0 {
		return dst, fmt.Errorf("%w: empty key", ErrKeyNotFound)
	}
	lt := &latchTracker{}
	h, v, _, err := tr.descend(key, nil, false, lt)
	if err != nil {
		return dst, err
	}
	defer lt.unpin(h, false)
	val, ghost, found, err := v.Get(key)
	if err != nil {
		return dst, err
	}
	if !found || ghost {
		return dst, fmt.Errorf("%w: %q", ErrKeyNotFound, key)
	}
	return append(dst, val...), nil
}

// maxEntrySize bounds one leaf entry so that a split always makes progress.
func maxEntrySize(capacity int) int { return capacity / 4 }

// maxAttempts bounds the descend/make-space retry loops of the write
// operations. Each retry either fits, reclaims ghosts, or splits a node, so
// non-adversarial workloads converge within a handful of attempts.
const maxAttempts = 64

// Insert adds key=val under tx. Inserting an existing live key fails with
// ErrKeyExists; inserting over a ghost revives it.
func (tr *Tree) Insert(tx *txn.Txn, key, val []byte) error {
	if len(key) == 0 {
		return errors.New("btree: empty key")
	}
	lt := &latchTracker{}
	for attempt := 0; ; attempt++ {
		if attempt > maxAttempts {
			return errors.New("btree: insert did not converge after splits")
		}
		h, v, pend, err := tr.descend(key, tx, true, lt)
		if err != nil {
			return err
		}
		entrySize := page.RecordSize(len(key), len(val))
		if entrySize > maxEntrySize(h.Page().Capacity()) {
			lt.unpin(h, true)
			return fmt.Errorf("%w: %d bytes", ErrValueTooLarge, entrySize)
		}
		_, ghost, found, ferr := v.Get(key)
		if ferr != nil {
			lt.unpin(h, true)
			return ferr
		}
		if found && !ghost {
			lt.unpin(h, true)
			tr.finishAdoptions(pend, lt)
			return fmt.Errorf("%w: %q", ErrKeyExists, key)
		}
		if v.Size()+entrySize <= h.Page().Capacity() {
			err := ops.LogApply(tx, h, encodeLeafInsert(tr.root, key, val))
			lt.unpin(h, true)
			tr.finishAdoptions(pend, lt)
			return err
		}
		leafID := h.ID()
		lt.unpin(h, true)
		tr.finishAdoptions(pend, lt)
		if err := tr.makeSpace(leafID, entrySize, key, true, lt); err != nil {
			return err
		}
	}
}

// Update replaces the value of an existing live key under tx.
func (tr *Tree) Update(tx *txn.Txn, key, val []byte) error {
	if len(key) == 0 {
		return fmt.Errorf("%w: empty key", ErrKeyNotFound)
	}
	lt := &latchTracker{}
	for attempt := 0; ; attempt++ {
		if attempt > maxAttempts {
			return errors.New("btree: update did not converge after splits")
		}
		h, v, pend, err := tr.descend(key, tx, true, lt)
		if err != nil {
			return err
		}
		if es := page.RecordSize(len(key), len(val)); es > maxEntrySize(h.Page().Capacity()) {
			lt.unpin(h, true)
			return fmt.Errorf("%w: %d bytes", ErrValueTooLarge, es)
		}
		curVal, ghost, found, ferr := v.Get(key)
		if ferr != nil {
			lt.unpin(h, true)
			return ferr
		}
		if !found || ghost {
			lt.unpin(h, true)
			tr.finishAdoptions(pend, lt)
			return fmt.Errorf("%w: %q", ErrKeyNotFound, key)
		}
		old := append([]byte(nil), curVal...)
		if v.Size()-len(old)+len(val) <= h.Page().Capacity() {
			err := ops.LogApply(tx, h, encodeLeafUpdate(tr.root, key, val, old))
			lt.unpin(h, true)
			tr.finishAdoptions(pend, lt)
			return err
		}
		leafID := h.ID()
		lt.unpin(h, true)
		tr.finishAdoptions(pend, lt)
		if err := tr.makeSpace(leafID, len(val)-len(old), nil, true, lt); err != nil {
			return err
		}
	}
}

// Delete logically deletes key under tx by turning its record into a ghost
// (§5.1.5); a later system transaction reclaims the space.
func (tr *Tree) Delete(tx *txn.Txn, key []byte) error {
	if len(key) == 0 {
		return fmt.Errorf("%w: empty key", ErrKeyNotFound)
	}
	lt := &latchTracker{}
	h, v, pend, err := tr.descend(key, tx, true, lt)
	if err != nil {
		return err
	}
	_, ghost, found, ferr := v.Get(key)
	if ferr != nil {
		lt.unpin(h, true)
		return ferr
	}
	if !found || ghost {
		lt.unpin(h, true)
		tr.finishAdoptions(pend, lt)
		return fmt.Errorf("%w: %q", ErrKeyNotFound, key)
	}
	err = ops.LogApply(tx, h, encodeLeafGhost(tr.root, key, true, false))
	lt.unpin(h, true)
	tr.finishAdoptions(pend, lt)
	return err
}

// undoInsert, undoDelete, undoUpdate perform the logical compensation for
// user operations during rollback: a fresh descent finds the key wherever
// splits may have moved it, and a CLR records the compensation.
func (tr *Tree) undoInsert(t *txn.Txn, key []byte, undoNext page.LSN) error {
	return tr.compensate(t, key, undoNext, func(curVal []byte, ghost bool) ([]byte, int) {
		// Inverse of insert: remove the record. Ghosting suffices
		// logically, but physical purge reclaims the space directly
		// and keeps rollback idempotent.
		return encodeLeafPurge(key, curVal, ghost), 0
	})
}

// undoGhost restores the ghost flag a user delete (or its inverse)
// changed: the compensation sets the flag back to prior.
func (tr *Tree) undoGhost(t *txn.Txn, key []byte, prior, was bool, undoNext page.LSN) error {
	return tr.compensate(t, key, undoNext, func([]byte, bool) ([]byte, int) {
		return encodeLeafGhost(tr.root, key, prior, was), 0
	})
}

func (tr *Tree) undoUpdate(t *txn.Txn, key, oldVal []byte, undoNext page.LSN) error {
	return tr.compensate(t, key, undoNext, func(curVal []byte, ghost bool) ([]byte, int) {
		return encodeLeafUpdate(tr.root, key, oldVal, curVal), len(oldVal) - len(curVal)
	})
}

// compensate descends like a writer (exclusive leaf latch, no adoptions —
// rollback performs no optional maintenance) and logs the compensation CLR.
// makeOp also says how many bytes the compensation adds to the leaf: the
// old value an update undo restores may no longer fit where other
// transactions filled the room its shrinking freed, and rollback must not
// fail, so it splits the leaf the way a growing update would and retries.
func (tr *Tree) compensate(t *txn.Txn, key []byte, undoNext page.LSN,
	makeOp func(curVal []byte, ghost bool) (op []byte, grow int)) error {
	lt := &latchTracker{}
	for attempt := 0; ; attempt++ {
		if attempt > maxAttempts {
			return errors.New("btree: compensation did not converge after splits")
		}
		h, v, _, err := tr.descend(key, nil, true, lt)
		if err != nil {
			return err
		}
		curVal, ghost, found, err := v.Get(key)
		if err != nil {
			lt.unpin(h, true)
			return err
		}
		if !found {
			lt.unpin(h, true)
			return fmt.Errorf("btree: compensation target %q vanished: %w", key, ErrKeyNotFound)
		}
		op, grow := makeOp(curVal, ghost)
		if v.Size()+grow <= h.Page().Capacity() {
			err := ops.LogApplyCLR(t, h, op, undoNext)
			lt.unpin(h, true)
			return err
		}
		leafID := h.ID()
		lt.unpin(h, true)
		if err := tr.makeSpace(leafID, grow, nil, false, lt); err != nil {
			return err
		}
	}
}

// makeSpace reclaims ghosts in the node or splits it so that need more
// bytes fit, under a system transaction. Called without any latch held; the
// caller re-descends afterwards. A concurrent writer may have made (or
// taken) the space in the meantime — makeSpace rechecks under the latch and
// the caller's retry loop absorbs either outcome. key is what the caller is
// making room for (nil for a value that grows in place); a split places its
// split point by it (see splitOff). Without purge it only splits: a
// compensation must not reclaim ghosts its own rollback may have yet to
// revive.
func (tr *Tree) makeSpace(id page.ID, need int, key []byte, purge bool, lt *latchTracker) error {
	h, err := tr.pager.Fetch(id)
	if err != nil {
		return err
	}
	lt.latch(h, true)
	v, err := parseNode(h.Page().Payload())
	if err != nil {
		lt.unpin(h, true)
		return err
	}
	if v.Size()+need <= h.Page().Capacity() {
		// A concurrent split or purge already made room.
		lt.unpin(h, true)
		return nil
	}
	// First try reclaiming ghost records — cheaper than splitting.
	if purge && v.isLeaf() {
		var st *txn.Txn
		err := ops.PurgeGhosts(h, opLeafPurge, func() *txn.Txn {
			if st == nil {
				st = tr.pager.BeginSystem()
			}
			return st
		})
		if st != nil && err == nil {
			err = st.Commit()
			lt.unpin(h, true)
			return err
		}
		if err != nil {
			lt.unpin(h, true)
			if st != nil {
				_ = st.Abort() // roll earlier purges back; latch released
			}
			return err
		}
	}
	lt.unpin(h, true)
	if id == tr.root {
		// The overflowing content moves under a fresh child; the retry
		// descent will split that child.
		return tr.growRoot(need, lt)
	}
	return tr.fosterSplit(id, need, key, lt)
}

// fosterSplit splits one non-root node: the upper part moves to a newly
// allocated foster child; the node keeps a foster pointer until a later
// descent adopts the child into the permanent parent (Fig. 3). The node's
// exclusive latch is held across the allocation and the truncating apply,
// so concurrent descents see the pre-split or post-split state, never the
// freshly allocated child without its incoming pointer.
func (tr *Tree) fosterSplit(id page.ID, need int, key []byte, lt *latchTracker) error {
	h, err := tr.pager.Fetch(id)
	if err != nil {
		return err
	}
	lt.latch(h, true)
	n, err := parseNode(h.Page().Payload())
	if err != nil {
		lt.unpin(h, true)
		return err
	}
	if n.Size()+need <= h.Page().Capacity() {
		// A concurrent split already made room; retry will succeed.
		lt.unpin(h, true)
		return nil
	}
	if n.fanout() < 2 {
		lt.unpin(h, true)
		return fmt.Errorf("%w: node %d cannot split with fanout %d", ErrValueTooLarge, id, n.fanout())
	}

	child, fosterKey, err := splitOff(h.Page(), &n, key)
	if err != nil {
		lt.unpin(h, true)
		return err
	}

	st := tr.pager.BeginSystem()
	childH, err := tr.pager.AllocateNode(st, page.TypeBTree, child.Payload())
	if err != nil {
		lt.unpin(h, true)
		_ = st.Abort()
		return err
	}
	childID := childH.ID()
	childH.Release()
	// The op encoder copies the pre-image out before the op applies.
	if err = ops.LogApply(st, h, encodeSplitTruncate(childID, fosterKey, h.Page().Payload())); err == nil {
		err = st.Commit()
	}
	lt.unpin(h, true)
	if err != nil {
		// Reclaim the orphaned child allocation and close the system
		// txn; the latch is released, so the abort can re-latch freely.
		_ = st.Abort()
		return err
	}
	tr.splits.Add(1)
	return nil
}

// growRoot handles a full root: the root's entire contents move to a new
// node M and the root becomes a one-child branch above M. The root page ID
// never changes, so no parent pointer (and no meta entry) needs updating;
// M then splits through the normal foster path. The root's exclusive latch
// covers the allocation and the replacement, exactly like a foster split.
func (tr *Tree) growRoot(need int, lt *latchTracker) error {
	h, err := tr.pager.Fetch(tr.root)
	if err != nil {
		return err
	}
	lt.latch(h, true)
	n, err := parseNode(h.Page().Payload())
	if err != nil {
		lt.unpin(h, true)
		return err
	}
	if n.Size()+need <= h.Page().Capacity() {
		// A concurrent writer already grew the root.
		lt.unpin(h, true)
		return nil
	}
	oldPayload := append([]byte(nil), h.Page().Payload()...)
	st := tr.pager.BeginSystem()
	// M: a verbatim copy of the root's contents and fences.
	mH, err := tr.pager.AllocateNode(st, page.TypeBTree, oldPayload)
	if err != nil {
		lt.unpin(h, true)
		_ = st.Abort()
		return err
	}
	mID := mH.ID()
	mH.Release()
	// n's fences alias the root page, which stays untouched until the op
	// (whose encoder copies both payloads) applies.
	newRoot := newNodePayload(n.level+1, n.low, n.high, n.chain, page.InvalidID, mID)
	if err = ops.LogApply(st, h, encodeReplaceNode(newRoot, oldPayload)); err == nil {
		err = st.Commit()
	}
	lt.unpin(h, true)
	if err != nil {
		_ = st.Abort() // reclaim M and close the system txn
		return err
	}
	tr.rootIsBranch.Store(true)
	tr.rootGrows.Add(1)
	return nil
}

// Entry is one key/value pair visited by Scan.
type Entry struct {
	Key   []byte
	Value []byte
}

// Scan visits all live entries with start <= key < end in order (nil end =
// unbounded), calling fn until it returns false. Leaves within a foster
// chain are traversed with latch hand-over-hand — the next leaf is latched
// and verified against the current leaf's high and chain-high fences
// before the current latch drops (the §4.2 chain check) — and between
// chains the scan re-descends from the next key range, since nodes carry
// fence keys instead of sibling pointers.
//
// fn runs under the current leaf's shared latch, so it must not write to
// the same tree (reads are fine unless they land on the latched leaf while
// a writer is queued behind it).
func (tr *Tree) Scan(start, end []byte, fn func(Entry) bool) error {
	lt := &latchTracker{}
	cur := start
	if len(cur) == 0 {
		cur = []byte{0}
	}
	h, v, _, err := tr.descend(cur, nil, false, lt)
	if err != nil {
		return err
	}
	for {
		stop := false
		i, _, err := v.Find(cur)
		for ; err == nil && !stop && i < v.Count(); i++ {
			var k, val []byte
			var ghost bool
			k, val, ghost, err = v.Record(i)
			switch {
			case err != nil || ghost:
			case end != nil && bytes.Compare(k, end) >= 0:
				stop = true
			default:
				stop = !fn(Entry{Key: append([]byte(nil), k...), Value: append([]byte(nil), val...)})
			}
		}
		if err != nil {
			lt.unpin(h, false)
			return err
		}
		if stop {
			lt.unpin(h, false)
			return nil
		}
		// Advance: foster child first, then next key range.
		switch {
		case v.hasFoster():
			nextID := v.foster
			if nextID == h.ID() {
				viol := &CorruptionError{Page: nextID, Detail: "foster pointer to self"}
				lt.unpin(h, false)
				return viol
			}
			nh, err := tr.pager.Fetch(nextID)
			if err != nil {
				lt.unpin(h, false)
				return err
			}
			lt.latch(nh, false)
			nv, err := parseNode(nh.Page().Payload())
			if err != nil {
				lt.unpin(nh, false)
				lt.unpin(h, false)
				return err
			}
			if viol := verifyFences(nextID, h.ID(), &nv, v.high, v.chain, 0); viol != nil {
				lt.unpin(nh, false)
				lt.unpin(h, false)
				return viol
			}
			// The resume key must outlive the page it aliases.
			cur = append([]byte(nil), v.high.k...)
			lt.unpin(h, false)
			h, v = nh, nv
		case v.high.inf:
			lt.unpin(h, false)
			return nil
		default:
			cur = append([]byte(nil), v.high.k...)
			lt.unpin(h, false)
			if end != nil && bytes.Compare(cur, end) >= 0 {
				return nil
			}
			h, v, _, err = tr.descend(cur, nil, false, lt)
			if err != nil {
				return err
			}
		}
	}
}
