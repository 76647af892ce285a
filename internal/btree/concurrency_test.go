package btree

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/buffer"
	"repro/internal/page"
)

// TestConcurrentMixedOpsLatchCoupled is the -race stress for the
// latch-coupled tree: many goroutines run mixed Insert/Update/Delete/Get
// plus full Scans concurrently, each writer against its own key range, and
// the test asserts per-worker model consistency, a clean full verification,
// and the two-latch invariant (via the latch-depth high-water mark).
func TestConcurrentMixedOpsLatchCoupled(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	ResetMaxLatchDepth()
	p := newTestPager(t, 1024, 1<<15, 1<<12)
	st := p.txns.BeginSystem()
	tr, err := Create(st, "stress", p)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}

	const (
		writers = 8
		keys    = 300 // per writer
		ops     = 3000
	)
	wkey := func(w, i int) []byte { return []byte(fmt.Sprintf("w%02d-%05d", w, i)) }

	// Preload half of each writer's range so the tree has real height
	// before the race starts.
	tx := p.txns.Begin()
	for w := 0; w < writers; w++ {
		for i := 0; i < keys; i += 2 {
			if err := tr.Insert(tx, wkey(w, i), []byte("seed")); err != nil {
				t.Fatal(err)
			}
		}
	}
	mustCommit(t, tx)

	var wg sync.WaitGroup
	errs := make(chan error, writers+2)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			model := make(map[string]string, keys)
			for i := 0; i < keys; i += 2 {
				model[string(wkey(w, i))] = "seed"
			}
			tx := p.txns.Begin()
			for op := 0; op < ops; op++ {
				i := rng.Intn(keys)
				k := wkey(w, i)
				v := fmt.Sprintf("w%d-%d", w, op)
				switch rng.Intn(5) {
				case 0, 1: // upsert
					if _, ok := model[string(k)]; ok {
						if err := tr.Update(tx, k, []byte(v)); err != nil {
							errs <- fmt.Errorf("worker %d update %q: %w", w, k, err)
							return
						}
					} else {
						if err := tr.Insert(tx, k, []byte(v)); err != nil {
							errs <- fmt.Errorf("worker %d insert %q: %w", w, k, err)
							return
						}
					}
					model[string(k)] = v
				case 2: // delete
					if _, ok := model[string(k)]; ok {
						if err := tr.Delete(tx, k); err != nil {
							errs <- fmt.Errorf("worker %d delete %q: %w", w, k, err)
							return
						}
						delete(model, string(k))
					}
				default: // point read against the model
					got, err := tr.Get(k)
					want, ok := model[string(k)]
					if ok != (err == nil) {
						errs <- fmt.Errorf("worker %d get %q: %v, model present=%v", w, k, err, ok)
						return
					}
					if err == nil && string(got) != want {
						errs <- fmt.Errorf("worker %d get %q = %q, want %q", w, k, got, want)
						return
					}
				}
			}
			if err := tx.Commit(); err != nil {
				errs <- fmt.Errorf("worker %d commit: %w", w, err)
				return
			}
			// Final model check after commit.
			for k, want := range model {
				got, err := tr.Get([]byte(k))
				if err != nil || string(got) != want {
					errs <- fmt.Errorf("worker %d final get %q = %q, %v (want %q)", w, k, got, err, want)
					return
				}
			}
		}(w)
	}
	// Two scanners walk the whole tree continuously, checking key order,
	// until the writers finish.
	done := make(chan struct{})
	var scanWG sync.WaitGroup
	for s := 0; s < 2; s++ {
		scanWG.Add(1)
		go func() {
			defer scanWG.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				var prev []byte
				err := tr.Scan(nil, nil, func(e Entry) bool {
					if prev != nil && bytes.Compare(prev, e.Key) >= 0 {
						return false
					}
					prev = e.Key
					return true
				})
				if err != nil {
					errs <- fmt.Errorf("scan: %w", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	scanWG.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	verifyClean(t, tr)
	if d := MaxLatchDepth(); d != 2 {
		t.Errorf("latch-depth high-water mark = %d, want exactly 2 (coupling must pair latches, never exceed two)", d)
	}
}

// TestSplitRacingReaderSeesWholeLeaf deterministically interleaves a foster
// split with concurrent readers: the test holds the victim leaf's exclusive
// latch, starts readers for every key the leaf holds, performs the split's
// allocation and truncating apply under that latch (exactly the protocol of
// fosterSplit), and only then releases it. No reader can observe the
// half-moved state — every key, including those moved to the foster child,
// must remain readable, and the post-split chain must verify clean.
func TestSplitRacingReaderSeesWholeLeaf(t *testing.T) {
	tr, p := newTestTree(t)
	tx := p.txns.Begin()
	const n = 400
	for i := 0; i < n; i++ {
		if err := tr.Insert(tx, key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)

	// Find a mid-tree leaf and its keys.
	lt := &latchTracker{}
	h, lv, _, err := tr.descend(key(n/2), nil, false, lt)
	if err != nil {
		t.Fatal(err)
	}
	var leafKeys [][]byte
	for i := 0; i < lv.Count(); i++ {
		k, _, ghost, err := lv.Record(i)
		if err != nil {
			t.Fatal(err)
		}
		if !ghost {
			leafKeys = append(leafKeys, append([]byte(nil), k...))
		}
	}
	lt.unlatch(h, false)
	if len(leafKeys) < 2 {
		h.Release()
		t.Skip("leaf too small to split")
	}

	// Hold the leaf's exclusive latch: every reader of these keys now
	// blocks at this page (their parent latches are shared and pass).
	h.Lock()
	var wg sync.WaitGroup
	results := make(chan error, len(leafKeys))
	for _, k := range leafKeys {
		wg.Add(1)
		go func(k []byte) {
			defer wg.Done()
			got, err := tr.Get(k)
			if err != nil {
				results <- fmt.Errorf("get %q during split: %w", k, err)
				return
			}
			if len(got) == 0 {
				results <- fmt.Errorf("get %q returned empty value", k)
			}
		}(k)
	}

	// Perform the split under the held latch, mirroring fosterSplit: the
	// foster child is fully allocated and written before the truncating
	// apply installs its incoming pointer; the latch covers both steps and
	// the commit.
	nd, err := parseNode(h.Page().Payload())
	if err != nil {
		t.Fatal(err)
	}
	child, fosterKey, err := splitOff(h.Page(), &nd, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := p.txns.BeginSystem()
	childH, err := p.AllocateNode(st, h.Page().Type(), child.Payload())
	if err != nil {
		t.Fatal(err)
	}
	childID := childH.ID()
	childH.Release()
	if err := ops.LogApply(st, h, encodeSplitTruncate(childID, fosterKey)); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	h.Unlock()
	h.Release()

	wg.Wait()
	close(results)
	for err := range results {
		t.Error(err)
	}
	verifyClean(t, tr)
}

// TestAdoptionRacingReaderSeesConsistentPair deterministically interleaves
// an adoption with readers: with the branch parent's exclusive latch held,
// readers of the foster child's keys block at the parent while both halves
// of the adoption (separator insert into the parent, foster-pointer clear
// on the child) apply. Readers resume only after the pair is consistent and
// must find every key through the adopted child's new direct pointer.
func TestAdoptionRacingReaderSeesConsistentPair(t *testing.T) {
	tr, p := newTestTree(t)
	tx := p.txns.Begin()
	const n = 2000
	for i := 0; i < n; i++ {
		if err := tr.Insert(tx, key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)

	// Post-operation adoption has drained every foster chain by now, so
	// create one deterministically: split the rightmost leaf (a need of one
	// full page guarantees the split happens). The ascending load left
	// every branch but the rightmost full, and the adoption below needs
	// room for one separator in the parent.
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
	var parentID, childID page.ID
	found := findAdoptablePair(t, tr, &parentID, &childID)
	if !found {
		t.Skip("no foster relationship left to adopt")
	}

	parentH, err := p.Fetch(parentID)
	if err != nil {
		t.Fatal(err)
	}
	childH, err := p.Fetch(childID)
	if err != nil {
		t.Fatal(err)
	}
	childN := snapshotNode(t, childH)
	fosterPID := childN.foster
	fosterKey := childN.high.k

	// Keys owned by the foster child F — the ones whose routing flips from
	// "via child's foster pointer" to "via parent's new separator".
	fosterH, err := p.Fetch(fosterPID)
	if err != nil {
		t.Fatal(err)
	}
	fosterN := snapshotNode(t, fosterH)
	var fosterKeys [][]byte
	collectLeafKeys(t, tr, &fosterN, &fosterKeys)
	fosterH.Release()
	if len(fosterKeys) == 0 {
		t.Skip("foster child holds no keys")
	}

	// Hold parent and child exclusively — the adoption pair — and start
	// readers; they block at the parent.
	parentH.Lock()
	childH.Lock()
	var wg sync.WaitGroup
	results := make(chan error, len(fosterKeys))
	for _, k := range fosterKeys {
		wg.Add(1)
		go func(k []byte) {
			defer wg.Done()
			if _, err := tr.Get(k); err != nil {
				results <- fmt.Errorf("get %q during adoption: %w", k, err)
			}
		}(k)
	}

	st := p.BeginSystem()
	if err := ops.LogApply(st, parentH, encodeAdopt(fosterKey, fosterPID)); err != nil {
		t.Fatal(err)
	}
	if err := ops.LogApply(st, childH, encodeClearFoster()); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	childH.Unlock()
	parentH.Unlock()
	childH.Release()
	parentH.Release()

	wg.Wait()
	close(results)
	for err := range results {
		t.Error(err)
	}
	verifyClean(t, tr)
}

// findAdoptablePair walks from the root looking for a branch child with a
// finite foster pointer; it reports the (parent, child) page IDs.
func findAdoptablePair(t *testing.T, tr *Tree, parentID, childID *page.ID) bool {
	t.Helper()
	var walk func(id page.ID) bool
	walk = func(id page.ID) bool {
		n := fetchNode(t, tr, id)
		if n.isLeaf() {
			return false
		}
		children := childIDs(t, &n)
		for _, c := range children {
			cn := fetchNode(t, tr, c)
			if cn.hasFoster() && !cn.high.inf && cn.high.less(cn.chain) {
				*parentID, *childID = id, c
				return true
			}
		}
		for _, c := range children {
			if walk(c) {
				return true
			}
		}
		return false
	}
	return walk(tr.root)
}

// collectLeafKeys gathers every live key at or below n (following child and
// foster pointers).
func collectLeafKeys(t *testing.T, tr *Tree, n *node, out *[][]byte) {
	t.Helper()
	if n.isLeaf() {
		for i := 0; i < n.Count(); i++ {
			k, _, ghost, err := n.Record(i)
			if err != nil {
				t.Fatal(err)
			}
			if !ghost {
				*out = append(*out, append([]byte(nil), k...))
			}
		}
	} else {
		for _, c := range childIDs(t, n) {
			cn := fetchNode(t, tr, c)
			collectLeafKeys(t, tr, &cn, out)
		}
	}
	if n.hasFoster() {
		fn := fetchNode(t, tr, n.foster)
		collectLeafKeys(t, tr, &fn, out)
	}
}

// snapshotNode parses a private copy of h's payload taken under its shared
// latch, so the returned node stays valid after the latch drops.
func snapshotNode(t *testing.T, h *buffer.Handle) node {
	t.Helper()
	h.RLock()
	payload := append([]byte(nil), h.Page().Payload()...)
	h.RUnlock()
	n, err := parseNode(payload)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// fetchNode is snapshotNode of page id.
func fetchNode(t *testing.T, tr *Tree, id page.ID) node {
	t.Helper()
	h, err := tr.pager.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	return snapshotNode(t, h)
}

// childIDs lists a branch node's children in key order.
func childIDs(t *testing.T, n *node) []page.ID {
	t.Helper()
	ids := make([]page.ID, n.fanout())
	for i := range ids {
		var err error
		if ids[i], err = n.child(i); err != nil {
			t.Fatal(err)
		}
	}
	return ids
}

// TestConcurrentInsertsDisjointRangesConverge hammers splits specifically:
// all writers insert fresh ascending keys (maximum structural churn) and
// every key must be present afterwards with the tree clean.
func TestConcurrentInsertsDisjointRangesConverge(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	tr, p := newTestTree(t)
	const (
		writers = 8
		perW    = 800
	)
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tx := p.txns.Begin()
			for i := 0; i < perW; i++ {
				k := []byte(fmt.Sprintf("w%02d-%06d", w, i))
				if err := tr.Insert(tx, k, val(i)); err != nil {
					errs <- fmt.Errorf("worker %d insert %d: %w", w, i, err)
					return
				}
			}
			if err := tx.Commit(); err != nil {
				errs <- err
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perW; i++ {
			k := []byte(fmt.Sprintf("w%02d-%06d", w, i))
			if got, err := tr.Get(k); err != nil || !bytes.Equal(got, val(i)) {
				t.Fatalf("key %q = %q, %v", k, got, err)
			}
		}
	}
	st, err := tr.WalkStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != writers*perW {
		t.Errorf("entries = %d, want %d", st.Entries, writers*perW)
	}
	verifyClean(t, tr)
}

// TestDescentErrorsSurfaceUnderConcurrency checks that a fence-corruption
// detection fires mid-descent while other descents proceed: one leaf's low
// fence is damaged in the buffered image; readers of that leaf get
// ErrDetected while readers of other ranges keep succeeding.
func TestDescentErrorsSurfaceUnderConcurrency(t *testing.T) {
	tr, p := newTestTree(t)
	tx := p.txns.Begin()
	const n = 1200
	for i := 0; i < n; i++ {
		if err := tr.Insert(tx, key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)

	lt := &latchTracker{}
	h, lv, _, err := tr.descend(key(600), nil, false, lt)
	if err != nil {
		t.Fatal(err)
	}
	if lv.low.inf || len(lv.low.k) == 0 {
		lt.unpin(h, false)
		t.Skip("root leaf; no interior fence to corrupt")
	}
	lt.unlatch(h, false)
	h.Lock()
	nd, err := parseNode(h.Page().Payload())
	if err != nil {
		t.Fatal(err)
	}
	nd.low.k[0] ^= 0xFF // the fence aliases the buffered page
	h.Unlock()
	h.Release()

	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The corrupt leaf's range must detect.
			if _, err := tr.Get(key(600)); !errors.Is(err, ErrDetected) {
				errCh <- fmt.Errorf("corrupt range: got %v, want ErrDetected", err)
			}
			// A healthy range must keep working concurrently.
			if _, err := tr.Get(key(5)); err != nil {
				errCh <- fmt.Errorf("healthy range: %v", err)
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}

// TestConcurrentValueGrowthOverDenseLeaves: an ascending load leaves every
// leaf full, so afterwards every update that grows a value splits its leaf —
// here from several writers at once, each in its own range, while their
// reads roam all ranges. Small records are the hard case: one moved record
// frees less than the foster parent needs to be adopted later.
func TestConcurrentValueGrowthOverDenseLeaves(t *testing.T) {
	const (
		writers = 4
		keys    = 128 // per range
		ranges  = 16
		ops     = 4000
	)
	tr, p := newTestTree(t)
	rkey := func(r, i int) []byte { return []byte(fmt.Sprintf("r%02d-%06d", r, i)) }
	tx := p.txns.Begin()
	for r := 0; r < ranges; r++ {
		for i := 0; i < keys; i++ {
			if err := tr.Insert(tx, rkey(r, i), []byte("v0")); err != nil {
				t.Fatal(err)
			}
		}
	}
	mustCommit(t, tx)
	verifyClean(t, tr)

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			tx := p.txns.Begin()
			grown := []byte("value-00000000")
			for n := 0; n < ops; n++ {
				if n%3 == 0 {
					k := rkey(rng.Intn(ranges), rng.Intn(keys))
					if _, err := tr.Get(k); err != nil {
						t.Errorf("writer %d get %s: %v", w, k, err)
						return
					}
					continue
				}
				k := rkey(w, rng.Intn(keys))
				if err := tr.Update(tx, k, grown); err != nil {
					t.Errorf("writer %d update %s: %v", w, k, err)
					return
				}
			}
			if err := tx.Commit(); err != nil {
				t.Errorf("writer %d commit: %v", w, err)
			}
		}(w)
	}
	wg.Wait()
	verifyClean(t, tr)
}
