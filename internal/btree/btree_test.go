package btree

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/backup"
	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/iosim"
	"repro/internal/page"
	"repro/internal/pagemap"
	"repro/internal/pageop"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// testPager is a minimal engine: pool + map + log + txn manager + PRI.
type testPager struct {
	t    *testing.T
	dev  *storage.Device
	pmap *pagemap.Map
	log  *wal.Manager
	pool *buffer.Pool
	txns *txn.Manager
	pri  *core.PRI
}

func newTestPager(t *testing.T, pageSize, slots, frames int) *testPager {
	if t != nil {
		t.Helper() // benchmarks pass a nil t
	}
	p := &testPager{
		t:    t,
		dev:  storage.NewDevice(storage.Config{PageSize: pageSize, Slots: slots, Profile: iosim.Instant}),
		pmap: pagemap.New(slots),
		log:  wal.NewManager(iosim.Instant),
		pri:  core.NewPRI(),
	}
	p.txns = txn.NewManager(p.log)
	p.pool = buffer.NewPool(buffer.Config{
		Capacity: frames, Device: p.dev, Map: p.pmap, Log: p.log,
		Hooks: buffer.Hooks{
			CompleteWrite: func(info buffer.WriteInfo) []*wal.Record {
				// Minimal Fig. 11 maintenance for the tests.
				_, _ = p.pri.SetLastLSN(info.Page, info.PageLSN)
				return nil
			},
		},
	})
	p.txns.SetUndoer(p)
	return p
}

// Undo implements txn.Undoer via the shared compensation entry point.
func (p *testPager) Undo(t *txn.Txn, rec *wal.Record) error {
	u, err := pageop.ParseUser(rec.Payload)
	if err != nil {
		return err
	}
	return Open("", u.Root, p).Compensate(t, u, rec.PrevLSN)
}

func (p *testPager) AllocateNode(t *txn.Txn, typ page.Type, initialPayload []byte) (*buffer.Handle, error) {
	id := p.pmap.AllocateLogical()
	h, err := p.pool.Create(id, typ)
	if err != nil {
		return nil, err
	}
	h.Lock()
	defer h.Unlock()
	if err := h.Page().SetPayload(initialPayload); err != nil {
		h.Release()
		return nil, err
	}
	lsn, err := t.Log(&wal.Record{
		Type:    wal.TypeFormat,
		PageID:  id,
		Payload: backup.FormatPayload(typ, initialPayload),
	})
	if err != nil {
		h.Release()
		return nil, err
	}
	h.Page().SetLSN(lsn)
	h.MarkDirty(lsn)
	p.pri.Set(id, core.Entry{
		Backup:  core.BackupRef{Kind: core.BackupLog, Loc: uint64(lsn), AsOf: lsn},
		LastLSN: lsn,
	})
	return h, nil
}

func (p *testPager) Fetch(id page.ID) (*buffer.Handle, error) {
	return p.pool.Fetch(id)
}

func (p *testPager) BeginSystem() *txn.Txn {
	return p.txns.BeginSystem()
}

func newTestTree(t *testing.T) (*Tree, *testPager) {
	t.Helper()
	p := newTestPager(t, 1024, 4096, 512)
	st := p.txns.BeginSystem()
	tr, err := Create(st, "test", p)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	return tr, p
}

func key(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }
func val(i int) []byte { return []byte(fmt.Sprintf("value-%06d", i)) }
func mustCommit(t *testing.T, tx *txn.Txn) {
	t.Helper()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func verifyClean(t *testing.T, tr *Tree) {
	t.Helper()
	viols, err := tr.VerifyAll()
	if err != nil {
		t.Fatalf("VerifyAll: %v", err)
	}
	for _, v := range viols {
		t.Errorf("invariant violation: %v", v)
	}
}

func TestInsertGetSingle(t *testing.T) {
	tr, p := newTestTree(t)
	tx := p.txns.Begin()
	if err := tr.Insert(tx, []byte("hello"), []byte("world")); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	got, err := tr.Get([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "world" {
		t.Errorf("got %q", got)
	}
	if _, err := tr.Get([]byte("absent")); !errors.Is(err, ErrKeyNotFound) {
		t.Errorf("absent key: %v", err)
	}
	verifyClean(t, tr)
}

func TestInsertDuplicateFails(t *testing.T) {
	tr, p := newTestTree(t)
	tx := p.txns.Begin()
	if err := tr.Insert(tx, []byte("k"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(tx, []byte("k"), []byte("v2")); !errors.Is(err, ErrKeyExists) {
		t.Errorf("duplicate insert: %v", err)
	}
	mustCommit(t, tx)
}

func TestInsertEmptyKeyFails(t *testing.T) {
	tr, p := newTestTree(t)
	tx := p.txns.Begin()
	if err := tr.Insert(tx, nil, []byte("v")); err == nil {
		t.Error("empty key accepted")
	}
	mustCommit(t, tx)
}

func TestInsertManySplitsAndFinds(t *testing.T) {
	tr, p := newTestTree(t)
	const n = 2000
	tx := p.txns.Begin()
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, i := range perm {
		if err := tr.Insert(tx, key(i), val(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	mustCommit(t, tx)
	for i := 0; i < n; i++ {
		got, err := tr.Get(key(i))
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if !bytes.Equal(got, val(i)) {
			t.Fatalf("get %d = %q", i, got)
		}
	}
	st, err := tr.WalkStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != n {
		t.Errorf("entries = %d, want %d", st.Entries, n)
	}
	if st.Height < 2 {
		t.Errorf("height = %d, expected a real tree", st.Height)
	}
	if st.Nodes < 10 {
		t.Errorf("nodes = %d, expected many splits", st.Nodes)
	}
	verifyClean(t, tr)
}

func TestDeleteGhostsAndGet(t *testing.T) {
	tr, p := newTestTree(t)
	tx := p.txns.Begin()
	for i := 0; i < 50; i++ {
		if err := tr.Insert(tx, key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)
	tx2 := p.txns.Begin()
	if err := tr.Delete(tx2, key(25)); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx2)
	if _, err := tr.Get(key(25)); !errors.Is(err, ErrKeyNotFound) {
		t.Errorf("deleted key readable: %v", err)
	}
	// The record remains as a ghost.
	st, err := tr.WalkStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Ghosts != 1 {
		t.Errorf("ghosts = %d, want 1", st.Ghosts)
	}
	// Re-insert revives the ghost.
	tx3 := p.txns.Begin()
	if err := tr.Insert(tx3, key(25), []byte("revived")); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx3)
	got, err := tr.Get(key(25))
	if err != nil || string(got) != "revived" {
		t.Errorf("revived = %q, %v", got, err)
	}
	verifyClean(t, tr)
}

func TestDeleteAbsentFails(t *testing.T) {
	tr, p := newTestTree(t)
	tx := p.txns.Begin()
	if err := tr.Delete(tx, []byte("nope")); !errors.Is(err, ErrKeyNotFound) {
		t.Errorf("delete absent: %v", err)
	}
	mustCommit(t, tx)
}

func TestUpdateValue(t *testing.T) {
	tr, p := newTestTree(t)
	tx := p.txns.Begin()
	if err := tr.Insert(tx, []byte("k"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Update(tx, []byte("k"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	got, _ := tr.Get([]byte("k"))
	if string(got) != "v2" {
		t.Errorf("got %q", got)
	}
	tx2 := p.txns.Begin()
	if err := tr.Update(tx2, []byte("absent"), []byte("v")); !errors.Is(err, ErrKeyNotFound) {
		t.Errorf("update absent: %v", err)
	}
	mustCommit(t, tx2)
}

func TestScanOrderAndRange(t *testing.T) {
	tr, p := newTestTree(t)
	const n = 500
	tx := p.txns.Begin()
	for _, i := range rand.New(rand.NewSource(2)).Perm(n) {
		if err := tr.Insert(tx, key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Ghost a few.
	for i := 0; i < n; i += 50 {
		if err := tr.Delete(tx, key(i)); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)
	var keys []string
	err := tr.Scan(nil, nil, func(e Entry) bool {
		keys = append(keys, string(e.Key))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	want := n - n/50
	if len(keys) != want {
		t.Errorf("scanned %d, want %d", len(keys), want)
	}
	if !sort.StringsAreSorted(keys) {
		t.Error("scan out of order")
	}
	// Bounded scan.
	var sub []string
	err = tr.Scan(key(100), key(200), func(e Entry) bool {
		sub = append(sub, string(e.Key))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range sub {
		if k < string(key(100)) || k >= string(key(200)) {
			t.Errorf("out-of-range key %q", k)
		}
	}
	// Early stop.
	count := 0
	err = tr.Scan(nil, nil, func(e Entry) bool {
		count++
		return count < 7
	})
	if err != nil || count != 7 {
		t.Errorf("early stop: %d, %v", count, err)
	}
}

func TestAbortRollsBackInserts(t *testing.T) {
	tr, p := newTestTree(t)
	tx := p.txns.Begin()
	for i := 0; i < 300; i++ {
		if err := tr.Insert(tx, key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)
	// A transaction inserting new keys, deleting old ones, updating
	// others — then aborting.
	tx2 := p.txns.Begin()
	for i := 300; i < 400; i++ {
		if err := tr.Insert(tx2, key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		if err := tr.Delete(tx2, key(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 50; i < 100; i++ {
		if err := tr.Update(tx2, key(i), []byte("dirty")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx2.Abort(); err != nil {
		t.Fatal(err)
	}
	// Everything as before.
	for i := 0; i < 300; i++ {
		got, err := tr.Get(key(i))
		if err != nil {
			t.Fatalf("get %d after abort: %v", i, err)
		}
		if !bytes.Equal(got, val(i)) {
			t.Fatalf("get %d = %q after abort", i, got)
		}
	}
	for i := 300; i < 400; i++ {
		if _, err := tr.Get(key(i)); !errors.Is(err, ErrKeyNotFound) {
			t.Fatalf("aborted insert %d visible: %v", i, err)
		}
	}
	verifyClean(t, tr)
}

// TestAbortRevivesTheGhostsItsGrowthSpared: a transaction deletes every
// other key; then it, or a concurrent transaction that commits, grows
// every remaining value, and it re-inserts some keys it deleted with
// larger values, so full leaves must make room while its ghosts sit in
// them. Its rollback revives those ghosts, so the purge that makes room
// spares them (txn.Txn.HoldGhost) and the leaves split instead,
// and a re-insert's undo puts the ghost back rather than purging it: after
// the abort every key it deleted reads as before.
func TestAbortRevivesTheGhostsItsGrowthSpared(t *testing.T) {
	const n = 400
	grown := bytes.Repeat([]byte("g"), 60)
	for _, concurrent := range []bool{false, true} {
		tr, p := newTestTree(t)
		tx := p.txns.Begin()
		for i := 0; i < n; i++ {
			if err := tr.Insert(tx, key(i), val(i)); err != nil {
				t.Fatal(err)
			}
		}
		mustCommit(t, tx)
		tx = p.txns.Begin()
		for i := 0; i < n; i += 2 {
			if err := tr.Delete(tx, key(i)); err != nil {
				t.Fatal(err)
			}
		}
		filler := tx
		if concurrent {
			filler = p.txns.Begin()
		}
		for i := 1; i < n; i += 2 {
			if err := tr.Update(filler, key(i), grown); err != nil {
				t.Fatal(err)
			}
		}
		if concurrent {
			mustCommit(t, filler)
		} else {
			for i := 0; i < n; i += 20 {
				if err := tr.Insert(tx, key(i), bytes.Repeat(grown, 3)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := tx.Abort(); err != nil {
			t.Fatalf("concurrent=%v: %v", concurrent, err)
		}
		for i := 0; i < n; i++ {
			want := val(i)
			if concurrent && i%2 == 1 {
				want = grown
			}
			if got, err := tr.Get(key(i)); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("concurrent=%v: get %d after abort: %q, %v", concurrent, i, got, err)
			}
		}
		verifyClean(t, tr)
	}
}

func TestAbortAcrossSplits(t *testing.T) {
	// The aborting transaction's inserts force splits; logical undo must
	// find the keys in their new homes.
	tr, p := newTestTree(t)
	tx := p.txns.Begin()
	if err := tr.Insert(tx, key(0), val(0)); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	tx2 := p.txns.Begin()
	for i := 1; i < 1500; i++ {
		if err := tr.Insert(tx2, key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx2.Abort(); err != nil {
		t.Fatal(err)
	}
	got, err := tr.Get(key(0))
	if err != nil || !bytes.Equal(got, val(0)) {
		t.Fatalf("pre-existing key lost: %q, %v", got, err)
	}
	st, err := tr.WalkStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 1 {
		t.Errorf("entries = %d after abort, want 1", st.Entries)
	}
	verifyClean(t, tr)
}

func TestFosterChainsFormAndAdoptionsDrainThem(t *testing.T) {
	tr, p := newTestTree(t)
	tx := p.txns.Begin()
	// Sequential inserts split rightmost leaves repeatedly.
	for i := 0; i < 3000; i++ {
		if err := tr.Insert(tx, key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)
	verifyClean(t, tr)
	st, err := tr.WalkStats()
	if err != nil {
		t.Fatal(err)
	}
	// Adoption happens opportunistically on descents; after this many
	// inserts most foster relationships should have been drained.
	if st.Fosters > st.Nodes/2 {
		t.Errorf("fosters = %d of %d nodes; adoption not working", st.Fosters, st.Nodes)
	}
	// More write descents drain remaining fosters (each descent adopts).
	tx2 := p.txns.Begin()
	for i := 0; i < 3000; i += 10 {
		if err := tr.Update(tx2, key(i), []byte("u")); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx2)
	verifyClean(t, tr)
}

func TestDescentDetectsFenceCorruption(t *testing.T) {
	tr, p := newTestTree(t)
	tx := p.txns.Begin()
	for i := 0; i < 1200; i++ {
		if err := tr.Insert(tx, key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)
	// Find a leaf and corrupt its low fence in the buffered image,
	// simulating memory corruption that in-page checksums (computed at
	// write time) would not catch until much later.
	lt := &latchTracker{}
	h, _, _, err := tr.descend(key(600), nil, false, lt)
	if err != nil {
		t.Fatal(err)
	}
	lt.unlatch(h, false)
	h.Lock()
	n, err := parseNode(h.Page().Payload())
	if err != nil {
		t.Fatal(err)
	}
	if n.low.inf || len(n.low.k) == 0 {
		t.Skip("root leaf; no interior fence to corrupt")
	}
	n.low.k[0] ^= 0xFF // the fence aliases the buffered page
	h.Unlock()
	h.Release()
	// The next descent to that leaf must detect the mismatch.
	_, err = tr.Get(key(600))
	if !errors.Is(err, ErrDetected) {
		t.Errorf("corrupted fence not detected: %v", err)
	}
	var ce *CorruptionError
	if !errors.As(err, &ce) {
		t.Errorf("error is not a CorruptionError: %v", err)
	}
}

func TestVerifyAllFindsShapeViolations(t *testing.T) {
	tr, p := newTestTree(t)
	tx := p.txns.Begin()
	for i := 0; i < 500; i++ {
		if err := tr.Insert(tx, key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)
	verifyClean(t, tr)
	// Swap two keys in a leaf to break ordering.
	lt := &latchTracker{}
	h, _, _, err := tr.descend(key(100), nil, false, lt)
	if err != nil {
		t.Fatal(err)
	}
	lt.unlatch(h, false)
	h.Lock()
	n, _ := parseNode(h.Page().Payload())
	if n.Count() >= 2 {
		// Keys alias the buffered page and are all the same length here.
		k0, _, _, _ := n.Record(0)
		k1, _, _, _ := n.Record(1)
		tmp := append([]byte(nil), k0...)
		copy(k0, k1)
		copy(k1, tmp)
	}
	h.Unlock()
	h.Release()
	viols, err := tr.VerifyAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(viols) == 0 {
		t.Error("VerifyAll missed key-order violation")
	}
}

func TestLargeEntryRejected(t *testing.T) {
	tr, p := newTestTree(t)
	tx := p.txns.Begin()
	if err := tr.Insert(tx, []byte("k"), make([]byte, 5000)); !errors.Is(err, ErrValueTooLarge) {
		t.Errorf("huge value: %v", err)
	}
	mustCommit(t, tx)
}

func TestGhostPurgeReclaimsSpaceBeforeSplit(t *testing.T) {
	tr, p := newTestTree(t)
	tx := p.txns.Begin()
	for i := 0; i < 40; i++ {
		if err := tr.Insert(tx, key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		if err := tr.Delete(tx, key(i)); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)
	before, err := tr.WalkStats()
	if err != nil {
		t.Fatal(err)
	}
	// Fill again; purge should reclaim ghosts instead of splitting.
	tx2 := p.txns.Begin()
	for i := 100; i < 140; i++ {
		if err := tr.Insert(tx2, key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx2)
	after, err := tr.WalkStats()
	if err != nil {
		t.Fatal(err)
	}
	if after.Ghosts >= before.Ghosts && before.Ghosts > 0 && after.Nodes > before.Nodes {
		t.Errorf("split happened with %d ghosts available (nodes %d -> %d)",
			before.Ghosts, before.Nodes, after.Nodes)
	}
	verifyClean(t, tr)
}

func TestPerPageChainLinksAllNodeUpdates(t *testing.T) {
	tr, p := newTestTree(t)
	tx := p.txns.Begin()
	for i := 0; i < 200; i++ {
		if err := tr.Insert(tx, key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)
	// Every page's chain must walk back to its format record.
	for _, id := range p.pmap.Pages() {
		h, err := p.pool.Fetch(id)
		if err != nil {
			t.Fatalf("fetch %d: %v", id, err)
		}
		head := h.Page().LSN()
		h.Release()
		chain, err := p.log.WalkPageChain(head, page.ZeroLSN, id)
		if err != nil {
			t.Fatalf("chain of page %d: %v", id, err)
		}
		if len(chain) == 0 {
			t.Fatalf("page %d has empty chain", id)
		}
		last := chain[len(chain)-1]
		if last.Type != wal.TypeFormat {
			t.Errorf("page %d chain does not end at format record (%v)", id, last.Type)
		}
	}
}

func TestMetaRegistryOps(t *testing.T) {
	reg := map[string]page.ID{}
	pg := page.New(3, page.TypeMeta, 1024)
	if err := pg.SetPayload(encodeRegistry(reg)); err != nil {
		t.Fatal(err)
	}
	var a Applier
	rec := &wal.Record{Payload: EncodeMetaPut("users", 42)}
	if err := a.ApplyRedo(rec, pg); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRegistry(pg.Payload())
	if err != nil || got["users"] != 42 {
		t.Fatalf("registry = %v, %v", got, err)
	}
	// Delete binding.
	rec2 := &wal.Record{Payload: EncodeMetaPut("users", 0)}
	if err := a.ApplyRedo(rec2, pg); err != nil {
		t.Fatal(err)
	}
	got, _ = DecodeRegistry(pg.Payload())
	if _, ok := got["users"]; ok {
		t.Error("binding not deleted")
	}
}

func TestShortestSeparator(t *testing.T) {
	cases := []struct{ a, b, want string }{
		{"abc", "abd", "abd"},
		{"abc", "ac", "ac"},
		{"a", "b", "b"},
		{"ab", "abd", "abd"},
		{"", "banana", "b"},
		{"apple", "banana", "b"},
		{"car", "carpet", "carp"},
	}
	for _, c := range cases {
		got := shortestSeparator([]byte(c.a), []byte(c.b))
		if string(got) != c.want {
			t.Errorf("shortestSeparator(%q, %q) = %q, want %q", c.a, c.b, got, c.want)
		}
		// Property: a < got <= b.
		if !(bytes.Compare([]byte(c.a), got) < 0 && bytes.Compare(got, []byte(c.b)) <= 0) {
			t.Errorf("separator %q not in (%q, %q]", got, c.a, c.b)
		}
	}
}

func TestNodePayloadRoundTrip(t *testing.T) {
	pg := page.New(1, page.TypeBTree, 512)
	if err := pg.SetPayload(newNodePayload(0, finite([]byte("aaa")), finite([]byte("zzz")), infFence, 77, page.InvalidID)); err != nil {
		t.Fatal(err)
	}
	if err := pg.InsertRecord(0, []byte("bbb"), []byte("v1"), false); err != nil {
		t.Fatal(err)
	}
	if err := pg.InsertRecord(1, []byte("ccc"), []byte("v2"), true); err != nil {
		t.Fatal(err)
	}
	got, err := parseNode(pg.Payload())
	if err != nil {
		t.Fatal(err)
	}
	if !got.low.equal(finite([]byte("aaa"))) || !got.high.equal(finite([]byte("zzz"))) || !got.chain.equal(infFence) {
		t.Error("fences lost")
	}
	if _, _, ghost, err := got.Record(1); got.foster != 77 || got.Count() != 2 || !ghost || err != nil {
		t.Errorf("parsed %+v", got)
	}
	if err := pg.Check(); err != nil {
		t.Errorf("Check: %v", err)
	}

	// A branch: leftmost child in the extension, (separator -> child)
	// records behind it.
	b := page.New(2, page.TypeBTree, 512)
	if err := b.SetPayload(newNodePayload(2, finite(nil), infFence, infFence, page.InvalidID, 1)); err != nil {
		t.Fatal(err)
	}
	for i, sep := range []string{"m", "t"} {
		if err := applyOp(encodeAdopt([]byte(sep), page.ID(i+2)), b); err != nil {
			t.Fatal(err)
		}
	}
	gb, err := parseNode(b.Payload())
	if err != nil {
		t.Fatal(err)
	}
	if gb.fanout() != 3 || gb.Count() != 2 || gb.level != 2 {
		t.Errorf("branch parsed %+v", gb)
	}
	id, lo, hi, err := gb.childFor([]byte("p"))
	if err != nil || id != 2 || !lo.equal(finite([]byte("m"))) || !hi.equal(finite([]byte("t"))) {
		t.Errorf("childFor(p) = %d [%v, %v) %v", id, lo, hi, err)
	}
}

func TestParseNodeRejectsGarbage(t *testing.T) {
	if _, err := parseNode([]byte{1, 2, 3}); !errors.Is(err, ErrNodeCorrupt) {
		t.Errorf("garbage: %v", err)
	}
	enc := newNodePayload(0, finite(nil), infFence, infFence, page.InvalidID, page.InvalidID)
	if _, err := parseNode(enc); err != nil {
		t.Fatalf("empty leaf: %v", err)
	}
	if _, err := parseNode(append(enc, 0xFF)); !errors.Is(err, ErrNodeCorrupt) {
		t.Errorf("trailing bytes: %v", err)
	}
	// Foster flag without a foster id.
	bad := append([]byte(nil), enc...)
	bad[5+2] |= flagFoster
	if _, err := parseNode(bad); !errors.Is(err, ErrNodeCorrupt) {
		t.Errorf("foster flag with no foster id: %v", err)
	}
}

func TestMixedWorkloadInvariantProperty(t *testing.T) {
	// Randomized mixed workload checked against a model map, with full
	// verification at the end — the btree equivalent of a property test.
	tr, p := newTestPagerTree(t)
	model := map[string]string{}
	rng := rand.New(rand.NewSource(42))
	tx := p.txns.Begin()
	for op := 0; op < 5000; op++ {
		i := rng.Intn(800)
		k, v := string(key(i)), fmt.Sprintf("v%d-%d", i, op)
		switch rng.Intn(4) {
		case 0, 1: // upsert
			if _, ok := model[k]; ok {
				if err := tr.Update(tx, key(i), []byte(v)); err != nil {
					t.Fatal(err)
				}
			} else {
				if err := tr.Insert(tx, key(i), []byte(v)); err != nil {
					t.Fatal(err)
				}
			}
			model[k] = v
		case 2: // delete
			if _, ok := model[k]; ok {
				if err := tr.Delete(tx, key(i)); err != nil {
					t.Fatal(err)
				}
				delete(model, k)
			}
		case 3: // point read
			got, err := tr.Get(key(i))
			want, ok := model[k]
			if ok != (err == nil) {
				t.Fatalf("get %q: %v, model present=%v", k, err, ok)
			}
			if ok && string(got) != want {
				t.Fatalf("get %q = %q, want %q", k, got, want)
			}
		}
	}
	mustCommit(t, tx)
	// Full comparison via scan.
	seen := map[string]string{}
	if err := tr.Scan(nil, nil, func(e Entry) bool {
		seen[string(e.Key)] = string(e.Value)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(model) {
		t.Errorf("scan found %d keys, model has %d", len(seen), len(model))
	}
	for k, v := range model {
		if seen[k] != v {
			t.Errorf("key %q = %q, want %q", k, seen[k], v)
		}
	}
	verifyClean(t, tr)
}

func newTestPagerTree(t *testing.T) (*Tree, *testPager) {
	return newTestTree(t)
}

func BenchmarkInsertSequential(b *testing.B) {
	p := newTestPager(nil, 8192, 1<<18, 1<<14)
	st := p.txns.BeginSystem()
	tr, err := Create(st, "bench", p)
	if err != nil {
		b.Fatal(err)
	}
	if err := st.Commit(); err != nil {
		b.Fatal(err)
	}
	tx := p.txns.Begin()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Insert(tx, key(i), val(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGet(b *testing.B) {
	p := newTestPager(nil, 8192, 1<<18, 1<<14)
	st := p.txns.BeginSystem()
	tr, err := Create(st, "bench", p)
	if err != nil {
		b.Fatal(err)
	}
	if err := st.Commit(); err != nil {
		b.Fatal(err)
	}
	tx := p.txns.Begin()
	const n = 10000
	for i := 0; i < n; i++ {
		if err := tr.Insert(tx, key(i), val(i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Get(key(i % n)); err != nil {
			b.Fatal(err)
		}
	}
}
