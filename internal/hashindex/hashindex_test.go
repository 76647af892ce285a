package hashindex

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
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
		t.Helper()
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

func newTestTable(t *testing.T) (*Table, *testPager) {
	t.Helper()
	p := newTestPager(t, 1024, 8192, 1024)
	st := p.txns.BeginSystem()
	tb, err := Create(st, "test", p)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	return tb, p
}

func key(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }
func val(i int) []byte { return []byte(fmt.Sprintf("value-%06d", i)) }
func mustCommit(t *testing.T, tx *txn.Txn) {
	t.Helper()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func verifyClean(t *testing.T, tb *Table) {
	t.Helper()
	viols, err := tb.VerifyAll()
	if err != nil {
		t.Fatalf("VerifyAll: %v", err)
	}
	for _, v := range viols {
		t.Errorf("invariant violation: %v", v)
	}
}

func TestInsertGetSingle(t *testing.T) {
	tb, p := newTestTable(t)
	tx := p.txns.Begin()
	if err := tb.Insert(tx, []byte("hello"), []byte("world")); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	got, err := tb.Get([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "world" {
		t.Errorf("got %q", got)
	}
	if _, err := tb.Get([]byte("absent")); !errors.Is(err, ErrKeyNotFound) {
		t.Errorf("absent key: %v", err)
	}
	verifyClean(t, tb)
}

func TestInsertDuplicateFails(t *testing.T) {
	tb, p := newTestTable(t)
	tx := p.txns.Begin()
	if err := tb.Insert(tx, []byte("k"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := tb.Insert(tx, []byte("k"), []byte("v2")); !errors.Is(err, ErrKeyExists) {
		t.Errorf("duplicate insert: %v", err)
	}
	mustCommit(t, tx)
}

func TestInsertEmptyKeyFails(t *testing.T) {
	tb, p := newTestTable(t)
	tx := p.txns.Begin()
	if err := tb.Insert(tx, nil, []byte("v")); err == nil {
		t.Error("empty key accepted")
	}
	mustCommit(t, tx)
}

func TestValueTooLargeFails(t *testing.T) {
	tb, p := newTestTable(t)
	tx := p.txns.Begin()
	big := make([]byte, 1024)
	if err := tb.Insert(tx, []byte("k"), big); !errors.Is(err, ErrValueTooLarge) {
		t.Errorf("oversized insert: %v", err)
	}
	mustCommit(t, tx)
}

func TestInsertManySplitsAndFinds(t *testing.T) {
	tb, p := newTestTable(t)
	const n = 2000
	tx := p.txns.Begin()
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, i := range perm {
		if err := tb.Insert(tx, key(i), val(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	mustCommit(t, tx)
	for i := 0; i < n; i++ {
		got, err := tb.Get(key(i))
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if !bytes.Equal(got, val(i)) {
			t.Fatalf("get %d = %q", i, got)
		}
	}
	st, err := tb.WalkStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != n {
		t.Errorf("WalkStats entries %d, want %d", st.Entries, n)
	}
	splits, overflows := tb.Counters()
	if splits == 0 {
		t.Error("no bucket splits after 2000 inserts")
	}
	if overflows == 0 {
		t.Error("no overflow pages after 2000 inserts")
	}
	if st.Level < 2 {
		t.Errorf("round level %d after 2000 inserts", st.Level)
	}
	verifyClean(t, tb)
}

// TestDirectoryBoundChainsAbsorbGrowth: the directory is one page, so
// splitting stops once the page has no room for another slot, and from
// then on overflow chains absorb all growth. On 512-byte pages that bound
// is 58 buckets; 8000 keys then make chains longer than a chainRef holds
// inline. Every key reads back, a rolled-back batch leaves no trace, and
// the table verifies clean.
func TestDirectoryBoundChainsAbsorbGrowth(t *testing.T) {
	p := newTestPager(t, 512, 1<<14, 4096)
	st := p.txns.BeginSystem()
	tb, err := Create(st, "bound", p)
	if err != nil {
		t.Fatal(err)
	}
	mustCommit(t, st)
	load := func(tx *txn.Txn, lo, hi int) {
		t.Helper()
		for i := lo; i < hi; i++ {
			if err := tb.Insert(tx, key(i), val(i)); err != nil {
				t.Fatalf("insert %d: %v", i, err)
			}
		}
	}
	const atBound, n = 2000, 8000
	capacity := 512 - page.HeaderSize
	bound := (capacity - page.LayoutHeaderSize - dirExtSize) / 8

	tx := p.txns.Begin()
	load(tx, 0, atBound)
	mustCommit(t, tx)
	splits1, overflows1 := tb.Counters()
	if st, err := tb.WalkStats(); err != nil || st.Buckets != bound {
		t.Fatalf("%d buckets after %d keys (err %v), want the directory's bound %d", st.Buckets, atBound, err, bound)
	}
	tx = p.txns.Begin()
	load(tx, atBound, n)
	mustCommit(t, tx)
	splits2, overflows2 := tb.Counters()
	if splits2 != splits1 {
		t.Errorf("%d splits past the directory bound", splits2-splits1)
	}
	if overflows2 <= overflows1 {
		t.Errorf("overflow pages %d -> %d: chains did not absorb the growth", overflows1, overflows2)
	}
	stats, err := tb.WalkStats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Buckets != bound || stats.Entries != n {
		t.Errorf("%d buckets holding %d entries, want %d holding %d", stats.Buckets, stats.Entries, bound, n)
	}
	if stats.MaxChain <= chainInline {
		t.Errorf("longest chain %d pages, want more than the %d a chainRef holds inline", stats.MaxChain, chainInline)
	}

	// A rolled-back batch compensates across the long chains.
	tx = p.txns.Begin()
	load(tx, n, n+500)
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n+500; i++ {
		got, err := tb.Get(key(i))
		switch {
		case i >= n && !errors.Is(err, ErrKeyNotFound):
			t.Fatalf("get %d after rollback: %q, %v", i, got, err)
		case i < n && (err != nil || !bytes.Equal(got, val(i))):
			t.Fatalf("get %d = %q, %v", i, got, err)
		}
	}
	verifyClean(t, tb)
}

func TestDeleteAndReinsert(t *testing.T) {
	tb, p := newTestTable(t)
	const n = 400
	tx := p.txns.Begin()
	for i := 0; i < n; i++ {
		if err := tb.Insert(tx, key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)

	tx = p.txns.Begin()
	for i := 0; i < n; i += 2 {
		if err := tb.Delete(tx, key(i)); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	mustCommit(t, tx)
	for i := 0; i < n; i++ {
		_, err := tb.Get(key(i))
		if i%2 == 0 {
			if !errors.Is(err, ErrKeyNotFound) {
				t.Fatalf("deleted key %d: %v", i, err)
			}
		} else if err != nil {
			t.Fatalf("surviving key %d: %v", i, err)
		}
	}
	if err := func() error {
		tx := p.txns.Begin()
		defer tx.Commit()
		return tb.Delete(tx, key(0))
	}(); !errors.Is(err, ErrKeyNotFound) {
		t.Errorf("double delete: %v", err)
	}

	// Reinsert over the ghosts (revival path).
	tx = p.txns.Begin()
	for i := 0; i < n; i += 2 {
		if err := tb.Insert(tx, key(i), []byte("revived")); err != nil {
			t.Fatalf("revive %d: %v", i, err)
		}
	}
	mustCommit(t, tx)
	got, err := tb.Get(key(0))
	if err != nil || string(got) != "revived" {
		t.Fatalf("revived key: %q, %v", got, err)
	}
	verifyClean(t, tb)
}

func TestUpdateInPlaceAndRelocating(t *testing.T) {
	tb, p := newTestTable(t)
	const n = 300
	tx := p.txns.Begin()
	for i := 0; i < n; i++ {
		if err := tb.Insert(tx, key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)

	// Same-size and shrinking updates stay in place; a 10x growth forces
	// relocations on full pages.
	tx = p.txns.Begin()
	big := bytes.Repeat([]byte("x"), 130)
	for i := 0; i < n; i++ {
		var v []byte
		switch i % 3 {
		case 0:
			v = []byte("small")
		case 1:
			v = val(i + 1)
		default:
			v = big
		}
		if err := tb.Update(tx, key(i), v); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
	mustCommit(t, tx)
	for i := 0; i < n; i++ {
		got, err := tb.Get(key(i))
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		var want []byte
		switch i % 3 {
		case 0:
			want = []byte("small")
		case 1:
			want = val(i + 1)
		default:
			want = big
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("get %d = %q, want %q", i, got, want)
		}
	}
	if err := func() error {
		tx := p.txns.Begin()
		defer tx.Commit()
		return tb.Update(tx, []byte("absent"), []byte("v"))
	}(); !errors.Is(err, ErrKeyNotFound) {
		t.Errorf("update absent: %v", err)
	}
	verifyClean(t, tb)
}

func TestAbortRollsBackAllOps(t *testing.T) {
	tb, p := newTestTable(t)
	const n = 500
	tx := p.txns.Begin()
	for i := 0; i < n; i++ {
		if err := tb.Insert(tx, key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)

	// One transaction inserts new keys, deletes old ones, and updates
	// others — then aborts. The abort's logical undo must find every key
	// even though its inserts triggered splits that moved entries.
	tx = p.txns.Begin()
	for i := n; i < 2*n; i++ {
		if err := tb.Insert(tx, key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i += 3 {
		if err := tb.Delete(tx, key(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < n; i += 3 {
		if err := tb.Update(tx, key(i), []byte("doomed")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Abort(); err != nil {
		t.Fatalf("abort: %v", err)
	}

	for i := 0; i < n; i++ {
		got, err := tb.Get(key(i))
		if err != nil {
			t.Fatalf("key %d after abort: %v", i, err)
		}
		if !bytes.Equal(got, val(i)) {
			t.Fatalf("key %d after abort = %q", i, got)
		}
	}
	for i := n; i < 2*n; i++ {
		if _, err := tb.Get(key(i)); !errors.Is(err, ErrKeyNotFound) {
			t.Fatalf("aborted insert %d survived: %v", i, err)
		}
	}
	verifyClean(t, tb)
}

func TestScanRange(t *testing.T) {
	tb, p := newTestTable(t)
	const n = 500
	tx := p.txns.Begin()
	for i := 0; i < n; i++ {
		if err := tb.Insert(tx, key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i += 5 {
		if err := tb.Delete(tx, key(i)); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)

	seen := make(map[string]string)
	err := tb.Scan(key(100), key(400), func(k, v []byte) bool {
		seen[string(k)] = string(v)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 100; i < 400; i++ {
		if i%5 == 0 {
			continue
		}
		want++
		if got, ok := seen[string(key(i))]; !ok || got != string(val(i)) {
			t.Fatalf("scan missing or wrong key %d: %q", i, got)
		}
	}
	if len(seen) != want {
		t.Errorf("scan saw %d entries, want %d", len(seen), want)
	}

	// Early termination.
	count := 0
	if err := tb.Scan(nil, nil, func(k, v []byte) bool {
		count++
		return count < 10
	}); err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Errorf("scan visited %d entries after early stop", count)
	}
}

func TestConcurrentOps(t *testing.T) {
	tb, p := newTestTable(t)
	const workers = 8
	const perWorker = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				k := w*perWorker + i
				tx := p.txns.Begin()
				if err := tb.Insert(tx, key(k), val(k)); err != nil {
					t.Errorf("insert %d: %v", k, err)
					tx.Abort()
					return
				}
				if err := tx.Commit(); err != nil {
					t.Errorf("commit %d: %v", k, err)
					return
				}
				if _, err := tb.Get(key(k)); err != nil {
					t.Errorf("get-after-commit %d: %v", k, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for k := 0; k < workers*perWorker; k++ {
		got, err := tb.Get(key(k))
		if err != nil {
			t.Fatalf("get %d: %v", k, err)
		}
		if !bytes.Equal(got, val(k)) {
			t.Fatalf("get %d = %q", k, got)
		}
	}
	verifyClean(t, tb)
}

// TestCrossCheckDetectsStaleBucket plants a checksum-valid but logically
// wrong bucket image (bucket-number stamp off by one) and asserts the
// descent cross-checks refuse it — the §4.2 property the stamps exist for.
func TestCrossCheckDetectsStaleBucket(t *testing.T) {
	tb, p := newTestTable(t)
	tx := p.txns.Begin()
	if err := tb.Insert(tx, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)

	dh, d, err := tb.fetchDir()
	if err != nil {
		t.Fatal(err)
	}
	b := d.bucketOf(hashKey([]byte("k")))
	pid := d.At(b)
	dh.RUnlock()
	dh.Release()

	h, err := p.Fetch(pid)
	if err != nil {
		t.Fatal(err)
	}
	h.Lock()
	n, err := parseBucket(h.Page().Payload())
	if err != nil {
		t.Fatal(err)
	}
	// The extension aliases the buffered page: restamp it in place.
	copy(n.Ext(), bucketExt(n.bucketNum^1, n.levelStamp, n.dir, n.next, n.chainPos))
	h.MarkDirty(h.Page().LSN())
	h.Unlock()
	h.Release()

	if _, err := tb.Get([]byte("k")); !errors.Is(err, ErrDetected) {
		t.Errorf("stale bucket stamp not detected: %v", err)
	}
	viols, err := tb.VerifyAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(viols) == 0 {
		t.Error("VerifyAll missed the stale bucket stamp")
	}
}

// TestAbortRevivesTheGhostsItsGrowthSpared: a transaction deletes every
// other key; then it, or a concurrent transaction that commits, grows
// every remaining value, and it re-inserts some keys it deleted with
// larger values, so full chains must make room while its ghosts sit in
// them. Its rollback revives those ghosts, so the purge that makes room
// spares them (txn.Txn.HoldGhost) and the entries relocate or the chains grow instead,
// and a re-insert's undo puts the ghost back rather than purging it: after
// the abort every key it deleted reads as before.
func TestAbortRevivesTheGhostsItsGrowthSpared(t *testing.T) {
	const n = 400
	grown := bytes.Repeat([]byte("g"), 60)
	for _, concurrent := range []bool{false, true} {
		tb, p := newTestTable(t)
		tx := p.txns.Begin()
		for i := 0; i < n; i++ {
			if err := tb.Insert(tx, key(i), val(i)); err != nil {
				t.Fatal(err)
			}
		}
		mustCommit(t, tx)
		tx = p.txns.Begin()
		for i := 0; i < n; i += 2 {
			if err := tb.Delete(tx, key(i)); err != nil {
				t.Fatal(err)
			}
		}
		filler := tx
		if concurrent {
			filler = p.txns.Begin()
		}
		for i := 1; i < n; i += 2 {
			if err := tb.Update(filler, key(i), grown); err != nil {
				t.Fatal(err)
			}
		}
		if concurrent {
			mustCommit(t, filler)
		} else {
			for i := 0; i < n; i += 20 {
				if err := tb.Insert(tx, key(i), bytes.Repeat(grown, 3)); err != nil {
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
			if got, err := tb.Get(key(i)); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("concurrent=%v: get %d after abort: %q, %v", concurrent, i, got, err)
			}
		}
		verifyClean(t, tb)
	}
}

// TestRedoDeterminism re-applies the logged op stream to freshly formatted
// pages and asserts the replayed images match the live ones — the property
// per-page chain replay depends on. Every page the table logs to is a hash
// page, and every op it logs a shared op that pageop.Apply replays.
func TestRedoDeterminism(t *testing.T) {
	tb, p := newTestTable(t)
	const n = 600
	tx := p.txns.Begin()
	for i := 0; i < n; i++ {
		if err := tb.Insert(tx, key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i += 4 {
		if err := tb.Delete(tx, key(i)); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)

	// Replay the whole log into shadow pages.
	shadow := make(map[page.ID]*page.Page)
	err := p.log.Scan(0, func(rec *wal.Record) bool {
		switch rec.Type {
		case wal.TypeFormat:
			pg, err := backup.PageFromLogRecord(rec, 1024)
			if err != nil {
				t.Fatalf("format record at %d: %v", rec.LSN, err)
			}
			shadow[rec.PageID] = pg
		case wal.TypeUpdate, wal.TypeCLR:
			pg := shadow[rec.PageID]
			if pg == nil {
				t.Fatalf("update of unformatted page %d at %d", rec.PageID, rec.LSN)
			}
			if pg.Type() != page.TypeHash {
				t.Fatalf("hash table logged to page %d of type %v at %d", rec.PageID, pg.Type(), rec.LSN)
			}
			if err := pageop.Apply(rec.Payload, pg); err != nil {
				t.Fatalf("redo at %d on page %d: %v", rec.LSN, rec.PageID, err)
			}
			pg.SetLSN(rec.LSN)
		}
		return true
	})
	if err != nil {
		t.Fatalf("log scan: %v", err)
	}
	for id, pg := range shadow {
		h, err := p.Fetch(id)
		if err != nil {
			t.Fatalf("fetch %d: %v", id, err)
		}
		h.RLock()
		live := h.Page()
		if !bytes.Equal(live.Payload(), pg.Payload()) || live.LSN() != pg.LSN() {
			t.Errorf("page %d: replayed image diverges (live LSN %d, shadow LSN %d)",
				id, live.LSN(), pg.LSN())
		}
		h.RUnlock()
		h.Release()
	}
}
