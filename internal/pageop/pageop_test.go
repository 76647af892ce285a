package pageop

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/buffer"
	"repro/internal/iosim"
	"repro/internal/page"
	"repro/internal/pagemap"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

func bucketPage(t *testing.T) *page.Page {
	t.Helper()
	pg := page.New(1, page.TypeHash, 512)
	if err := pg.SetPayload(page.NewRecords(page.KindBucket, make([]byte, 28))); err != nil {
		t.Fatal(err)
	}
	if err := Apply(Insert, EncodeInsert(64, 9, []byte("k"), []byte("v")), pg); err != nil {
		t.Fatal(err)
	}
	return pg
}

// TestTruncatedOpsRejected: every prefix of every shared op's payload is
// refused with ErrBadOp — never a panic, never a partial apply.
func TestTruncatedOpsRejected(t *testing.T) {
	ops := map[Kind][]byte{
		Insert:   EncodeInsert(64, 9, []byte("k2"), []byte("v2")),
		Ghost:    EncodeGhost(65, 9, []byte("k"), true, false),
		Update:   EncodeUpdate(66, 9, []byte("k"), []byte("new"), []byte("v")),
		Purge:    EncodePurge(67, []byte("k")),
		Reinsert: EncodeReinsert(68, []byte("k2"), []byte("v2"), true),
		Replace:  EncodeReplace(69, []byte("NEW")),
	}
	for k, op := range ops {
		for cut := 1; cut < len(op); cut++ {
			pg := bucketPage(t)
			before := append([]byte(nil), pg.Payload()...)
			if err := Apply(k, op[:cut], pg); !errors.Is(err, ErrBadOp) {
				t.Fatalf("kind %d cut at %d: %v", k, cut, err)
			}
			if !bytes.Equal(pg.Payload(), before) {
				t.Fatalf("kind %d cut at %d: refused op changed the page", k, cut)
			}
		}
		if err := Apply(k, op, bucketPage(t)); err != nil {
			t.Fatalf("kind %d whole: %v", k, err)
		}
	}
	pg := bucketPage(t)
	for _, bad := range []struct {
		k  Kind
		op []byte
	}{
		{Insert, EncodeInsert(64, 9, []byte("k"), []byte("again"))}, // live key
		{Reinsert, EncodeReinsert(68, []byte("k"), nil, false)},     // present key
		{Update, EncodeUpdate(66, 9, []byte("absent"), nil, nil)},
		{Ghost, EncodeGhost(65, 9, []byte("absent"), true, false)},
		{Purge, EncodePurge(67, []byte("absent"))},
		{None, []byte{200}},
	} {
		if err := Apply(bad.k, bad.op, pg); !errors.Is(err, ErrBadOp) {
			t.Errorf("inapplicable op of kind %d: %v", bad.k, err)
		}
	}
}

// fuzzRecordPage renders src as a record page of one engine's layout: a
// Foster B-tree node (TypeBTree, three reserved fence records) or a hash
// bucket (TypeHash, none), with each engine's extension size. src is read as
// a stream of (key, value, ghost) entries; duplicate keys and entries past
// the page's capacity are dropped.
func fuzzRecordPage(t *testing.T, node bool, src []byte) *page.Page {
	t.Helper()
	c := NewCursor(src, 0)
	take := func(n uint8) []byte { return append([]byte(nil), c.Take(int(n))...) }
	var pg *page.Page
	var payload []byte
	if node {
		pg = page.New(1, page.TypeBTree, 1024)
		payload = page.NewRecords(page.KindNode, make([]byte, 2+1+8+8), take(c.U8()%6), take(c.U8()%6), take(c.U8()%6))
	} else {
		pg = page.New(1, page.TypeHash, 1024)
		payload = page.NewRecords(page.KindBucket, make([]byte, 4+4+8+8+4))
	}
	if err := pg.SetPayload(payload); err != nil {
		t.Fatal(err)
	}
	for c.Err() == nil {
		key, val, ghost := take(1+c.U8()%8), take(c.U8()%24), c.U8()&1 == 1
		if c.Err() != nil {
			break
		}
		r, err := page.ParseRecords(pg.Payload())
		if err != nil {
			t.Fatal(err)
		}
		i, found, err := r.Find(key)
		if err != nil {
			t.Fatal(err)
		}
		if found {
			continue
		}
		if err := pg.InsertRecord(i, key, val, ghost); err != nil {
			break // full
		}
	}
	return pg
}

// FuzzApplyUpdate: Apply of an Update overwrites an equal-length value in
// place and splices any other, and either way leaves the page byte for byte
// as SetRecordValue's splice does — on record pages of both engines, ghosts
// included. Reviving a ghost with Insert matches SetRecordValue followed by
// SetRecordGhost the same way.
func FuzzApplyUpdate(f *testing.F) {
	// Entries are klen-1, key, vlen, value, ghost; a node's three fences
	// come first, each length-prefixed.
	f.Add(false, []byte("\x00a\x02vv\x01\x00b\x01w\x00"), uint16(0), int8(0))
	f.Add(false, []byte("\x00a\x02vv\x01\x00b\x01w\x00"), uint16(1), int8(-1))
	f.Add(true, []byte("\x02lo\x02hi\x00\x01k1\x03abc\x00\x01k2\x00\x01"), uint16(1), int8(3))
	f.Add(true, []byte("\x02lo\x02hi\x00\x01k1\x03abc\x00\x01k2\x00\x01"), uint16(0), int8(-2))
	f.Fuzz(func(t *testing.T, node bool, src []byte, pick uint16, grow int8) {
		pg := fuzzRecordPage(t, node, src)
		r, err := page.ParseRecords(pg.Payload())
		if err != nil {
			t.Fatal(err)
		}
		if r.Count() == 0 {
			return
		}
		i := int(pick) % r.Count()
		k, v, ghost, err := r.Record(i)
		if err != nil {
			t.Fatal(err)
		}
		key, old := append([]byte(nil), k...), append([]byte(nil), v...)
		same := make([]byte, len(old))
		for j := range same {
			same[j] = old[j] ^ byte(j+1)
		}
		if grow == 0 {
			grow = 1
		}
		other := bytes.Repeat([]byte{byte(grow)}, max(0, len(old)+int(grow)))
		for _, val := range [][]byte{same, other} {
			applied, spliced := pg.Clone(), pg.Clone()
			aerr := Apply(Update, EncodeUpdate(66, 9, key, val, old), applied)
			serr := spliced.SetRecordValue(i, val)
			agree(t, "update", applied, spliced, aerr, serr)
			if aerr == nil {
				if got, g, _, _ := mustParse(t, applied).Get(key); !bytes.Equal(got, val) || g != ghost {
					t.Fatalf("update of %q left value %q ghost %v, want %q ghost %v", key, got, g, val, ghost)
				}
			}
			if !ghost {
				continue
			}
			applied, spliced = pg.Clone(), pg.Clone()
			aerr = Apply(Insert, EncodeInsert(64, 9, key, val), applied)
			serr = spliced.SetRecordValue(i, val)
			if serr == nil {
				serr = spliced.SetRecordGhost(i, false)
			}
			agree(t, "revival", applied, spliced, aerr, serr)
		}
	})
}

// agree fails t unless Apply and the page mutators both failed or both left
// the same valid payload.
func agree(t *testing.T, what string, applied, spliced *page.Page, aerr, serr error) {
	t.Helper()
	if (aerr == nil) != (serr == nil) {
		t.Fatalf("%s: Apply returned %v, the splice %v", what, aerr, serr)
	}
	if aerr != nil {
		return
	}
	if !bytes.Equal(applied.Payload(), spliced.Payload()) {
		t.Fatalf("%s: Apply left\n%x\nthe splice\n%x", what, applied.Payload(), spliced.Payload())
	}
	if err := applied.Check(); err != nil {
		t.Fatalf("%s: Apply left a page that fails Check: %v", what, err)
	}
}

func mustParse(t *testing.T, pg *page.Page) page.Records {
	t.Helper()
	r, err := page.ParseRecords(pg.Payload())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestSystemAbortRestoresCopies: a system transaction's first change to a
// page saves a copy of it, and Abort, run while the pages are still
// latched, puts each copy back as a Replace CLR — the page reads as it did
// before, its LSN is the CLR's, and replaying the page's chain onto its
// formatted image reaches the same bytes. A user transaction's change
// saves nothing: user ops are undone logically.
func TestSystemAbortRestoresCopies(t *testing.T) {
	dev := storage.NewDevice(storage.Config{PageSize: 512, Slots: 16, Profile: iosim.Instant})
	pm := pagemap.New(16)
	log := wal.NewManager(iosim.Instant)
	pool := buffer.NewPool(buffer.Config{Capacity: 8, Device: dev, Map: pm, Log: log})
	txns := txn.NewManager(log)
	kinds := map[uint8]Kind{64: Insert, 65: Ghost, 66: Update, 67: Purge, 68: Reinsert, 69: Replace}
	apply := func(op []byte, pg *page.Page) error { return Apply(kinds[op[0]], op, pg) }
	o := Ops{Apply: apply, Replace: 69}

	var hs []*buffer.Handle
	formatted := bucketPage(t).Payload()
	for i := 0; i < 2; i++ {
		h, err := pool.Create(pm.AllocateLogical(), page.TypeHash)
		if err != nil {
			t.Fatal(err)
		}
		h.Lock()
		if err := h.Page().SetPayload(formatted); err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	user := txns.Begin()
	if err := o.LogApply(user, hs[0], EncodeInsert(64, 9, []byte("u"), []byte("user"))); err != nil {
		t.Fatal(err)
	}
	if user.Changed(hs[0].ID()) {
		t.Fatal("a user transaction's change saved a copy")
	}
	before := [][]byte{bytes.Clone(hs[0].Page().Payload()), bytes.Clone(hs[1].Page().Payload())}
	lsnBefore := []page.LSN{hs[0].Page().LSN(), hs[1].Page().LSN()}

	st := txns.BeginSystem()
	for _, step := range []struct {
		h  *buffer.Handle
		op []byte
	}{
		{hs[0], EncodePurge(67, []byte("k"))},
		{hs[0], EncodeReinsert(68, []byte("k2"), []byte("moved"), false)},
		{hs[1], EncodeReplace(69, []byte("rewritten"))},
	} {
		if err := o.LogApply(st, step.h, step.op); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Abort(); err != nil {
		t.Fatal(err)
	}
	for i, h := range hs {
		if !bytes.Equal(h.Page().Payload(), before[i]) {
			t.Fatalf("page %d after abort:\n%x\nwant\n%x", i, h.Page().Payload(), before[i])
		}
		clr, err := log.Read(h.Page().LSN())
		if err != nil {
			t.Fatal(err)
		}
		if clr.Type != wal.TypeCLR || !bytes.Equal(clr.Payload, EncodeReplace(69, before[i])) {
			t.Fatalf("page %d: newest record is %v %x, want a Replace CLR of the copy", i, clr.Type, clr.Payload)
		}
		// Replay the chain above the page's LSN before the system
		// transaction onto a copy of that state.
		chain, err := log.WalkPageChain(h.Page().LSN(), lsnBefore[i], h.ID())
		if err != nil {
			t.Fatal(err)
		}
		replayed := page.New(h.ID(), page.TypeHash, 512)
		if err := replayed.SetPayload(before[i]); err != nil {
			t.Fatal(err)
		}
		for j := len(chain) - 1; j >= 0; j-- {
			if err := apply(chain[j].Payload, replayed); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(replayed.Payload(), before[i]) {
			t.Fatalf("page %d: replaying its chain does not reach the restored bytes", i)
		}
		h.Unlock()
		h.Release()
	}
}
