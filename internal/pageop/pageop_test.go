package pageop

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
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
	pg := emptyPage(t, false)
	if err := Apply(EncodeInsert(9, []byte("k"), []byte("v")), pg); err != nil {
		t.Fatal(err)
	}
	return pg
}

// emptyPage returns an empty record page of one engine's layout: a Foster
// B-tree node (TypeBTree, three empty fences) or a hash bucket (TypeHash).
func emptyPage(t *testing.T, node bool) *page.Page {
	t.Helper()
	return fuzzRecordPage(t, node, nil)
}

// sharedOps walks a record page through every shared op, in the format
// both engines log them: the hex strings were captured from the
// decode→struct→encode implementation. cut is the undo bytes RedoOnly
// removes; check says whether the page is in the state the op describes.
func sharedOps(t *testing.T) []struct {
	name   string
	golden string
	enc    []byte
	cut    int
	check  func(*page.Page) bool
} {
	kb := []byte("kb")
	// record reports keyed record 0 of pg, or ok=false when it has none.
	record := func(pg *page.Page) (key, val string, ghost, ok bool) {
		r := mustParse(t, pg)
		if r.Count() == 0 {
			return "", "", false, false
		}
		k, v, g, err := r.Record(0)
		if err != nil {
			t.Fatal(err)
		}
		return string(k), string(v), g, true
	}
	return []struct {
		name   string
		golden string
		enc    []byte
		cut    int
		check  func(*page.Page) bool
	}{
		{"Insert", "01070000000000000002006b620300000076616c",
			EncodeInsert(7, kb, []byte("val")), 0,
			func(pg *page.Page) bool { k, v, g, ok := record(pg); return ok && k == "kb" && v == "val" && !g }},
		{"Ghost", "02070000000000000002006b620100",
			EncodeGhost(7, kb, true, false), 0,
			func(pg *page.Page) bool { _, v, g, ok := record(pg); return ok && v == "val" && g }},
		{"Update", "03070000000000000002006b62030000006e65770300000076616c",
			EncodeUpdate(7, kb, []byte("new"), []byte("val")), 3,
			func(pg *page.Page) bool { _, v, g, ok := record(pg); return ok && v == "new" && g }},
		{"Purge", "0402006b62",
			EncodePurge(kb), 0,
			func(pg *page.Page) bool { _, _, _, ok := record(pg); return !ok }},
		{"Reinsert", "0502006b62030000006e657701",
			EncodeReinsert(kb, []byte("new"), true), 0,
			func(pg *page.Page) bool { k, v, g, ok := record(pg); return ok && k == "kb" && v == "new" && g }},
		{"Replace", "0b030000004e4557",
			EncodeReplace([]byte("NEW")), 0,
			func(pg *page.Page) bool { return string(pg.Payload()) == "NEW" }},
	}
}

// TestOpPayloadsMatchParentFormat pins the WAL contract of the shared ops:
// each carries the opcode pageop owns, its encoder emits exactly the
// pinned bytes, and replaying those bytes through Apply moves a record page
// of either engine's layout through the states the ops describe. Log
// records, archive runs and CLRs the B-tree wrote before therefore stay
// replayable.
func TestOpPayloadsMatchParentFormat(t *testing.T) {
	codes := []Kind{Insert, Ghost, Update, Purge, Reinsert, Replace}
	for _, node := range []bool{false, true} {
		pg := emptyPage(t, node)
		for i, s := range sharedOps(t) {
			golden, err := hex.DecodeString(s.golden)
			if err != nil {
				t.Fatal(err)
			}
			if Kind(golden[0]) != codes[i] {
				t.Fatalf("%s: golden carries opcode %d, the Kind is %d", s.name, golden[0], codes[i])
			}
			if !bytes.Equal(s.enc, golden) {
				t.Errorf("%s: encoder wrote %x, parent format is %x", s.name, s.enc, golden)
			}
			if s.name == "Replace" {
				if err := pg.Check(); err != nil {
					t.Errorf("node=%v: page after entry-op replay: %v", node, err)
				}
			}
			if err := Apply(golden, pg); err != nil {
				t.Fatalf("node=%v %s: replaying parent-format payload: %v", node, s.name, err)
			}
			if !s.check(pg) {
				t.Errorf("node=%v %s: page not in the state the op describes", node, s.name)
			}
		}
	}
}

// TestRedoOnlyAppliesAlike walks a record page of either engine's layout
// through every shared op twice, once with the whole ops and once with
// their RedoOnly forms: the pages stay byte-identical; RedoOnly cuts
// exactly the undo field of a user update (its old value), is its own
// fixed point, never grows an op nor writes to it, and hands every other
// op back unchanged. Every truncation of each op fails alike in both
// forms, or applies alike.
func TestRedoOnlyAppliesAlike(t *testing.T) {
	for _, node := range []bool{false, true} {
		whole, stripped := emptyPage(t, node), emptyPage(t, node)
		for _, s := range sharedOps(t) {
			orig := bytes.Clone(s.enc)
			ro := RedoOnly(s.enc)
			if !bytes.Equal(s.enc, orig) {
				t.Fatalf("%s: RedoOnly wrote to its argument", s.name)
			}
			if len(s.enc)-len(ro) != s.cut || (s.cut == 0 && !bytes.Equal(ro, s.enc)) {
				t.Fatalf("%s: RedoOnly %x -> %x, want %d undo bytes cut and nothing else", s.name, s.enc, ro, s.cut)
			}
			if again := RedoOnly(ro); !bytes.Equal(again, ro) {
				t.Fatalf("%s: RedoOnly not idempotent: %x -> %x", s.name, ro, again)
			}
			for n := 0; n < len(s.enc); n++ {
				a, b := whole.Clone(), whole.Clone()
				ea, eb := Apply(s.enc[:n], a), Apply(RedoOnly(s.enc[:n]), b)
				if (ea == nil) != (eb == nil) || !bytes.Equal(a.Encode(), b.Encode()) {
					t.Fatalf("node=%v %s truncated to %d bytes: whole %v, redo-only %v", node, s.name, n, ea, eb)
				}
			}
			if err := Apply(s.enc, whole); err != nil {
				t.Fatalf("node=%v %s: %v", node, s.name, err)
			}
			if err := Apply(ro, stripped); err != nil {
				t.Fatalf("node=%v %s redo-only: %v", node, s.name, err)
			}
			if !bytes.Equal(whole.Encode(), stripped.Encode()) {
				t.Fatalf("node=%v %s: redo-only replay left a different page", node, s.name)
			}
		}
	}
}

// TestTruncatedOpsRejected: every prefix of every shared op's payload is
// refused with ErrBadOp — never a panic, never a partial apply — and so is
// every op that does not fit the page, an empty payload and any opcode
// that is not a shared op (the B-tree's structural codes among them).
func TestTruncatedOpsRejected(t *testing.T) {
	ops := [][]byte{
		EncodeInsert(9, []byte("k2"), []byte("v2")),
		EncodeGhost(9, []byte("k"), true, false),
		EncodeUpdate(9, []byte("k"), []byte("new"), []byte("v")),
		EncodePurge([]byte("k")),
		EncodeReinsert([]byte("k2"), []byte("v2"), true),
		EncodeReplace([]byte("NEW")),
	}
	for _, op := range ops {
		for cut := 1; cut < len(op); cut++ {
			pg := bucketPage(t)
			before := append([]byte(nil), pg.Payload()...)
			if err := Apply(op[:cut], pg); !errors.Is(err, ErrBadOp) {
				t.Fatalf("opcode %d cut at %d: %v", op[0], cut, err)
			}
			if !bytes.Equal(pg.Payload(), before) {
				t.Fatalf("opcode %d cut at %d: refused op changed the page", op[0], cut)
			}
		}
		if err := Apply(op, bucketPage(t)); err != nil {
			t.Fatalf("opcode %d whole: %v", op[0], err)
		}
	}
	pg := bucketPage(t)
	for _, bad := range [][]byte{
		EncodeInsert(9, []byte("k"), []byte("again")), // live key
		EncodeReinsert([]byte("k"), nil, false),       // present key
		EncodeUpdate(9, []byte("absent"), nil, nil),
		EncodeGhost(9, []byte("absent"), true, false),
		EncodePurge([]byte("absent")),
		nil,
		{6, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0}, // the B-tree's split truncate
		{200},
	} {
		if err := Apply(bad, pg); !errors.Is(err, ErrBadOp) {
			t.Errorf("inapplicable op %x: %v", bad, err)
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

// FuzzApplyUpdate: Apply of every shared op leaves a record page of either
// engine byte for byte as the page mutators the op stands for do, or fails
// as they do. An Update overwrites an equal-length value in place and
// splices any other, as SetRecordValue does, ghosts included; reviving a
// ghost with Insert matches SetRecordValue followed by SetRecordGhost; an
// Insert or Reinsert of an absent key matches InsertRecord, a Ghost
// SetRecordGhost, a Purge RemoveRecords and a Replace SetPayload. An op the
// page cannot take — an Update, Ghost or Purge of an absent key, an Insert
// over a live key, a Reinsert of a present one — and any opcode that is not
// a shared op are refused with ErrBadOp and leave the page as it was.
func FuzzApplyUpdate(f *testing.F) {
	// Entries are klen-1, key, vlen, value, ghost; a node's three fences
	// come first, each length-prefixed. The last argument is the opcode.
	bucketSrc := []byte("\x00a\x02vv\x01\x00b\x01w\x00")                 // a ghost, b live
	nodeSrc := []byte("\x02lo\x02hi\x00\x01k1\x03abc\x00\x01k2\x00\x01") // k1 live, k2 ghost
	f.Add(false, bucketSrc, uint16(0), int8(0), uint8(Update))
	f.Add(false, bucketSrc, uint16(1), int8(-1), uint8(Update))
	f.Add(true, nodeSrc, uint16(1), int8(3), uint8(Update))
	f.Add(true, nodeSrc, uint16(0), int8(-2), uint8(Update))
	f.Add(true, nodeSrc, uint16(1), int8(2), uint8(Insert))
	f.Add(false, bucketSrc, uint16(1), int8(1), uint8(Insert))
	f.Add(false, bucketSrc, uint16(0), int8(1), uint8(Ghost))
	f.Add(true, nodeSrc, uint16(0), int8(1), uint8(Purge))
	f.Add(false, bucketSrc, uint16(1), int8(4), uint8(Reinsert))
	f.Add(true, nodeSrc, uint16(0), int8(-1), uint8(Replace))
	f.Add(false, bucketSrc, uint16(0), int8(1), uint8(6)) // the B-tree's split truncate
	f.Fuzz(func(t *testing.T, node bool, src []byte, pick uint16, grow int8, code uint8) {
		pg := fuzzRecordPage(t, node, src)
		r := mustParse(t, pg)
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
		// absent is a key the page does not hold, to go at record j; nil
		// when the page happens to hold it.
		absent := append(bytes.Clone(key), byte(grow))
		j, found, err := r.Find(absent)
		if err != nil {
			t.Fatal(err)
		}
		if found {
			absent = nil
		}
		// Each op comes with the mutators it stands for (nil: the page
		// cannot take it) and, for an Update, the value it writes.
		type step struct {
			op     []byte
			mutate func(*page.Page) error
			val    []byte
		}
		var steps []step
		for _, val := range [][]byte{same, other} {
			switch Kind(code) {
			case Update:
				steps = append(steps, step{EncodeUpdate(9, key, val, old),
					func(p *page.Page) error { return p.SetRecordValue(i, val) }, val})
			case Insert:
				var revive func(*page.Page) error
				if ghost {
					revive = func(p *page.Page) error {
						if err := p.SetRecordValue(i, val); err != nil {
							return err
						}
						return p.SetRecordGhost(i, false)
					}
				}
				steps = append(steps, step{EncodeInsert(9, key, val), revive, nil})
				if absent != nil {
					steps = append(steps, step{EncodeInsert(9, absent, val),
						func(p *page.Page) error { return p.InsertRecord(j, absent, val, false) }, nil})
				}
			case Reinsert:
				steps = append(steps, step{EncodeReinsert(key, val, ghost), nil, nil})
				if absent != nil {
					steps = append(steps, step{EncodeReinsert(absent, val, !ghost),
						func(p *page.Page) error { return p.InsertRecord(j, absent, val, !ghost) }, nil})
				}
			}
		}
		switch Kind(code) {
		case Insert, Reinsert:
		case Ghost:
			steps = append(steps, step{EncodeGhost(9, key, !ghost, ghost),
				func(p *page.Page) error { return p.SetRecordGhost(i, !ghost) }, nil})
		case Purge:
			steps = append(steps, step{EncodePurge(key),
				func(p *page.Page) error { return p.RemoveRecords(i, i+1) }, nil})
		case Replace:
			rest := pg.Clone()
			if err := rest.RemoveRecords(i, i+1); err != nil {
				t.Fatal(err)
			}
			steps = append(steps, step{EncodeReplace(rest.Payload()),
				func(p *page.Page) error { return p.SetPayload(rest.Payload()) }, nil})
		default:
			steps = append(steps, step{append([]byte{code}, src...), nil, nil})
		}
		if absent != nil {
			switch Kind(code) {
			case Update:
				steps = append(steps, step{op: EncodeUpdate(9, absent, other, nil)})
			case Ghost:
				steps = append(steps, step{op: EncodeGhost(9, absent, true, false)})
			case Purge:
				steps = append(steps, step{op: EncodePurge(absent)})
			}
		}
		for _, s := range steps {
			applied := pg.Clone()
			aerr := Apply(s.op, applied)
			if s.mutate == nil {
				if !errors.Is(aerr, ErrBadOp) || !bytes.Equal(applied.Payload(), pg.Payload()) {
					t.Fatalf("op %x the page cannot take: Apply returned %v", s.op, aerr)
				}
				continue
			}
			spliced := pg.Clone()
			agree(t, fmt.Sprintf("opcode %d", code), applied, spliced, aerr, s.mutate(spliced))
			if s.val == nil || aerr != nil {
				continue
			}
			if got, g, _, _ := mustParse(t, applied).Get(key); !bytes.Equal(got, s.val) || g != ghost {
				t.Fatalf("update of %q left value %q ghost %v, want %q ghost %v", key, got, g, s.val, ghost)
			}
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
	o := Ops{Apply: Apply}

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
	if err := o.LogApply(user, hs[0], EncodeInsert(9, []byte("u"), []byte("user"))); err != nil {
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
		{hs[0], EncodePurge([]byte("k"))},
		{hs[0], EncodeReinsert([]byte("k2"), []byte("moved"), false)},
		{hs[1], EncodeReplace([]byte("rewritten"))},
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
		if clr.Type != wal.TypeCLR || !bytes.Equal(clr.Payload, EncodeReplace(before[i])) {
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
			if err := Apply(chain[j].Payload, replayed); err != nil {
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
