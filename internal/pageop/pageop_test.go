package pageop

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/page"
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
		Purge:    EncodePurge(67, []byte("k"), []byte("v"), false),
		Reinsert: EncodeReinsert(68, []byte("k2"), []byte("v2"), true),
		Replace:  EncodeReplace(69, []byte("NEW"), []byte("OLD")),
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
		{Purge, EncodePurge(67, []byte("absent"), nil, false)},
		{None, []byte{200}},
	} {
		if err := Apply(bad.k, bad.op, pg); !errors.Is(err, ErrBadOp) {
			t.Errorf("inapplicable op of kind %d: %v", bad.k, err)
		}
	}
}

// TestInverseRestoresPage: applying a physical op and then its Inverse
// brings the page back byte for byte (the payload is canonical), and the
// inverse carries the neighbouring opcode of the same engine block.
func TestInverseRestoresPage(t *testing.T) {
	for _, c := range []struct {
		k       Kind
		op      []byte
		invCode uint8
	}{
		{Purge, EncodePurge(67, []byte("k"), []byte("v"), false), 68},
		{Reinsert, EncodeReinsert(68, []byte("k2"), []byte("v2"), true), 67},
		{Replace, EncodeReplace(69, []byte("NEW"), nil), 69},
	} {
		pg := bucketPage(t)
		before := append([]byte(nil), pg.Payload()...)
		// The old payload a real Replace would carry.
		if c.k == Replace {
			c.op = EncodeReplace(69, []byte("NEW"), before)
		}
		if err := Apply(c.k, c.op, pg); err != nil {
			t.Fatal(err)
		}
		inv, err := Inverse(c.k, c.op, pg)
		if err != nil {
			t.Fatal(err)
		}
		if inv[0] != c.invCode {
			t.Errorf("inverse of kind %d carries opcode %d, want %d", c.k, inv[0], c.invCode)
		}
		invKind := map[Kind]Kind{Purge: Reinsert, Reinsert: Purge, Replace: Replace}[c.k]
		if err := Apply(invKind, inv, pg); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pg.Payload(), before) {
			t.Errorf("kind %d: op then inverse did not restore the page", c.k)
		}
	}
	if _, err := Inverse(Insert, EncodeInsert(64, 9, []byte("k"), nil), bucketPage(t)); !errors.Is(err, ErrBadOp) {
		t.Errorf("user op has no physical inverse: %v", err)
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
