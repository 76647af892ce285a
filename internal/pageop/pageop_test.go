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
