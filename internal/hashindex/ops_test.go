package hashindex

import (
	"bytes"
	"encoding/hex"
	"testing"

	"repro/internal/page"
)

// TestOpPayloadsMatchParentFormat pins the WAL contract across the page
// layout change: for every hash opcode, the encoder still emits exactly the
// bytes the decode→struct→encode implementation wrote (the hex strings were
// captured from it), and replaying those bytes through applyOp moves a
// bucket page through the states the op describes. The purge and the page
// set lost their undo fields since (system transactions are redo-only):
// their hex is the redo part of the old format.
func TestOpPayloadsMatchParentFormat(t *testing.T) {
	kb := []byte("kb")
	pg := page.New(1, page.TypeHash, 512)
	if err := pg.SetPayload(page.NewRecords(page.KindBucket, bucketExt(0, 1, 7, page.InvalidID, 0))); err != nil {
		t.Fatal(err)
	}
	// record reports keyed record 0, or ok=false when the page has none.
	record := func() (key, val string, ghost, ok bool) {
		n, err := parseBucket(pg.Payload())
		if err != nil {
			t.Fatal(err)
		}
		if n.Count() == 0 {
			return "", "", false, false
		}
		k, v, g, err := n.Record(0)
		if err != nil {
			t.Fatal(err)
		}
		return string(k), string(v), g, true
	}
	steps := []struct {
		name   string
		golden string
		enc    []byte
		check  func() bool
	}{
		{"opHashInsert", "40070000000000000002006b620300000076616c",
			encodeInsert(7, kb, []byte("val")),
			func() bool { k, v, g, ok := record(); return ok && k == "kb" && v == "val" && !g }},
		{"opHashGhost", "41070000000000000002006b620100",
			encodeGhost(7, kb, true, false),
			func() bool { _, v, g, ok := record(); return ok && v == "val" && g }},
		{"opHashUpdate", "42070000000000000002006b62030000006e65770300000076616c",
			encodeUpdate(7, kb, []byte("new"), []byte("val")),
			func() bool { _, v, g, ok := record(); return ok && v == "new" && g }},
		{"opHashPurge", "4302006b62",
			encodePurge(kb),
			func() bool { _, _, _, ok := record(); return !ok }},
		{"opHashReinsert", "4402006b62030000006e657701",
			encodeReinsert(kb, []byte("new"), true),
			func() bool { k, v, g, ok := record(); return ok && k == "kb" && v == "new" && g }},
		{"opHashPageSet", "45030000004e4557",
			encodePageSet([]byte("NEW")),
			func() bool { return string(pg.Payload()) == "NEW" }},
	}
	for i, s := range steps {
		golden, err := hex.DecodeString(s.golden)
		if err != nil {
			t.Fatal(err)
		}
		if golden[0] != opHashInsert+uint8(i) {
			t.Fatalf("%s: golden carries opcode %d, want %d", s.name, golden[0], opHashInsert+uint8(i))
		}
		if !bytes.Equal(s.enc, golden) {
			t.Errorf("%s: encoder wrote %x, parent format is %x", s.name, s.enc, golden)
		}
		if i == len(steps)-1 {
			if err := pg.Check(); err != nil {
				t.Errorf("bucket after entry-op replay: %v", err)
			}
		}
		if err := applyOp(golden, pg); err != nil {
			t.Fatalf("%s: replaying parent-format payload: %v", s.name, err)
		}
		if !s.check() {
			t.Errorf("%s: page not in the state the op describes", s.name)
		}
	}
}

// TestRedoOnlyAppliesAlike walks a bucket page through every hash opcode
// twice, once with the whole ops and once with their RedoOnly forms: the
// pages stay byte-identical; RedoOnly cuts exactly the undo field of a user
// update (its old value), is its own fixed point, never grows an op, and
// hands every other op back unchanged.
// Every truncation of each op fails alike in both forms, or applies alike.
func TestRedoOnlyAppliesAlike(t *testing.T) {
	kb := []byte("kb")
	bucket := func() *page.Page {
		pg := page.New(1, page.TypeHash, 512)
		if err := pg.SetPayload(page.NewRecords(page.KindBucket, bucketExt(0, 1, 7, page.InvalidID, 0))); err != nil {
			t.Fatal(err)
		}
		return pg
	}
	whole, stripped := bucket(), bucket()
	steps := []struct {
		name string
		op   []byte
		cut  int
	}{
		{"opHashInsert", encodeInsert(7, kb, []byte("val")), 0},
		{"opHashGhost", encodeGhost(7, kb, true, false), 0},
		{"opHashUpdate", encodeUpdate(7, kb, []byte("new"), []byte("val")), 3},
		{"opHashPurge", encodePurge(kb), 0},
		{"opHashReinsert", encodeReinsert(kb, []byte("new"), true), 0},
		{"opHashPageSet", encodePageSet([]byte("NEW")), 0},
	}
	for _, s := range steps {
		ro := RedoOnly(s.op)
		if len(s.op)-len(ro) != s.cut || (s.cut == 0 && !bytes.Equal(ro, s.op)) {
			t.Fatalf("%s: RedoOnly %x -> %x, want %d undo bytes cut and nothing else", s.name, s.op, ro, s.cut)
		}
		if again := RedoOnly(ro); !bytes.Equal(again, ro) {
			t.Fatalf("%s: RedoOnly not idempotent: %x -> %x", s.name, ro, again)
		}
		for n := 0; n < len(s.op); n++ {
			a, b := whole.Clone(), whole.Clone()
			ea, eb := applyOp(s.op[:n], a), applyOp(RedoOnly(s.op[:n]), b)
			if (ea == nil) != (eb == nil) || !bytes.Equal(a.Encode(), b.Encode()) {
				t.Fatalf("%s truncated to %d bytes: whole %v, redo-only %v", s.name, n, ea, eb)
			}
		}
		if err := applyOp(s.op, whole); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if err := applyOp(ro, stripped); err != nil {
			t.Fatalf("%s redo-only: %v", s.name, err)
		}
		if !bytes.Equal(whole.Encode(), stripped.Encode()) {
			t.Fatalf("%s: redo-only replay left a different page", s.name)
		}
	}
}
