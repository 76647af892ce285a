package btree

import (
	"bytes"
	"encoding/hex"
	"testing"

	"repro/internal/page"
)

// TestOpPayloadsMatchParentFormat pins the WAL contract across the page
// layout change: for every B-tree opcode, the encoder still emits exactly
// the bytes the decode→struct→encode implementation wrote (the hex strings
// were captured from it), and replaying those bytes through applyOp moves a
// page through the states the op describes. Log records, archive runs and
// CLRs written before the change therefore stay replayable. The structural
// ops lost their undo fields since (system transactions are redo-only):
// their hex is the redo part of the old format, and the retired
// compensation-only codes 5, 8 and 10 are skipped.
func TestOpPayloadsMatchParentFormat(t *testing.T) {
	kb, kc := []byte("kb"), []byte("kc")
	leaf := page.New(1, page.TypeBTree, 512)
	if err := leaf.SetPayload(newNodePayload(0, finite(nil), infFence, infFence, page.InvalidID, page.InvalidID)); err != nil {
		t.Fatal(err)
	}
	branch := page.New(2, page.TypeBTree, 512)
	if err := branch.SetPayload(newNodePayload(1, finite(nil), infFence, infFence, page.InvalidID, 3)); err != nil {
		t.Fatal(err)
	}
	meta := page.New(3, page.TypeMeta, 512)
	raw := page.New(4, page.TypeRaw, 512)

	// record reports keyed record 0 of pg, or ok=false when it has none.
	record := func(pg *page.Page) (key, val string, ghost, ok bool) {
		n, err := parseNode(pg.Payload())
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
	node := func(pg *page.Page) node {
		n, err := parseNode(pg.Payload())
		if err != nil {
			t.Fatal(err)
		}
		return n
	}

	steps := []struct {
		name   string
		golden string
		enc    []byte
		pg     *page.Page
		check  func() bool
	}{
		{"opLeafInsert", "01070000000000000002006b620300000076616c",
			encodeLeafInsert(7, kb, []byte("val")), leaf,
			func() bool { k, v, g, ok := record(leaf); return ok && k == "kb" && v == "val" && !g }},
		{"opLeafGhost", "02070000000000000002006b620100",
			encodeLeafGhost(7, kb, true, false), leaf,
			func() bool { _, v, g, ok := record(leaf); return ok && v == "val" && g }},
		{"opLeafUpdate", "03070000000000000002006b62030000006e65770300000076616c",
			encodeLeafUpdate(7, kb, []byte("new"), []byte("val")), leaf,
			func() bool { _, v, g, ok := record(leaf); return ok && v == "new" && g }},
		{"opLeafPurge", "0402006b62",
			encodeLeafPurge(kb), leaf,
			func() bool { _, _, _, ok := record(leaf); return !ok }},
		{"opSplitTruncate", "06090000000000000002006b63",
			encodeSplitTruncate(9, kc), leaf,
			func() bool {
				n := node(leaf)
				return n.foster == 9 && n.high.equal(finite(kc)) && n.chain.inf && n.Count() == 0
			}},
		{"opClearFoster", "07",
			encodeClearFoster(), leaf,
			func() bool { n := node(leaf); return !n.hasFoster() && n.chain.equal(finite(kc)) }},
		{"opAdopt", "0901006d0c00000000000000",
			encodeAdopt([]byte("m"), 12), branch,
			func() bool {
				n := node(branch)
				c, err := n.child(1)
				return n.fanout() == 2 && err == nil && c == 12
			}},
		{"opReplaceNode", "0b030000004e4557",
			encodeReplaceNode([]byte("NEW")), branch,
			func() bool { return string(branch.Payload()) == "NEW" }},
		{"opMetaPut", "0c03006964780500000000000000",
			EncodeMetaPut("idx", 5), meta,
			func() bool { reg, err := DecodeRegistry(meta.Payload()); return err == nil && reg["idx"] == 5 }},
		{"opRawSet", "0d04000000726177320400000072617731",
			EncodeRawSet([]byte("raw2"), []byte("raw1")), raw,
			func() bool { return string(raw.Payload()) == "raw2" }},
	}
	code := uint8(0)
	for _, s := range steps {
		golden, err := hex.DecodeString(s.golden)
		if err != nil {
			t.Fatal(err)
		}
		if code++; code == 5 || code == 8 || code == 10 {
			code++ // a retired opcode
		}
		if golden[0] != code {
			t.Fatalf("%s: golden carries opcode %d, want %d", s.name, golden[0], code)
		}
		if !bytes.Equal(s.enc, golden) {
			t.Errorf("%s: encoder wrote %x, parent format is %x", s.name, s.enc, golden)
		}
		if err := applyOp(golden, s.pg); err != nil {
			t.Fatalf("%s: replaying parent-format payload: %v", s.name, err)
		}
		if !s.check() {
			t.Errorf("%s: page not in the state the op describes", s.name)
		}
	}
	if err := leaf.Check(); err != nil {
		t.Errorf("leaf after replay: %v", err)
	}
}

// TestRedoOnlyAppliesAlike walks a page of every kind through every B-tree
// opcode twice, once with the whole ops and once with their RedoOnly
// forms: the pages stay byte-identical; RedoOnly cuts exactly the undo
// field of a user update (its old value), is its own fixed point, never
// grows an op nor writes to it, and hands every other op back unchanged.
// Every truncation of each op fails alike in both forms, or applies alike.
func TestRedoOnlyAppliesAlike(t *testing.T) {
	kb, kc := []byte("kb"), []byte("kc")
	pages := func() []*page.Page {
		leaf := page.New(1, page.TypeBTree, 512)
		branch := page.New(2, page.TypeBTree, 512)
		if err := leaf.SetPayload(newNodePayload(0, finite(nil), infFence, infFence, page.InvalidID, page.InvalidID)); err != nil {
			t.Fatal(err)
		}
		if err := branch.SetPayload(newNodePayload(1, finite(nil), infFence, infFence, page.InvalidID, 3)); err != nil {
			t.Fatal(err)
		}
		return []*page.Page{leaf, branch, page.New(3, page.TypeMeta, 512), page.New(4, page.TypeRaw, 512)}
	}
	whole, stripped := pages(), pages()
	const leaf, branch, meta, raw = 0, 1, 2, 3
	steps := []struct {
		name string
		op   []byte
		pg   int
		cut  int // undo bytes RedoOnly removes
	}{
		{"opLeafInsert", encodeLeafInsert(7, kb, []byte("val")), leaf, 0},
		{"opLeafGhost", encodeLeafGhost(7, kb, true, false), leaf, 0},
		{"opLeafUpdate", encodeLeafUpdate(7, kb, []byte("new"), []byte("val")), leaf, 3},
		{"opLeafPurge", encodeLeafPurge(kb), leaf, 0},
		{"opSplitTruncate", encodeSplitTruncate(9, kc), leaf, 0},
		{"opClearFoster", encodeClearFoster(), leaf, 0},
		{"opAdopt", encodeAdopt([]byte("m"), 12), branch, 0},
		{"opReplaceNode", encodeReplaceNode([]byte("NEW")), branch, 0},
		{"opMetaPut", EncodeMetaPut("idx", 5), meta, 0},
		{"opRawSet", EncodeRawSet([]byte("raw2"), []byte("raw1")), raw, 0},
	}
	for _, s := range steps {
		orig := bytes.Clone(s.op)
		ro := RedoOnly(s.op)
		if !bytes.Equal(s.op, orig) {
			t.Fatalf("%s: RedoOnly wrote to its argument", s.name)
		}
		if len(s.op)-len(ro) != s.cut || (s.cut == 0 && !bytes.Equal(ro, s.op)) {
			t.Fatalf("%s: RedoOnly %x -> %x, want %d undo bytes cut and nothing else", s.name, s.op, ro, s.cut)
		}
		if again := RedoOnly(ro); !bytes.Equal(again, ro) {
			t.Fatalf("%s: RedoOnly not idempotent: %x -> %x", s.name, ro, again)
		}
		for n := 0; n < len(s.op); n++ {
			a, b := whole[s.pg].Clone(), whole[s.pg].Clone()
			ea, eb := applyOp(s.op[:n], a), applyOp(RedoOnly(s.op[:n]), b)
			if (ea == nil) != (eb == nil) || !bytes.Equal(a.Encode(), b.Encode()) {
				t.Fatalf("%s truncated to %d bytes: whole %v, redo-only %v", s.name, n, ea, eb)
			}
		}
		if err := applyOp(s.op, whole[s.pg]); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if err := applyOp(ro, stripped[s.pg]); err != nil {
			t.Fatalf("%s redo-only: %v", s.name, err)
		}
		if !bytes.Equal(whole[s.pg].Encode(), stripped[s.pg].Encode()) {
			t.Fatalf("%s: redo-only replay left a different page", s.name)
		}
	}
}
