package btree

import (
	"bytes"
	"encoding/hex"
	"testing"

	"repro/internal/page"
	"repro/internal/pageop"
)

// TestOpPayloadsMatchParentFormat pins the WAL contract across the page
// layout change: for every B-tree structural opcode, the encoder still
// emits exactly the bytes the decode→struct→encode implementation wrote
// (the hex strings were captured from it), and replaying those bytes
// through applyOp moves a page through the states the op describes. Log
// records, archive runs and CLRs written before the change therefore stay
// replayable. The structural ops lost their undo fields since (system
// transactions are redo-only): their hex is the redo part of the old
// format, and the retired compensation-only codes 8 and 10 are skipped.
// The entry ops and the node replace are shared ops, pinned under codes 1
// to 5 and 11 by internal/pageop's test of the same name.
func TestOpPayloadsMatchParentFormat(t *testing.T) {
	kc := []byte("kc")
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
		{"opMetaPut", "0c03006964780500000000000000",
			EncodeMetaPut("idx", 5), meta,
			func() bool { reg, err := DecodeRegistry(meta.Payload()); return err == nil && reg["idx"] == 5 }},
		{"opRawSet", "0d04000000726177320400000072617731",
			EncodeRawSet([]byte("raw2"), []byte("raw1")), raw,
			func() bool { return string(raw.Payload()) == "raw2" }},
	}
	for i, s := range steps {
		golden, err := hex.DecodeString(s.golden)
		if err != nil {
			t.Fatal(err)
		}
		if code := []uint8{opSplitTruncate, opClearFoster, opAdopt, opMetaPut, opRawSet}[i]; golden[0] != code {
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
// structural opcode twice, once with the whole ops and once with their
// pageop.RedoOnly forms: RedoOnly hands every structural op back unchanged
// (a raw set's old payload included), the pages stay byte-identical, and
// every truncation of each op fails alike in both forms, or applies alike.
// internal/pageop's test of the same name covers the shared ops.
func TestRedoOnlyAppliesAlike(t *testing.T) {
	kc := []byte("kc")
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
	}{
		{"opSplitTruncate", encodeSplitTruncate(9, kc), leaf},
		{"opClearFoster", encodeClearFoster(), leaf},
		{"opAdopt", encodeAdopt([]byte("m"), 12), branch},
		{"opMetaPut", EncodeMetaPut("idx", 5), meta},
		{"opRawSet", EncodeRawSet([]byte("raw2"), []byte("raw1")), raw},
	}
	for _, s := range steps {
		ro := pageop.RedoOnly(s.op)
		if !bytes.Equal(ro, s.op) {
			t.Fatalf("%s: RedoOnly %x -> %x, want it unchanged", s.name, s.op, ro)
		}
		for n := 0; n < len(s.op); n++ {
			a, b := whole[s.pg].Clone(), whole[s.pg].Clone()
			ea, eb := applyOp(s.op[:n], a), applyOp(pageop.RedoOnly(s.op[:n]), b)
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
