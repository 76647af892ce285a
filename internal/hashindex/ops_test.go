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
// bucket page through the states the op describes.
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
		{"opHashPurge", "4302006b62030000006e657701",
			encodePurge(kb, []byte("new"), true),
			func() bool { _, _, _, ok := record(); return !ok }},
		{"opHashReinsert", "4402006b62030000006e657701",
			encodeReinsert(kb, []byte("new"), true),
			func() bool { k, v, g, ok := record(); return ok && k == "kb" && v == "new" && g }},
		{"opHashPageSet", "45030000004e4557030000004f4c44",
			encodePageSet([]byte("NEW"), []byte("OLD")),
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
