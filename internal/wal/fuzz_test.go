package wal

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/page"
)

// FuzzDecodeRecord feeds arbitrary bytes to DecodeRecordInto, the decoder
// the live log and the archive read every record with. It must never panic; what it
// accepts must re-encode to exactly the bytes it consumed; and a record
// built from the input must survive an AppendRecord round trip.
func FuzzDecodeRecord(f *testing.F) {
	f.Add(AppendRecord(nil, &Record{Type: TypeUpdate, Txn: 7, PrevLSN: 16, PageID: 3, PagePrevLSN: 16, Payload: []byte("redo+undo")}))
	f.Add(AppendRecord(nil, &Record{Type: TypeCommit, Txn: 7}))
	f.Add(AppendRecord([]byte{1, 2, 3}, &Record{Type: TypeCLR, UndoNext: 99, Payload: []byte{0}})[3:])
	f.Add([]byte{})
	f.Add(make([]byte, headerSize+trailerSize))
	// A page copy: AsOf, flags, page type, used length, then the used bytes.
	f.Add(AppendRecord(nil, &Record{Type: TypeImage, PageID: 3, Payload: []byte{
		16, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 3, 0, 0, 0, 'a', 'b', 'c'}}))
	f.Fuzz(func(t *testing.T, b []byte) {
		var rec Record
		if n, err := DecodeRecordInto(page.LSN(64), b, &rec); err == nil {
			if n < headerSize+trailerSize || n > len(b) || n != RecordSize(&rec) {
				t.Fatalf("decoded %d bytes of %d (record size %d)", n, len(b), RecordSize(&rec))
			}
			if re := AppendRecord(nil, &rec); !bytes.Equal(re, b[:n]) {
				t.Fatalf("re-encoding differs from the decoded bytes:\n%x\n%x", re, b[:n])
			}
		}

		var fields [41]byte
		copy(fields[:], b)
		want := &Record{
			LSN:         page.LSN(binary.LittleEndian.Uint64(fields[1:])),
			Type:        RecType(fields[0]),
			Txn:         TxnID(binary.LittleEndian.Uint64(fields[9:])),
			PrevLSN:     page.LSN(binary.LittleEndian.Uint64(fields[17:])),
			PageID:      page.ID(binary.LittleEndian.Uint64(fields[25:])),
			PagePrevLSN: page.LSN(binary.LittleEndian.Uint64(fields[33:])),
			Payload:     b,
		}
		enc := AppendRecord(nil, want)
		var got Record
		n, err := DecodeRecordInto(want.LSN, enc, &got)
		if err != nil || n != len(enc) {
			t.Fatalf("round trip: %d of %d bytes, %v", n, len(enc), err)
		}
		if got.LSN != want.LSN || got.Type != want.Type || got.Txn != want.Txn || got.PrevLSN != want.PrevLSN ||
			got.PageID != want.PageID || got.PagePrevLSN != want.PagePrevLSN || got.UndoNext != want.UndoNext ||
			!bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("round trip: %+v, want %+v", got, want)
		}
	})
}
