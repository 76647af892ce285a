package page

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// Structured payload layouts.
//
// Every TypeBTree and TypeHash page carries one of two layouts in its
// payload, both operated on IN PLACE in the buffer frame — no decoded
// per-page struct exists anywhere. They share a five-byte header:
//
//	offset  size  field
//	0       1     kind      which structure owns the page (Kind* below)
//	1       1     extLen    E: bytes of engine extension
//	2       1     reserved  R: leading records that are not keyed entries
//	3       2     count     N: records (reserved included) or array slots
//	5       E     extension opaque to this package; the engine's stamps
//
// A record page (Records: B-tree leaves and branches, hash buckets and
// overflow pages) continues with
//
//	5+E     2N    offsets   offsets[i] = END of record i within the area
//	5+E+2N        records   packed back to back in slot order
//
// where the first R records are raw byte strings (the B-tree's fence keys)
// and the rest are keyed entries in strictly ascending key order:
//
//	u16 keyLen | ghost<<15, key bytes, value bytes (to the record's end)
//
// An array page (IDArray: the hash directory) continues with N fixed-width
// u64 page IDs.
//
// Both layouts are packed and canonical: the payload length is exactly the
// bytes used and the same logical content always yields the same bytes, so
// whole-payload pre-images in log records and backup images carry no slack.
// Lookup is a binary search by arithmetic on the offset array; insert,
// remove, and resize are splices.
//
// Trust model: ParseRecords and ParseIDArray verify the header against the
// payload length in O(1) and every accessor bounds-checks the offsets it
// dereferences, so no input can cause an out-of-range access. The O(N)
// structural validation (offsets monotone, every entry well formed, keys
// sorted and non-empty) is Check, which the buffer pool runs on every image
// it loads, so a binary search never runs over an unchecked page.

// Layout kinds: the first payload byte of every structured page.
const (
	KindDirectory uint8 = 1 // IDArray: linear-hash directory
	KindBucket    uint8 = 2 // Records: hash bucket or overflow page
	KindNode      uint8 = 3 // Records: Foster B-tree leaf or branch
)

// ErrCorrupt reports a structured payload that violates its layout.
var ErrCorrupt = errors.New("page: structured payload corrupt")

const (
	// LayoutHeaderSize is the size of the header both layouts share.
	LayoutHeaderSize = 5
	ghostBit         = 1 << 15
	// MaxKeyLen is the longest key a record can hold.
	MaxKeyLen = ghostBit - 1
	// maxRecordArea bounds the record area so every offset fits a u16.
	maxRecordArea = 1<<16 - 1
)

// RecordSize is the payload footprint of one keyed record: its offset slot,
// its key-length word, and its bytes.
func RecordSize(keyLen, valLen int) int { return 2 + 2 + keyLen + valLen }

// Records is a read-only view of a record page payload. It aliases the
// payload: valid only while the page latch is held, and stale after any
// mutation of the page.
type Records struct {
	b    []byte // the whole payload
	offs int    // start of the offset array
	area int    // start of the record area
	n    int    // records, reserved included
	res  int    // reserved leading records
}

// ParseRecords checks the layout header against the payload length and
// returns the view.
func ParseRecords(payload []byte) (Records, error) {
	if len(payload) < LayoutHeaderSize {
		return Records{}, fmt.Errorf("%w: %d-byte payload has no layout header", ErrCorrupt, len(payload))
	}
	r := Records{
		b:    payload,
		offs: LayoutHeaderSize + int(payload[1]),
		n:    int(binary.LittleEndian.Uint16(payload[3:])),
		res:  int(payload[2]),
	}
	r.area = r.offs + 2*r.n
	if r.res > r.n || r.area > len(payload) {
		return Records{}, fmt.Errorf("%w: header (ext %d, reserved %d, count %d) exceeds %d-byte payload",
			ErrCorrupt, payload[1], r.res, r.n, len(payload))
	}
	if used := r.area + r.end(r.n-1); used != len(payload) {
		return Records{}, fmt.Errorf("%w: records end at byte %d of a %d-byte payload", ErrCorrupt, used, len(payload))
	}
	return r, nil
}

// end returns the end offset of slot s within the record area (0 for s<0).
// s must be below n; the offset array itself was bounds-checked by parse.
func (r Records) end(s int) int {
	if s < 0 {
		return 0
	}
	return int(binary.LittleEndian.Uint16(r.b[r.offs+2*s:]))
}

// slot returns the bytes of record slot s, bounds-checked.
func (r Records) slot(s int) ([]byte, error) {
	if s < 0 || s >= r.n {
		return nil, fmt.Errorf("%w: record slot %d of %d", ErrCorrupt, s, r.n)
	}
	lo, hi := r.area+r.end(s-1), r.area+r.end(s)
	if lo > hi || hi > len(r.b) {
		return nil, fmt.Errorf("%w: record slot %d spans [%d,%d) of a %d-byte payload", ErrCorrupt, s, lo, hi, len(r.b))
	}
	return r.b[lo:hi:hi], nil
}

// Kind returns the layout kind byte.
func (r Records) Kind() uint8 { return r.b[0] }

// Ext returns the engine extension. It aliases the page: an engine holding
// the exclusive latch updates fixed-width stamps through it in place.
func (r Records) Ext() []byte { return r.b[LayoutHeaderSize:r.offs] }

// Reserved returns the number of reserved leading records.
func (r Records) Reserved() int { return r.res }

// Count returns the number of keyed records.
func (r Records) Count() int { return r.n - r.res }

// Size returns the payload length — the bytes the page uses.
func (r Records) Size() int { return len(r.b) }

// ReservedRecord returns reserved record i (i < Reserved()).
func (r Records) ReservedRecord(i int) ([]byte, error) {
	if i >= r.res {
		return nil, fmt.Errorf("%w: reserved record %d of %d", ErrCorrupt, i, r.res)
	}
	return r.slot(i)
}

// Record returns keyed record i (0 <= i < Count()).
func (r Records) Record(i int) (key, val []byte, ghost bool, err error) {
	if i < 0 {
		return nil, nil, false, fmt.Errorf("%w: record index %d", ErrCorrupt, i)
	}
	rec, err := r.slot(r.res + i)
	if err != nil {
		return nil, nil, false, err
	}
	return splitRecord(i, rec)
}

// splitRecord splits the bytes of keyed record i into key, value and ghost
// flag.
func splitRecord(i int, rec []byte) (key, val []byte, ghost bool, err error) {
	if len(rec) < 2 {
		return nil, nil, false, fmt.Errorf("%w: record %d is %d bytes", ErrCorrupt, i, len(rec))
	}
	w := binary.LittleEndian.Uint16(rec)
	kl := 2 + int(w&^ghostBit)
	if kl > len(rec) {
		return nil, nil, false, fmt.Errorf("%w: record %d key overruns its %d bytes", ErrCorrupt, i, len(rec))
	}
	return rec[2:kl:kl], rec[kl:], w&ghostBit != 0, nil
}

// Find binary-searches the keyed records for key, returning its index and
// whether it is present (ghosts count as present); when absent the index
// is where key would be inserted.
func (r Records) Find(key []byte) (int, bool, error) {
	lo, hi := 0, r.Count()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		k, _, _, err := r.Record(mid)
		if err != nil {
			return 0, false, err
		}
		switch c := bytes.Compare(k, key); {
		case c == 0:
			return mid, true, nil
		case c < 0:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return lo, false, nil
}

// Get looks key up: its value (aliasing the page) and ghost flag, with
// found false when no record, live or ghost, carries the key.
func (r Records) Get(key []byte) (val []byte, ghost, found bool, err error) {
	i, found, err := r.Find(key)
	if err != nil || !found {
		return nil, false, false, err
	}
	_, val, ghost, err = r.Record(i)
	return val, ghost, err == nil, err
}

// check is the O(N) structural validation of a record page: offsets
// monotone and in bounds, every keyed record well formed with a non-empty
// key, keys strictly ascending. It is one pass over the offset array: each
// slot starts where the previous one ended.
func (r Records) check() error {
	var prev []byte
	lo := 0
	for s := 0; s < r.n; s++ {
		hi := r.end(s)
		if lo > hi || r.area+hi > len(r.b) {
			return fmt.Errorf("%w: record slot %d spans [%d,%d) of a %d-byte payload", ErrCorrupt, s, r.area+lo, r.area+hi, len(r.b))
		}
		rec := r.b[r.area+lo : r.area+hi : r.area+hi]
		lo = hi
		if s < r.res {
			continue
		}
		i := s - r.res
		k, _, _, err := splitRecord(i, rec)
		if err != nil {
			return err
		}
		if len(k) == 0 {
			return fmt.Errorf("%w: empty key at record %d", ErrCorrupt, i)
		}
		if i > 0 && bytes.Compare(prev, k) >= 0 {
			return fmt.Errorf("%w: keys out of order at records %d-%d", ErrCorrupt, i-1, i)
		}
		prev = k
	}
	return nil
}

// NewRecords builds the payload of a record page holding only its reserved
// records.
func NewRecords(kind uint8, ext []byte, reserved ...[]byte) []byte {
	if len(ext) > 255 || len(reserved) > 255 {
		panic("page.NewRecords: extension or reserved record count exceeds the one-byte header fields")
	}
	b := make([]byte, LayoutHeaderSize, LayoutHeaderSize+len(ext)+2*len(reserved))
	b[0], b[1], b[2] = kind, uint8(len(ext)), uint8(len(reserved))
	binary.LittleEndian.PutUint16(b[3:], uint16(len(reserved)))
	b = append(b, ext...)
	end := 0
	for _, rec := range reserved {
		end += len(rec)
		b = binary.LittleEndian.AppendUint16(b, uint16(end))
	}
	for _, rec := range reserved {
		b = append(b, rec...)
	}
	return b
}

// splice replaces del record slots starting at slot s of the page's current
// view r with len(sizes) new slots of the given byte sizes, moving the surrounding offsets and records
// and rewriting the count, and returns the (uninitialized) bytes of the new
// records for the caller to fill. Every mutator is one splice.
func (p *Page) splice(r Records, s, del int, sizes ...int) ([]byte, error) {
	if s < 0 || del < 0 || s+del > r.n {
		return nil, fmt.Errorf("%w: splice of slots [%d,%d) in %d records", ErrCorrupt, s, s+del, r.n)
	}
	oldLo, oldHi, total := r.end(s-1), r.end(s+del-1), r.end(r.n-1)
	if oldLo > oldHi || oldHi > total {
		return nil, fmt.Errorf("%w: offsets of slots [%d,%d) not monotone", ErrCorrupt, s, s+del)
	}
	added := 0
	for _, sz := range sizes {
		added += sz
	}
	delta := added - (oldHi - oldLo) // record-area growth
	shift := 2 * (len(sizes) - del)  // offset-array growth
	newLen := len(p.payload) + shift + delta
	if newLen > cap(p.payload) || total+delta > maxRecordArea || r.n+len(sizes)-del > 1<<16-1 {
		return nil, fmt.Errorf("%w: %d-byte payload", ErrTooLarge, newLen)
	}
	b := p.payload[:max(len(p.payload), newLen)]
	// Two blocks move: the offsets after the replaced slots together with
	// the records before them (contiguous; they shift by the offset-array
	// growth), and the records after the replaced ones (shifting by both
	// growths). When the first block moves up the second must get out of
	// its way first; otherwise the first block moves first.
	head, tail := b[r.offs+2*(s+del):r.area+oldLo], b[r.area+oldHi:len(p.payload)]
	headTo, tailTo := b[r.offs+2*(s+del)+shift:], b[r.area+oldHi+shift+delta:]
	if shift > 0 {
		copy(tailTo, tail)
		copy(headTo, head)
	} else {
		copy(headTo, head)
		copy(tailTo, tail)
	}
	p.payload = b[:newLen]
	n := r.n + len(sizes) - del
	binary.LittleEndian.PutUint16(p.payload[3:], uint16(n))
	end := oldLo
	for i, sz := range sizes {
		end += sz
		binary.LittleEndian.PutUint16(p.payload[r.offs+2*(s+i):], uint16(end))
	}
	for i := s + len(sizes); i < n; i++ {
		at := p.payload[r.offs+2*i:]
		binary.LittleEndian.PutUint16(at, uint16(int(binary.LittleEndian.Uint16(at))+delta))
	}
	lo := r.offs + 2*n + oldLo
	return p.payload[lo : lo+added], nil
}

// keyWord encodes a record's leading key-length word.
func keyWord(keyLen int, ghost bool) uint16 {
	w := uint16(keyLen)
	if ghost {
		w |= ghostBit
	}
	return w
}

// InsertRecord splices a keyed record in at index i; the caller found i
// with Records.Find, so key order is preserved.
func (p *Page) InsertRecord(i int, key, val []byte, ghost bool) error {
	if len(key) == 0 || len(key) > MaxKeyLen {
		return fmt.Errorf("%w: %d-byte key", ErrTooLarge, len(key))
	}
	r, err := ParseRecords(p.payload)
	if err != nil {
		return err
	}
	if i < 0 || i > r.Count() {
		return fmt.Errorf("%w: insert at record %d of %d", ErrCorrupt, i, r.Count())
	}
	rec, err := p.splice(r, r.res+i, 0, 2+len(key)+len(val))
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint16(rec, keyWord(len(key), ghost))
	copy(rec[2:], key)
	copy(rec[2+len(key):], val)
	return nil
}

// RemoveRecords splices keyed records [i, j) out.
func (p *Page) RemoveRecords(i, j int) error {
	r, err := ParseRecords(p.payload)
	if err != nil {
		return err
	}
	if i < 0 || i > j || j > r.Count() {
		return fmt.Errorf("%w: remove of records [%d,%d) of %d", ErrCorrupt, i, j, r.Count())
	}
	_, err = p.splice(r, r.res+i, j-i)
	return err
}

// SetRecordValue resizes keyed record i to hold val, by a splice whatever
// val's length. val must not alias the page.
func (p *Page) SetRecordValue(i int, val []byte) error {
	r, err := ParseRecords(p.payload)
	if err != nil {
		return err
	}
	key, _, _, err := r.Record(i)
	if err != nil {
		return err
	}
	// The record keeps its start, so its key word and key stay put while
	// the splice moves everything behind it.
	rec, err := p.splice(r, r.res+i, 1, 2+len(key)+len(val))
	if err != nil {
		return err
	}
	copy(rec[2+len(key):], val)
	return nil
}

// SetRecordGhost sets or clears keyed record i's ghost flag.
func (p *Page) SetRecordGhost(i int, ghost bool) error {
	r, err := ParseRecords(p.payload)
	if err != nil {
		return err
	}
	return r.SetGhost(i, ghost)
}

// OverwriteValue writes val over keyed record i's value in place when the
// two have the same length, and reports whether it did; a value of another
// length needs SetRecordValue's splice. Like Ext, it writes through the
// view into the page: the caller holds the exclusive latch, and val must
// not alias the page.
func (r Records) OverwriteValue(i int, val []byte) (bool, error) {
	_, old, _, err := r.Record(i)
	if err != nil || len(old) != len(val) {
		return false, err
	}
	copy(old, val)
	return true, nil
}

// SetGhost sets or clears keyed record i's ghost flag in place, writing
// through the view into the page like OverwriteValue.
func (r Records) SetGhost(i int, ghost bool) error {
	key, _, _, err := r.Record(i)
	if err != nil {
		return err
	}
	rec, _ := r.slot(r.res + i) // Record just bounds-checked this slot
	binary.LittleEndian.PutUint16(rec, keyWord(len(key), ghost))
	return nil
}

// SetReservedRecord replaces reserved record i with b, which must not alias
// the page.
func (p *Page) SetReservedRecord(i int, b []byte) error {
	r, err := ParseRecords(p.payload)
	if err != nil {
		return err
	}
	if i < 0 || i >= r.res {
		return fmt.Errorf("%w: reserved record %d of %d", ErrCorrupt, i, r.res)
	}
	rec, err := p.splice(r, i, 1, len(b))
	if err != nil {
		return err
	}
	copy(rec, b)
	return nil
}

// IDArray is a read-only view of an array page payload (the hash
// directory), aliasing it like Records does.
type IDArray struct {
	b   []byte
	ids int // start of the ID array
	n   int
}

// ParseIDArray checks the layout header against the payload length and
// returns the view. The check is complete: an array page has no structure
// beyond its header, so it needs no O(N) validation.
func ParseIDArray(payload []byte) (IDArray, error) {
	if len(payload) < LayoutHeaderSize {
		return IDArray{}, fmt.Errorf("%w: %d-byte payload has no layout header", ErrCorrupt, len(payload))
	}
	a := IDArray{
		b:   payload,
		ids: LayoutHeaderSize + int(payload[1]),
		n:   int(binary.LittleEndian.Uint16(payload[3:])),
	}
	if payload[2] != 0 || a.ids+8*a.n != len(payload) {
		return IDArray{}, fmt.Errorf("%w: header (ext %d, reserved %d, count %d) does not describe a %d-byte array payload",
			ErrCorrupt, payload[1], payload[2], a.n, len(payload))
	}
	return a, nil
}

// Kind returns the layout kind byte.
func (a IDArray) Kind() uint8 { return a.b[0] }

// Ext returns the engine extension (aliasing the page).
func (a IDArray) Ext() []byte { return a.b[LayoutHeaderSize:a.ids] }

// Len returns the number of IDs.
func (a IDArray) Len() int { return a.n }

// At returns ID i, or InvalidID when i is out of range.
func (a IDArray) At(i int) ID {
	if i < 0 || i >= a.n {
		return InvalidID
	}
	return ID(binary.LittleEndian.Uint64(a.b[a.ids+8*i:]))
}

// MaxIDArrayLen is the most IDs an array page can hold.
const MaxIDArrayLen = 1<<16 - 1

// NewIDArray builds an array page payload.
func NewIDArray(kind uint8, ext []byte, ids []ID) []byte {
	if len(ext) > 255 || len(ids) > MaxIDArrayLen {
		panic("page.NewIDArray: extension or ID count exceeds the header fields")
	}
	b := make([]byte, LayoutHeaderSize, LayoutHeaderSize+len(ext)+8*len(ids))
	b[0], b[1] = kind, uint8(len(ext))
	binary.LittleEndian.PutUint16(b[3:], uint16(len(ids)))
	b = append(b, ext...)
	for _, id := range ids {
		b = binary.LittleEndian.AppendUint64(b, uint64(id))
	}
	return b
}

// Check is the whole-payload structural validation of a structured page:
// the layout its kind byte names must parse, and a record page's offsets,
// entries and key order must be sound. It runs wherever an image is taken
// on trust for the first time — the buffer pool's load path, the engines'
// VerifyAll, the fuzzer — so the arithmetic accessors never search a page
// nobody validated.
func Check(payload []byte) error {
	if len(payload) == 0 {
		return fmt.Errorf("%w: empty payload", ErrCorrupt)
	}
	switch payload[0] {
	case KindDirectory:
		_, err := ParseIDArray(payload)
		return err
	case KindBucket, KindNode:
		r, err := ParseRecords(payload)
		if err != nil {
			return err
		}
		return r.check()
	default:
		return fmt.Errorf("%w: unknown layout kind %d", ErrCorrupt, payload[0])
	}
}

// Check validates the payload of a structured page (see the package-level
// Check) and that its kind belongs to the page type; other page types carry
// no layout and pass.
func (p *Page) Check() error {
	if p.typ != TypeBTree && p.typ != TypeHash {
		return nil
	}
	if err := Check(p.payload); err != nil {
		return err
	}
	if isNode := p.payload[0] == KindNode; isNode != (p.typ == TypeBTree) {
		return fmt.Errorf("%w: layout kind %d on a %v page", ErrCorrupt, p.payload[0], p.typ)
	}
	return nil
}
