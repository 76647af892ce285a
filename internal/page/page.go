// Package page defines the on-"disk" page format shared by every storage
// structure in the engine.
//
// Every page carries a header with a PageLSN (the LSN of the most recent log
// record pertaining to the page — the anchor of the per-page log chain,
// paper §5.1.4) and a CRC32 checksum covering the whole page. The checksum
// and the header sanity checks implement the in-page half of single-page
// failure detection (paper §4.2); the PageLSN is, as the paper notes, the
// only field that cannot be verified against redundant in-page information —
// the page recovery index closes that gap (§5.2.2).
package page

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// DefaultSize is the default page size in bytes.
const DefaultSize = 8192

// MinSize is the smallest supported page size; the header plus a useful
// payload must fit.
const MinSize = 512

// HeaderSize is the number of bytes occupied by the page header.
//
// Layout (little endian):
//
//	offset  size  field
//	0       4     checksum (CRC32-C of bytes [4:size])
//	4       8     page id (logical)
//	12      8     PageLSN
//	20      2     page type
//	22      2     flags
//	24      4     payload length
//	28      4     format version + magic
const HeaderSize = 32

// magic marks a formatted page; it doubles as a format-version field.
const magic uint32 = 0x53504602 // "SPF" + version 2 (in-place structured payloads, records.go)

// Type identifies what storage structure owns a page.
type Type uint16

// Page types.
const (
	TypeFree  Type = iota // unallocated / zeroed
	TypeBTree             // Foster B-tree node
	TypeMeta              // engine metadata
	TypePRI               // page recovery index node
	TypeRaw               // untyped test payload
	TypeHash              // linear-hash directory / bucket / overflow page
)

func (t Type) String() string {
	switch t {
	case TypeFree:
		return "free"
	case TypeBTree:
		return "btree"
	case TypeMeta:
		return "meta"
	case TypePRI:
		return "pri"
	case TypeRaw:
		return "raw"
	case TypeHash:
		return "hash"
	default:
		return fmt.Sprintf("type(%d)", uint16(t))
	}
}

// ID is a logical page identifier. Logical IDs are stable across page
// migration; the pagemap package translates them to physical locations.
type ID uint64

// InvalidID is the zero, never-allocated page ID.
const InvalidID ID = 0

// LSN is a log sequence number: a byte offset into the recovery log.
type LSN uint64

// ZeroLSN is the LSN of a page that has never been logged against.
const ZeroLSN LSN = 0

// Validation errors returned by Validate and Decode.
var (
	ErrChecksum    = errors.New("page: checksum mismatch")
	ErrBadMagic    = errors.New("page: bad magic (page never formatted or overwritten)")
	ErrBadHeader   = errors.New("page: implausible header")
	ErrWrongPage   = errors.New("page: page id does not match requested id")
	ErrPageSize    = errors.New("page: bad page size")
	ErrTooLarge    = errors.New("page: payload does not fit")
	ErrUnallocated = errors.New("page: unallocated")
)

// Page is the in-memory representation of a data page. The byte image is
// materialized on demand; mutators operate on the decoded fields.
type Page struct {
	id      ID
	lsn     LSN
	typ     Type
	flags   uint16
	size    int
	payload []byte // len == payload length, cap == size-HeaderSize
}

// New returns a formatted, empty page of the given size.
func New(id ID, typ Type, size int) *Page {
	if size < MinSize {
		panic(fmt.Sprintf("page.New: size %d below minimum %d", size, MinSize))
	}
	return &Page{
		id:      id,
		typ:     typ,
		size:    size,
		payload: make([]byte, 0, size-HeaderSize),
	}
}

// ID returns the logical page identifier stored in the header.
func (p *Page) ID() ID { return p.id }

// LSN returns the PageLSN: the LSN of the most recent log record that
// pertains to this page.
func (p *Page) LSN() LSN { return p.lsn }

// SetLSN updates the PageLSN. Callers must do this for every logged update,
// keeping the per-page chain anchored (paper Fig. 6).
func (p *Page) SetLSN(lsn LSN) { p.lsn = lsn }

// Type returns the page type.
func (p *Page) Type() Type { return p.typ }

// SetType changes the page type (used when a free page is formatted).
func (p *Page) SetType(t Type) { p.typ = t }

// Flags returns the header flag bits.
func (p *Page) Flags() uint16 { return p.flags }

// SetFlags replaces the header flag bits.
func (p *Page) SetFlags(f uint16) { p.flags = f }

// Size returns the full page size in bytes, header included.
func (p *Page) Size() int { return p.size }

// Capacity returns the maximum payload length.
func (p *Page) Capacity() int { return p.size - HeaderSize }

// Payload returns the current payload bytes. The returned slice aliases the
// page; callers that retain it across mutations must copy.
func (p *Page) Payload() []byte { return p.payload }

// SetPayload replaces the payload. It returns ErrTooLarge if b exceeds the
// page capacity.
func (p *Page) SetPayload(b []byte) error {
	if len(b) > p.Capacity() {
		return fmt.Errorf("%w: %d > %d", ErrTooLarge, len(b), p.Capacity())
	}
	p.payload = p.payload[:len(b)]
	copy(p.payload, b)
	return nil
}

// Clone returns a deep copy of the page.
func (p *Page) Clone() *Page {
	q := &Page{
		id:      p.id,
		lsn:     p.lsn,
		typ:     p.typ,
		flags:   p.flags,
		size:    p.size,
		payload: make([]byte, len(p.payload), p.size-HeaderSize),
	}
	copy(q.payload, p.payload)
	return q
}

// Encode materializes the page into a fresh byte image of exactly Size()
// bytes, computing the checksum last so it covers everything else.
func (p *Page) Encode() []byte {
	buf := make([]byte, p.size)
	p.EncodeInto(buf)
	return buf
}

// EncodeInto materializes the page into buf, which must be exactly Size()
// bytes long. buf may hold stale prior contents (the buffer pool reuses
// scratch buffers): every byte is overwritten — header and payload
// directly, the slack beyond the payload with zeros.
func (p *Page) EncodeInto(buf []byte) {
	if len(buf) != p.size {
		panic(fmt.Sprintf("page.EncodeInto: buffer %d bytes, page %d", len(buf), p.size))
	}
	binary.LittleEndian.PutUint64(buf[4:], uint64(p.id))
	binary.LittleEndian.PutUint64(buf[12:], uint64(p.lsn))
	binary.LittleEndian.PutUint16(buf[20:], uint16(p.typ))
	binary.LittleEndian.PutUint16(buf[22:], p.flags)
	binary.LittleEndian.PutUint32(buf[24:], uint32(len(p.payload)))
	binary.LittleEndian.PutUint32(buf[28:], magic)
	n := copy(buf[HeaderSize:], p.payload)
	tail := buf[HeaderSize+n:]
	for i := range tail {
		tail[i] = 0
	}
	sum := crc32.Checksum(buf[4:], crcTable)
	binary.LittleEndian.PutUint32(buf[0:], sum)
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Checksum computes the checksum of a raw page image without decoding it.
func Checksum(buf []byte) uint32 {
	return crc32.Checksum(buf[4:], crcTable)
}

// Verify checks a raw page image's checksum and header plausibility without
// fully decoding it. It returns nil if the image would decode cleanly.
func Verify(buf []byte) error {
	if len(buf) < MinSize {
		return fmt.Errorf("%w: %d bytes", ErrPageSize, len(buf))
	}
	stored := binary.LittleEndian.Uint32(buf[0:])
	if computed := Checksum(buf); stored != computed {
		return fmt.Errorf("%w: stored %08x computed %08x", ErrChecksum, stored, computed)
	}
	if m := binary.LittleEndian.Uint32(buf[28:]); m != magic {
		return fmt.Errorf("%w: %08x", ErrBadMagic, m)
	}
	plen := binary.LittleEndian.Uint32(buf[24:])
	if int(plen) > len(buf)-HeaderSize {
		return fmt.Errorf("%w: payload length %d exceeds page capacity %d",
			ErrBadHeader, plen, len(buf)-HeaderSize)
	}
	return nil
}

// Decode parses a raw page image. It performs the full set of in-page
// plausibility tests from paper §4.2: checksum, magic, and header bounds.
// The page takes ownership of buf: its payload aliases buf[HeaderSize:],
// so a read lands in one page-sized buffer and is never copied again. The
// caller must not reuse buf while the page lives.
func Decode(buf []byte) (*Page, error) {
	if err := Verify(buf); err != nil {
		return nil, err
	}
	plen := binary.LittleEndian.Uint32(buf[24:])
	p := &Page{
		id:      ID(binary.LittleEndian.Uint64(buf[4:])),
		lsn:     LSN(binary.LittleEndian.Uint64(buf[12:])),
		typ:     Type(binary.LittleEndian.Uint16(buf[20:])),
		flags:   binary.LittleEndian.Uint16(buf[22:]),
		size:    len(buf),
		payload: buf[HeaderSize : HeaderSize+int(plen) : len(buf)],
	}
	return p, nil
}

// DecodeFor parses a raw page image and additionally checks that it carries
// the expected page ID; a mismatch indicates a misdirected write or a stale
// mapping, both of which the paper's failure class covers. Like Decode, it
// takes ownership of buf.
func DecodeFor(id ID, buf []byte) (*Page, error) {
	p, err := Decode(buf)
	if err != nil {
		return nil, err
	}
	if p.id != id {
		return nil, fmt.Errorf("%w: want %d, image says %d", ErrWrongPage, id, p.id)
	}
	return p, nil
}
