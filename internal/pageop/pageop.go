// Package pageop holds, once, what every logged page operation of both
// storage engines shares: the bounds-checked cursor op payloads are parsed
// with, the five entry ops and the whole-payload replace that the Foster
// B-tree and the linear-hash index both log against record pages
// (internal/page), and the log-then-apply protocol that keeps forward
// processing, redo and rollback on one code path.
//
// Redo is physical and always forward (§5.1.2): every op is deterministic
// given the page's prior state, and a compensation logs a CLR whose payload
// is itself a forward op, so redo never distinguishes normal records from
// CLRs. Only user ops carry undo information. A system transaction's op is
// its redo alone: restart drops a system transaction the crash cut, and a
// runtime abort puts back the copies LogApply took (txn.Txn.Abort).
package pageop

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/buffer"
	"repro/internal/page"
	"repro/internal/txn"
)

// ErrBadOp reports an unparseable or inapplicable op payload.
var ErrBadOp = errors.New("pageop: bad op payload")

// Kind names a shared op. Each engine numbers the ops in its own opcode
// block (the leading payload byte) and maps its codes to Kinds; the payload
// layouts behind the code byte are identical across engines, so one
// implementation serves both.
type Kind uint8

const (
	// None marks an opcode that is not a shared op.
	None Kind = iota
	// Insert: root u64, key b16, value b32. User op (insert or ghost
	// revival); the root routes logical undo.
	Insert
	// Ghost: root u64, key b16, ghost u8, prior u8. User op (logical
	// delete and its compensation).
	Ghost
	// Update: root u64, key b16, new value b32, old value b32. User op.
	Update
	// Purge: key b16. Physical removal (ghost cleanup and entry relocation
	// by system transactions, insert compensation); never undone.
	Purge
	// Reinsert: key b16, value b32, ghost u8. Physical reinsertion (entry
	// relocation).
	Reinsert
	// Replace: new payload b32. Whole-payload rewrite (a structural
	// rewrite, or a system transaction's abort putting a copy back).
	Replace
)

// Cursor is the bounds-checked little-endian reader every op payload (and
// the meta-page registry) is parsed with; the first failure sticks. Take
// and the BytesN methods return slices ALIASING the source, which for op
// payloads is a stable wal.Record body.
type Cursor struct {
	b   []byte
	pos int
	err error
}

// NewCursor starts reading b at offset pos.
func NewCursor(b []byte, pos int) Cursor { return Cursor{b: b, pos: pos} }

// Err returns the first bounds violation, if any.
func (c *Cursor) Err() error { return c.err }

// Done reports whether every byte was consumed without error.
func (c *Cursor) Done() bool { return c.err == nil && c.pos == len(c.b) }

// Take returns the next n bytes.
func (c *Cursor) Take(n int) []byte {
	if c.err != nil || n < 0 || n > len(c.b)-c.pos {
		if c.err == nil {
			c.err = fmt.Errorf("truncated at offset %d", c.pos)
		}
		return nil
	}
	v := c.b[c.pos : c.pos+n : c.pos+n]
	c.pos += n
	return v
}

// U8 reads one byte.
func (c *Cursor) U8() uint8 {
	if v := c.Take(1); v != nil {
		return v[0]
	}
	return 0
}

// U16 reads a little-endian uint16.
func (c *Cursor) U16() uint16 {
	if v := c.Take(2); v != nil {
		return binary.LittleEndian.Uint16(v)
	}
	return 0
}

// U32 reads a little-endian uint32.
func (c *Cursor) U32() uint32 {
	if v := c.Take(4); v != nil {
		return binary.LittleEndian.Uint32(v)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (c *Cursor) U64() uint64 {
	if v := c.Take(8); v != nil {
		return binary.LittleEndian.Uint64(v)
	}
	return 0
}

// Bytes16 reads a u16 length and that many bytes.
func (c *Cursor) Bytes16() []byte { return c.Take(int(c.U16())) }

// Bytes32 reads a u32 length and that many bytes.
func (c *Cursor) Bytes32() []byte { return c.Take(int(c.U32())) }

// WithoutBytes32 returns the cursor's source with the u32-length field at
// the cursor emptied — its length zeroed, its bytes cut, everything after
// it kept as it was — or the source itself when that field is already
// empty or cannot be read.
func (c *Cursor) WithoutBytes32() []byte {
	start := c.pos
	v := c.Bytes32()
	if c.err != nil || len(v) == 0 {
		return c.b
	}
	out := make([]byte, 0, len(c.b)-len(v))
	out = binary.LittleEndian.AppendUint32(append(out, c.b[:start]...), 0)
	return append(out, c.b[c.pos:]...)
}

// AppendBytes16 appends v with a u16 length prefix.
func AppendBytes16(b, v []byte) []byte {
	return append(binary.LittleEndian.AppendUint16(b, uint16(len(v))), v...)
}

// AppendBytes32 appends v with a u32 length prefix.
func AppendBytes32(b, v []byte) []byte {
	return append(binary.LittleEndian.AppendUint32(b, uint32(len(v))), v...)
}

// AppendU64 appends v little-endian.
func AppendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

func boolByte(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// EncodeInsert builds an Insert op under the engine's opcode.
func EncodeInsert(code uint8, root page.ID, key, val []byte) []byte {
	b := make([]byte, 0, 1+8+2+len(key)+4+len(val))
	return AppendBytes32(AppendBytes16(AppendU64(append(b, code), uint64(root)), key), val)
}

// EncodeGhost builds a Ghost op: set the flag to ghost; it was prior.
func EncodeGhost(code uint8, root page.ID, key []byte, ghost, prior bool) []byte {
	b := make([]byte, 0, 1+8+2+len(key)+2)
	return append(AppendBytes16(AppendU64(append(b, code), uint64(root)), key), boolByte(ghost), boolByte(prior))
}

// EncodeUpdate builds an Update op.
func EncodeUpdate(code uint8, root page.ID, key, newVal, oldVal []byte) []byte {
	b := make([]byte, 0, 1+8+2+len(key)+4+len(newVal)+4+len(oldVal))
	return AppendBytes32(AppendBytes32(AppendBytes16(AppendU64(append(b, code), uint64(root)), key), newVal), oldVal)
}

// EncodePurge builds a Purge op.
func EncodePurge(code uint8, key []byte) []byte {
	return AppendBytes16(append(make([]byte, 0, 1+2+len(key)), code), key)
}

// EncodeReinsert builds a Reinsert op.
func EncodeReinsert(code uint8, key, val []byte, ghost bool) []byte {
	b := make([]byte, 0, 1+2+len(key)+4+len(val)+1)
	return append(AppendBytes32(AppendBytes16(append(b, code), key), val), boolByte(ghost))
}

// EncodeReplace builds a Replace op.
func EncodeReplace(code uint8, newPayload []byte) []byte {
	return AppendBytes32(append(make([]byte, 0, 1+4+len(newPayload)), code), newPayload)
}

// badOp wraps a cursor failure.
func badOp(c *Cursor) error { return fmt.Errorf("%w: %v", ErrBadOp, c.Err()) }

// Apply applies shared op k, whose payload (code byte included) is op, to
// pg in place. It is the single implementation behind forward processing,
// chain replay, restart redo and media restore for these ops.
func Apply(k Kind, op []byte, pg *page.Page) error {
	c := NewCursor(op, 1)
	var key, val []byte
	var flag bool
	switch k {
	case Replace:
		newP := c.Bytes32()
		if c.Err() != nil {
			return badOp(&c)
		}
		return pg.SetPayload(newP)
	case Insert:
		c.U64() // root: undo routing only
		key, val = c.Bytes16(), c.Bytes32()
	case Ghost:
		c.U64()
		key, flag = c.Bytes16(), c.U8() == 1
		c.U8() // prior flag: undo information only
	case Update:
		c.U64()
		key, val = c.Bytes16(), c.Bytes32()
		c.Bytes32() // old value: undo information only
	case Purge:
		key = c.Bytes16()
	case Reinsert:
		key, val, flag = c.Bytes16(), c.Bytes32(), c.U8() == 1
	default:
		return fmt.Errorf("%w: opcode %d is not a shared op", ErrBadOp, op[0])
	}
	if c.Err() != nil {
		return badOp(&c)
	}
	r, err := page.ParseRecords(pg.Payload())
	if err != nil {
		return err
	}
	i, found, err := r.Find(key)
	if err != nil {
		return err
	}
	switch {
	case k == Reinsert && found:
		return fmt.Errorf("%w: reinsert of present key %q", ErrBadOp, key)
	case k == Reinsert:
		return pg.InsertRecord(i, key, val, flag)
	case k == Insert && !found:
		return pg.InsertRecord(i, key, val, false)
	case !found:
		return fmt.Errorf("%w: shared op %d on absent key %q", ErrBadOp, k, key)
	}
	switch k {
	case Insert: // over a ghost: revive it with the new value
		if _, _, ghost, _ := r.Record(i); !ghost {
			return fmt.Errorf("%w: insert over live key %q", ErrBadOp, key)
		}
		if err := setValue(pg, r, i, val); err != nil {
			return err
		}
		return pg.SetRecordGhost(i, false)
	case Ghost:
		return r.SetGhost(i, flag)
	case Update:
		return setValue(pg, r, i, val)
	default: // Purge
		return pg.RemoveRecords(i, i+1)
	}
}

// setValue sets keyed record i of pg, whose current view is r, to val: in
// place when val has the old value's length — the common update, and the
// whole of a replayed one — else by SetRecordValue's splice.
func setValue(pg *page.Page, r page.Records, i int, val []byte) error {
	if done, err := r.OverwriteValue(i, val); done || err != nil {
		return err
	}
	return pg.SetRecordValue(i, val)
}

// RedoOnly returns shared op k without its undo information — the old
// value of an Update, the one field Apply skips; Apply leaves the same page
// either way. Any other op carries none, and comes back as op itself, as
// does an Update too malformed to reach that field (Apply rejects both
// forms alike).
func RedoOnly(k Kind, op []byte) []byte {
	if k != Update {
		return op
	}
	c := NewCursor(op, 1)
	c.U64()
	c.Bytes16()
	c.Bytes32()
	return c.WithoutBytes32()
}

// UserOp is a parsed user-level op (Insert, Ghost, Update): what logical
// undo needs to find the key again through a fresh descent.
type UserOp struct {
	Root         page.ID
	Key          []byte
	OldVal       []byte // Update
	Ghost, Prior bool   // Ghost
}

// ParseUser parses user op k for logical undo.
func ParseUser(k Kind, op []byte) (UserOp, error) {
	c := NewCursor(op, 1)
	u := UserOp{Root: page.ID(c.U64()), Key: c.Bytes16()}
	switch k {
	case Ghost:
		u.Ghost = c.U8() == 1
		u.Prior = c.U8() == 1
	case Update:
		c.Bytes32() // new value
		u.OldVal = c.Bytes32()
	}
	if c.Err() != nil {
		return UserOp{}, badOp(&c)
	}
	return u, nil
}

// Ops binds the log-then-apply protocol to one engine's applier and its
// whole-payload Replace opcode.
type Ops struct {
	Apply   func(op []byte, pg *page.Page) error
	Replace uint8
}

// LogApply logs an update op under t and applies it to the latched page,
// maintaining both chains and the buffer-pool dirty state. Forward
// processing and redo share Apply, so replay is exact by construction. The
// caller must hold the page's write latch — for a system transaction, until
// it ends: its first change to a page saves a copy of the page, which an
// abort puts back under that latch as a Replace CLR.
func (o Ops) LogApply(t *txn.Txn, h *buffer.Handle, op []byte) error {
	if t.System() && !t.Changed(h.ID()) {
		prior := append([]byte(nil), h.Page().Payload()...)
		t.Save(h.ID(), func() error {
			return o.LogApplyCLR(t, h, EncodeReplace(o.Replace, prior), page.ZeroLSN)
		})
	}
	lsn, err := t.LogUpdate(h.ID(), h.Page().LSN(), op)
	if err != nil {
		return err
	}
	return o.applyLogged(h, op, lsn)
}

// LogApplyCLR is LogApply for compensation records during rollback.
func (o Ops) LogApplyCLR(t *txn.Txn, h *buffer.Handle, op []byte, undoNext page.LSN) error {
	lsn, err := t.LogCLR(h.ID(), h.Page().LSN(), op, undoNext)
	if err != nil {
		return err
	}
	return o.applyLogged(h, op, lsn)
}

func (o Ops) applyLogged(h *buffer.Handle, op []byte, lsn page.LSN) error {
	if err := o.Apply(op, h.Page()); err != nil {
		return fmt.Errorf("applying op at LSN %d to page %d: %w", lsn, h.ID(), err)
	}
	h.Page().SetLSN(lsn)
	h.MarkDirty(lsn)
	return nil
}

// PurgeGhosts physically removes every ghost record of the exclusively
// latched record page behind h — the cheap way to make room, tried before
// any split — logging one Purge op under the engine's opcode per ghost in
// the system transaction sys returns. sys is first called when a ghost is
// found, so a page without ghosts costs no transaction. Each purge splices
// the payload, so the scan continues on a fresh view.
func (o Ops) PurgeGhosts(h *buffer.Handle, code uint8, sys func() *txn.Txn) error {
	for i := 0; ; {
		r, err := page.ParseRecords(h.Page().Payload())
		if err != nil {
			return err
		}
		if i >= r.Count() {
			return nil
		}
		key, _, ghost, err := r.Record(i)
		if err != nil {
			return err
		}
		if !ghost {
			i++
			continue
		}
		// EncodePurge copies the key out of the page before the op applies.
		if err := o.LogApply(sys(), h, EncodePurge(code, key)); err != nil {
			return err
		}
	}
}
