// Package pageop holds, once, what every logged page operation of both
// storage engines shares: the bounds-checked cursor op payloads are parsed
// with, the codec of the five entry ops and the whole-payload replace that
// the Foster B-tree and the linear-hash index both log against record pages
// (internal/page) — their opcodes, encoders, Apply, RedoOnly and the parse
// and compensation of user ops — and the log-then-apply protocol that keeps
// forward processing, redo and rollback on one code path.
//
// The shared ops log under the same opcode whichever engine logs them, so
// redo, redo-only stripping and undo read an op's meaning off its payload
// alone. The B-tree's structural ops take codes of their own outside this
// set (internal/btree); an engine's future structural ops take a code block
// of their own too.
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

// Kind is the opcode of a shared op: the leading byte of its payload,
// the same in both engines' logs. The codes are the ones the B-tree has
// always written; its structural ops hold 6, 7, 9, 12 and 13.
type Kind uint8

const (
	// Insert: root u64, key b16, value b32. User op (insert or ghost
	// revival); the root routes logical undo.
	Insert Kind = 1
	// Ghost: root u64, key b16, ghost u8, prior u8. User op (logical
	// delete and its compensation).
	Ghost Kind = 2
	// Update: root u64, key b16, new value b32, old value b32. User op.
	Update Kind = 3
	// Purge: key b16. Physical removal (ghost cleanup and entry relocation
	// by system transactions, insert compensation); never undone.
	Purge Kind = 4
	// Reinsert: key b16, value b32, ghost u8. Physical reinsertion (entry
	// relocation).
	Reinsert Kind = 5
	// Replace: new payload b32. Whole-payload rewrite (a structural
	// rewrite, or a system transaction's abort putting a copy back).
	Replace Kind = 11
)

// kind returns op's opcode, or 0 — no shared op — for an empty payload.
func kind(op []byte) Kind {
	if len(op) == 0 {
		return 0
	}
	return Kind(op[0])
}

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

// EncodeInsert builds an Insert op.
func EncodeInsert(root page.ID, key, val []byte) []byte {
	b := make([]byte, 0, 1+8+2+len(key)+4+len(val))
	return AppendBytes32(AppendBytes16(AppendU64(append(b, byte(Insert)), uint64(root)), key), val)
}

// EncodeGhost builds a Ghost op: set the flag to ghost; it was prior.
func EncodeGhost(root page.ID, key []byte, ghost, prior bool) []byte {
	b := make([]byte, 0, 1+8+2+len(key)+2)
	return append(AppendBytes16(AppendU64(append(b, byte(Ghost)), uint64(root)), key), boolByte(ghost), boolByte(prior))
}

// EncodeUpdate builds an Update op.
func EncodeUpdate(root page.ID, key, newVal, oldVal []byte) []byte {
	b := make([]byte, 0, 1+8+2+len(key)+4+len(newVal)+4+len(oldVal))
	return AppendBytes32(AppendBytes32(AppendBytes16(AppendU64(append(b, byte(Update)), uint64(root)), key), newVal), oldVal)
}

// EncodePurge builds a Purge op.
func EncodePurge(key []byte) []byte {
	return AppendBytes16(append(make([]byte, 0, 1+2+len(key)), byte(Purge)), key)
}

// EncodeReinsert builds a Reinsert op.
func EncodeReinsert(key, val []byte, ghost bool) []byte {
	b := make([]byte, 0, 1+2+len(key)+4+len(val)+1)
	return append(AppendBytes32(AppendBytes16(append(b, byte(Reinsert)), key), val), boolByte(ghost))
}

// EncodeReplace builds a Replace op.
func EncodeReplace(newPayload []byte) []byte {
	return AppendBytes32(append(make([]byte, 0, 1+4+len(newPayload)), byte(Replace)), newPayload)
}

// badOp wraps a cursor failure.
func badOp(c *Cursor) error { return fmt.Errorf("%w: %v", ErrBadOp, c.Err()) }

// Apply applies shared op op (code byte included) to pg in place. It is
// the single implementation behind forward processing, chain replay,
// restart redo and media restore for these ops, on the pages of both
// engines; any other opcode is refused.
func Apply(op []byte, pg *page.Page) error {
	k := kind(op)
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
		return fmt.Errorf("%w: opcode %d is not a shared op", ErrBadOp, k)
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

// RedoOnly returns op without its undo information, which is what the log
// archive keeps of an update whose transaction has committed: the old value
// of an Update, the one field Apply skips. Apply leaves the same page
// either way. Any other op of either engine, structural ones included,
// comes back as op itself, as does an Update too malformed to reach that
// field (Apply rejects both forms alike).
func RedoOnly(op []byte) []byte {
	if kind(op) != Update {
		return op
	}
	c := NewCursor(op, 1)
	c.U64()
	c.Bytes16()
	c.Bytes32()
	return c.WithoutBytes32()
}

// UserOp is a parsed user-level op (Insert, Ghost, Update): what logical
// undo needs to find the key again through a fresh descent. Root is the
// index's root page — a B-tree's root or a hash index's directory — whose
// type names the engine that logged the op.
type UserOp struct {
	Kind         Kind
	Root         page.ID
	Key          []byte
	OldVal       []byte // Update
	Ghost, Prior bool   // Ghost
}

// ParseUser parses user op op for logical undo; any other op is refused.
func ParseUser(op []byte) (UserOp, error) {
	k := kind(op)
	if k != Insert && k != Ghost && k != Update {
		return UserOp{}, fmt.Errorf("%w: opcode %d is not a user op", ErrBadOp, k)
	}
	c := NewCursor(op, 1)
	u := UserOp{Kind: k, Root: page.ID(c.U64()), Key: c.Bytes16()}
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

// Compensation builds the forward op that undoes u, logged as a CLR, given
// the current value of its key, and says how many bytes it adds to the
// entry. An insert is undone by a physical purge — ghosting would do
// logically, but the purge reclaims the space and keeps rollback idempotent
// — a ghost-flag change by setting the flag back, an update by writing the
// old value back.
func (u UserOp) Compensation(curVal []byte) (op []byte, grow int) {
	switch u.Kind {
	case Insert:
		return EncodePurge(u.Key), 0
	case Ghost:
		return EncodeGhost(u.Root, u.Key, u.Prior, u.Ghost), 0
	default:
		return EncodeUpdate(u.Root, u.Key, u.OldVal, curVal), len(u.OldVal) - len(curVal)
	}
}

// Ops binds the log-then-apply protocol to one engine's applier: Apply
// itself for an engine that logs only shared ops.
type Ops struct {
	Apply func(op []byte, pg *page.Page) error
}

// LogApply logs an update op under t and applies it to the latched page,
// maintaining both chains and the buffer-pool dirty state. Forward
// processing and redo share Apply, so replay is exact by construction. The
// caller must hold the page's write latch — for a system transaction, until
// it ends: its first change to a page saves a copy of the page, which an
// abort puts back under that latch as a Replace CLR. A user transaction's
// Ghost op holds the key's record until the transaction ends, for its
// rollback flips the flag back (txn.Txn.HoldGhost).
func (o Ops) LogApply(t *txn.Txn, h *buffer.Handle, op []byte) error {
	if t.System() && !t.Changed(h.ID()) {
		prior := append([]byte(nil), h.Page().Payload()...)
		t.Save(h.ID(), func() error {
			return o.LogApplyCLR(t, h, EncodeReplace(prior), page.ZeroLSN)
		})
	}
	lsn, err := t.LogUpdate(h.ID(), h.Page().LSN(), op)
	if err != nil {
		return err
	}
	if !t.System() && kind(op) == Ghost {
		c := NewCursor(op, 1+8)
		t.HoldGhost(c.Bytes16())
	}
	return o.applyLogged(h, op, lsn)
}

// LogInsert logs and applies, under user transaction t, the insert of
// key=val into the latched record page behind h of the index rooted at
// root. ghost reports that the page holds key as a ghost whose value is old.
// Over a ghost an active transaction's delete left (txn.Txn.GhostHeld) the
// insert is a Ghost op reviving the record and an Update op writing val over
// old, whose undo puts the ghost back as it was for that delete's rollback
// to revive; otherwise it is one Insert op, whose undo purges the key.
func (o Ops) LogInsert(t *txn.Txn, h *buffer.Handle, root page.ID, key, val []byte, ghost bool, old []byte) error {
	if !ghost || !t.GhostHeld(key) {
		return o.LogApply(t, h, EncodeInsert(root, key, val))
	}
	update := EncodeUpdate(root, key, val, old) // copies old out of the page
	if err := o.LogApply(t, h, EncodeGhost(root, key, false, true)); err != nil {
		return err
	}
	return o.LogApply(t, h, update)
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
// latched record page behind h that no active user transaction holds
// (txn.Txn.GhostHeld) — the cheap way to make room, tried before any split
// — logging one Purge op per ghost in the system transaction sys returns,
// and reports how many it removed. sys is first called when a ghost is
// found, so a page without ghosts costs no transaction. Each purge splices
// the payload, so the scan continues on a fresh view.
func (o Ops) PurgeGhosts(h *buffer.Handle, sys func() *txn.Txn) (int, error) {
	n := 0
	for i := 0; ; {
		r, err := page.ParseRecords(h.Page().Payload())
		if err != nil {
			return n, err
		}
		if i >= r.Count() {
			return n, nil
		}
		key, _, ghost, err := r.Record(i)
		if err != nil {
			return n, err
		}
		if !ghost || sys().GhostHeld(key) {
			i++
			continue
		}
		// EncodePurge copies the key out of the page before the op applies.
		if err := o.LogApply(sys(), h, EncodePurge(key)); err != nil {
			return n, err
		}
		n++
	}
}
