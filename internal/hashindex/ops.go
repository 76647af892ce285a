package hashindex

import (
	"fmt"

	"repro/internal/page"
	"repro/internal/pageop"
	"repro/internal/txn"
	"repro/internal/wal"
)

// Op codes for the redo payloads of hash-index log records. They occupy a
// disjoint numeric namespace from the B-tree's opcodes (which stay far
// below 64), so the engine routes redo and undo by the leading payload
// byte alone — no record format change, no per-index tagging.
//
// The discipline mirrors the B-tree's exactly (§5.1.2): redo is physical
// and always forward (CLR payloads are themselves forward ops); undo of
// user ops is logical through a fresh descent (a split may have moved the
// key to another bucket); a structural op is its redo alone, for system
// transactions are redo-only — restart drops one the crash cut, and a
// runtime abort puts back the copies taken before the first change to each
// page, logged as opHashPageSet CLRs (txn.Txn.Abort).
const (
	// opHashInsert: directory pid, key, value. User op (insert or ghost
	// revival).
	opHashInsert uint8 = 64 + iota
	// opHashGhost: directory pid, key, ghost flag, prior flag. User op
	// (logical delete and its compensation).
	opHashGhost
	// opHashUpdate: directory pid, key, new value, old value. User op.
	opHashUpdate
	// opHashPurge: key. Physical removal (ghost reclamation, entry
	// relocation, insert compensation).
	opHashPurge
	// opHashReinsert: key, value, ghost flag. Physical reinsertion (entry
	// relocation).
	opHashReinsert
	// opHashPageSet: new payload. Full-page rewrite: bucket split
	// rewrites, overflow linking, directory updates, and a system
	// transaction's abort putting a copy back.
	opHashPageSet
)

// ErrBadOp reports an unparseable or inapplicable op payload.
var ErrBadOp = pageop.ErrBadOp

// IsHashOp reports whether a record payload belongs to the hash index's
// opcode namespace; the engine's combined applier and undoer dispatch on
// it.
func IsHashOp(payload []byte) bool {
	return len(payload) > 0 && payload[0] >= opHashInsert && payload[0] <= opHashPageSet
}

// kindOf maps a hash opcode to the shared op it denotes: every hash op is
// one, so the index has no applier of its own.
func kindOf(code uint8) pageop.Kind {
	switch {
	case code >= opHashInsert && code <= opHashReinsert:
		return pageop.Insert + pageop.Kind(code-opHashInsert)
	case code == opHashPageSet:
		return pageop.Replace
	}
	return pageop.None
}

// ops is the log-then-apply protocol bound to the hash index's opcodes.
var ops = pageop.Ops{Apply: applyOp, Replace: opHashPageSet}

func encodeInsert(dir page.ID, key, val []byte) []byte {
	return pageop.EncodeInsert(opHashInsert, dir, key, val)
}

func encodeGhost(dir page.ID, key []byte, ghost, prior bool) []byte {
	return pageop.EncodeGhost(opHashGhost, dir, key, ghost, prior)
}

func encodeUpdate(dir page.ID, key, newVal, oldVal []byte) []byte {
	return pageop.EncodeUpdate(opHashUpdate, dir, key, newVal, oldVal)
}

func encodePurge(key []byte) []byte {
	return pageop.EncodePurge(opHashPurge, key)
}

func encodeReinsert(key, val []byte, ghost bool) []byte {
	return pageop.EncodeReinsert(opHashReinsert, key, val, ghost)
}

func encodePageSet(newPayload []byte) []byte {
	return pageop.EncodeReplace(opHashPageSet, newPayload)
}

// Applier applies hash-index redo ops to pages; it implements
// core.RedoApplier for every hash page (directory, bucket, overflow).
type Applier struct{}

// ApplyRedo applies the record's redo action to pg. The caller advances
// pg's LSN afterwards (and must have verified the per-page chain).
func (Applier) ApplyRedo(rec *wal.Record, pg *page.Page) error {
	return applyOp(rec.Payload, pg)
}

func applyOp(payload []byte, pg *page.Page) error {
	if !IsHashOp(payload) {
		return fmt.Errorf("%w: not a hash op", ErrBadOp)
	}
	return pageop.Apply(kindOf(payload[0]), payload, pg)
}

// RedoOnly returns op without its undo information, which is what the log
// archive keeps of an update whose transaction has committed: the old
// value of an update, the only undo field a hash op logs. applyOp leaves
// the same page either way; any other op comes back as op itself.
func RedoOnly(op []byte) []byte {
	if !IsHashOp(op) {
		return op
	}
	return pageop.RedoOnly(kindOf(op[0]), op)
}

// Compensate undoes one user update record during rollback through a fresh
// descent, logging a CLR whose payload is the forward-applicable
// compensation. Only user transactions roll back this way; a structural op
// is never compensated (see the opcode table).
func Compensate(t *txn.Txn, pager Pager, rec *wal.Record) error {
	k := pageop.None
	if IsHashOp(rec.Payload) {
		k = kindOf(rec.Payload[0])
	}
	if k != pageop.Insert && k != pageop.Ghost && k != pageop.Update {
		return fmt.Errorf("%w: no user op to compensate at LSN %d", ErrBadOp, rec.LSN)
	}
	u, err := pageop.ParseUser(k, rec.Payload)
	if err != nil {
		return err
	}
	tb := Open("", u.Root, pager)
	switch k {
	case pageop.Insert:
		return tb.undoInsert(t, u.Key, rec.PrevLSN)
	case pageop.Ghost:
		return tb.undoGhost(t, u.Key, u.Prior, u.Ghost, rec.PrevLSN)
	default:
		return tb.undoUpdate(t, u.Key, u.OldVal, rec.PrevLSN)
	}
}
