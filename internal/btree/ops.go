package btree

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/page"
	"repro/internal/pageop"
	"repro/internal/txn"
	"repro/internal/wal"
)

// Op codes for the redo payloads of B-tree log records. Redo is physical
// ("applies to the same data pages", §5.1.2): every op is deterministic
// given the page's prior state and always applied forward — a compensation
// logs a CLR whose payload is itself a forward op, so redo never
// distinguishes normal records from CLRs.
//
// Only the user ops carry undo information, and their undo is logical (a
// fresh descent finds the key wherever splits moved it, §5.1.2). A
// structural op is its redo alone: system transactions are redo-only.
// Restart drops one the crash cut (recovery.Analyze), and a runtime abort
// puts back the copies taken before the first change to each page, logged
// as opReplaceNode CLRs (txn.Txn.Abort). Retired codes stay reserved.
const (
	opInvalid uint8 = iota
	// opLeafInsert: tree root, key, value. User op.
	opLeafInsert
	// opLeafGhost: tree root, key, ghost flag, prior flag. User op
	// (logical delete and its compensation).
	opLeafGhost
	// opLeafUpdate: tree root, key, new value, old value. User op.
	opLeafUpdate
	// opLeafPurge: key. Physical removal of an entry (ghost cleanup by
	// system transactions; insert compensation).
	opLeafPurge
	_ // 5, retired: the reinsert that compensated a purge
	// opSplitTruncate: foster pid, foster key.
	opSplitTruncate
	// opClearFoster: no fields; the chain-high fence drops to the high
	// fence and the foster pointer goes.
	opClearFoster
	_ // 8, retired: the set-foster that compensated a foster clear
	// opAdopt: separator, child pid.
	opAdopt
	_ // 10, retired: the de-adopt that compensated an adopt
	// opReplaceNode: new payload (root growth; a system transaction's
	// abort putting a copy back).
	opReplaceNode
	// opMetaPut: tree name, root pid. Root == 0 deletes the binding.
	opMetaPut
	// opRawSet: new payload, old payload. For TypeRaw test pages, whose
	// tests undo it themselves.
	opRawSet
)

// ErrBadOp reports an unparseable or inapplicable op payload.
var ErrBadOp = pageop.ErrBadOp

// kindOf maps the opcodes whose payload and semantics the hash index shares
// (the entry ops and the whole-payload replace) to their shared op.
func kindOf(code uint8) pageop.Kind {
	switch {
	case code >= opLeafInsert && code <= opLeafPurge:
		return pageop.Insert + pageop.Kind(code-opLeafInsert)
	case code == opReplaceNode:
		return pageop.Replace
	}
	return pageop.None
}

// ops is the log-then-apply protocol bound to the B-tree's applier.
var ops = pageop.Ops{Apply: applyOp, Replace: opReplaceNode}

func encodeLeafInsert(root page.ID, key, val []byte) []byte {
	return pageop.EncodeInsert(opLeafInsert, root, key, val)
}

func encodeLeafGhost(root page.ID, key []byte, ghost, prior bool) []byte {
	return pageop.EncodeGhost(opLeafGhost, root, key, ghost, prior)
}

func encodeLeafUpdate(root page.ID, key, newVal, oldVal []byte) []byte {
	return pageop.EncodeUpdate(opLeafUpdate, root, key, newVal, oldVal)
}

func encodeLeafPurge(key []byte) []byte {
	return pageop.EncodePurge(opLeafPurge, key)
}

func encodeSplitTruncate(fosterPID page.ID, fosterKey []byte) []byte {
	return pageop.AppendBytes16(pageop.AppendU64([]byte{opSplitTruncate}, uint64(fosterPID)), fosterKey)
}

func encodeClearFoster() []byte { return []byte{opClearFoster} }

func encodeAdopt(sep []byte, child page.ID) []byte {
	return pageop.AppendU64(pageop.AppendBytes16([]byte{opAdopt}, sep), uint64(child))
}

func encodeReplaceNode(newPayload []byte) []byte {
	return pageop.EncodeReplace(opReplaceNode, newPayload)
}

// EncodeMetaPut builds the op registering tree name -> root in the meta
// page (root == InvalidID deletes the binding).
func EncodeMetaPut(name string, root page.ID) []byte {
	return pageop.AppendU64(pageop.AppendBytes16([]byte{opMetaPut}, []byte(name)), uint64(root))
}

// EncodeRawSet builds an op payload replacing a TypeRaw page's contents;
// used by tests, examples, and benchmarks that exercise recovery without a
// B-tree. The old payload is for their own undoers.
func EncodeRawSet(newPayload, oldPayload []byte) []byte {
	b := make([]byte, 0, 1+4+len(newPayload)+4+len(oldPayload))
	return pageop.AppendBytes32(pageop.AppendBytes32(append(b, opRawSet), newPayload), oldPayload)
}

// Applier applies redo ops to pages; it implements core.RedoApplier for
// every page type the engine stores (B-tree nodes, the meta page, raw test
// pages).
type Applier struct{}

// ApplyRedo applies the record's redo action to pg. The caller advances
// pg's LSN afterwards (and must have verified the per-page chain).
func (Applier) ApplyRedo(rec *wal.Record, pg *page.Page) error {
	return applyOp(rec.Payload, pg)
}

// applyOp applies one op to pg in place. The entry ops and replaces are the
// shared implementation; the structural ops below edit the node header and
// the branch records through the same record-page splices.
func applyOp(payload []byte, pg *page.Page) error {
	if len(payload) == 0 {
		return fmt.Errorf("%w: empty payload", ErrBadOp)
	}
	code := payload[0]
	if k := kindOf(code); k != pageop.None {
		return pageop.Apply(k, payload, pg)
	}
	c := pageop.NewCursor(payload, 1)
	switch code {
	case opRawSet:
		newP := c.Bytes32()
		c.Bytes32() // old payload: the tests' undo information only
		if c.Err() != nil {
			return fmt.Errorf("%w: %v", ErrBadOp, c.Err())
		}
		return pg.SetPayload(newP)
	case opMetaPut:
		name := string(c.Bytes16())
		root := page.ID(c.U64())
		if c.Err() != nil {
			return fmt.Errorf("%w: %v", ErrBadOp, c.Err())
		}
		reg, err := DecodeRegistry(pg.Payload())
		if err != nil {
			return err
		}
		if root == page.InvalidID {
			delete(reg, name)
		} else {
			reg[name] = root
		}
		return pg.SetPayload(encodeRegistry(reg))
	}

	// All remaining ops operate on B-tree nodes.
	n, err := parseNode(pg.Payload())
	if err != nil {
		return err
	}
	switch code {
	case opSplitTruncate:
		// The foster-parent half of a node split: everything at or above
		// the foster key moves out (the foster child's format record holds
		// it), the high fence drops to the foster key, and the foster
		// pointer is installed. The chain high fence is unchanged: the
		// foster parent "carries the high fence key of the entire chain"
		// (§4.2).
		fosterPID := page.ID(c.U64())
		fosterKey := c.Bytes16()
		if c.Err() != nil {
			return fmt.Errorf("%w: %v", ErrBadOp, c.Err())
		}
		cut, _, err := n.Find(fosterKey)
		if err != nil {
			return err
		}
		if err := pg.RemoveRecords(cut, n.Count()); err != nil {
			return err
		}
		return setFoster(pg, fosterPID, slotHigh, finite(fosterKey))
	case opClearFoster:
		// chain-high = high, copied: the fence aliases the page spliced.
		return setFoster(pg, page.InvalidID, slotChain, n.high.clone())
	case opAdopt:
		// (sep, child) enters a branch: child covers [sep, nextSep).
		sep := c.Bytes16()
		child := c.Take(8)
		if c.Err() != nil {
			return fmt.Errorf("%w: %v", ErrBadOp, c.Err())
		}
		i, found, err := n.Find(sep)
		if err != nil {
			return err
		}
		if found {
			return fmt.Errorf("%w: separator %q", ErrKeyExists, sep)
		}
		return pg.InsertRecord(i, sep, child, false)
	default:
		return fmt.Errorf("%w: opcode %d", ErrBadOp, code)
	}
}

// setFoster installs (or clears) the node's foster pointer and rewrites the
// one fence that changes with it — slotHigh on a split, slotChain when a
// foster child is adopted or re-attached. f must not alias the page.
func setFoster(pg *page.Page, foster page.ID, slot int, f fence) error {
	if err := pg.SetReservedRecord(slot, f.k); err != nil {
		return err
	}
	r, err := page.ParseRecords(pg.Payload())
	if err != nil {
		return err
	}
	ext := r.Ext()
	infBit := uint8(flagHighInf)
	if slot == slotChain {
		infBit = flagChainInf
	}
	ext[2] &^= infBit | flagFoster
	if f.inf {
		ext[2] |= infBit
	}
	if foster != page.InvalidID {
		ext[2] |= flagFoster
	}
	binary.LittleEndian.PutUint64(ext[3:], uint64(foster))
	return nil
}

// RedoOnly returns op without its undo information, which is what the log
// archive keeps of an update whose transaction has committed: the old
// value of a leaf update, the only undo field a B-tree op logs but a raw
// set's. applyOp leaves the same page either way; any other op comes back
// as op itself.
func RedoOnly(op []byte) []byte {
	if len(op) == 0 {
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
	if len(rec.Payload) > 0 {
		k = kindOf(rec.Payload[0])
	}
	if k != pageop.Insert && k != pageop.Ghost && k != pageop.Update {
		return fmt.Errorf("%w: no user op to compensate at LSN %d", ErrBadOp, rec.LSN)
	}
	u, err := pageop.ParseUser(k, rec.Payload)
	if err != nil {
		return err
	}
	tr := Open("", u.Root, pager)
	switch k {
	case pageop.Insert:
		return tr.undoInsert(t, u.Key, rec.PrevLSN)
	case pageop.Ghost:
		return tr.undoGhost(t, u.Key, u.Prior, u.Ghost, rec.PrevLSN)
	default:
		return tr.undoUpdate(t, u.Key, u.OldVal, rec.PrevLSN)
	}
}

// Meta-page registry: the named-tree directory stored in the engine's meta
// page. Layout: u16 count, then count * (u16 nameLen, name, u64 root).
func encodeRegistry(reg map[string]page.ID) []byte {
	names := make([]string, 0, len(reg))
	for name := range reg {
		names = append(names, name)
	}
	sort.Strings(names)
	b := binary.LittleEndian.AppendUint16(nil, uint16(len(names)))
	for _, name := range names {
		b = pageop.AppendU64(pageop.AppendBytes16(b, []byte(name)), uint64(reg[name]))
	}
	return b
}

// DecodeRegistry parses a meta page payload into the tree directory.
func DecodeRegistry(payload []byte) (map[string]page.ID, error) {
	reg := make(map[string]page.ID)
	if len(payload) == 0 {
		return reg, nil
	}
	c := pageop.NewCursor(payload, 0)
	count := int(c.U16())
	for i := 0; i < count; i++ {
		name := string(c.Bytes16())
		reg[name] = page.ID(c.U64())
	}
	if !c.Done() {
		return nil, fmt.Errorf("%w: meta registry", ErrNodeCorrupt)
	}
	return reg, nil
}
