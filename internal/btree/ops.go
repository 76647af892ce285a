package btree

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/page"
	"repro/internal/pageop"
	"repro/internal/wal"
)

// Op codes for the redo payloads of the B-tree's structural log records.
// Its entry ops (insert, ghost, update, purge) and whole-node replace are
// the shared ops of internal/pageop, under the codes pageop owns: 1 to 4
// and 11, with 5 for the hash index's reinsert. Redo is physical ("applies to the same data pages", §5.1.2):
// every op is deterministic given the page's prior state and always applied
// forward — a compensation logs a CLR whose payload is itself a forward op,
// so redo never distinguishes normal records from CLRs.
//
// Only the user ops carry undo information, and their undo is logical (a
// fresh descent finds the key wherever splits moved it, §5.1.2). A
// structural op is its redo alone: system transactions are redo-only.
// Restart drops one the crash cut (recovery.Analyze), and a runtime abort
// puts back the copies taken before the first change to each page, logged
// as pageop.Replace CLRs (txn.Txn.Abort). Retired codes stay reserved.
const (
	// opSplitTruncate: foster pid, foster key.
	opSplitTruncate uint8 = 6
	// opClearFoster: no fields; the chain-high fence drops to the high
	// fence and the foster pointer goes.
	opClearFoster uint8 = 7
	// 8, retired: the set-foster that compensated a foster clear.
	// opAdopt: separator, child pid.
	opAdopt uint8 = 9
	// 10, retired: the de-adopt that compensated an adopt.
	// opMetaPut: tree name, root pid. Root == 0 deletes the binding.
	opMetaPut uint8 = 12
	// opRawSet: new payload, old payload. For TypeRaw test pages, whose
	// tests undo it themselves.
	opRawSet uint8 = 13
)

// ErrBadOp reports an unparseable or inapplicable op payload.
var ErrBadOp = pageop.ErrBadOp

// ops is the log-then-apply protocol bound to the B-tree's applier.
var ops = pageop.Ops{Apply: applyOp}

func encodeSplitTruncate(fosterPID page.ID, fosterKey []byte) []byte {
	return pageop.AppendBytes16(pageop.AppendU64([]byte{opSplitTruncate}, uint64(fosterPID)), fosterKey)
}

func encodeClearFoster() []byte { return []byte{opClearFoster} }

func encodeAdopt(sep []byte, child page.ID) []byte {
	return pageop.AppendU64(pageop.AppendBytes16([]byte{opAdopt}, sep), uint64(child))
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
// every page either engine stores — B-tree nodes, hash directories, buckets
// and overflow pages, the meta page, raw test pages: the shared ops both
// engines log go through pageop.Apply, and every other code is the
// B-tree's.
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
	case opSplitTruncate, opClearFoster, opAdopt: // node ops, below
	default:
		return pageop.Apply(payload, pg)
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
	default: // opAdopt
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
