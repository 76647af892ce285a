package btree

import (
	"bytes"
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
// given the page's prior state and always applied forward — compensation
// during rollback logs a CLR whose payload is itself a forward op (the
// inverse), so redo never distinguishes normal records from CLRs.
//
// Undo of user-level leaf ops is logical (a fresh descent finds the key
// wherever splits moved it, §5.1.2); undo of system-transaction structural
// ops is physical inverse, which is safe because system transactions hold
// their page latches until commit, so no other work can intervene on those
// pages before a crash.
const (
	opInvalid uint8 = iota
	// opLeafInsert: tree root, key, value. User op.
	opLeafInsert
	// opLeafGhost: tree root, key, ghost flag, prior flag. User op
	// (logical delete and its compensation).
	opLeafGhost
	// opLeafUpdate: tree root, key, new value, old value. User op.
	opLeafUpdate
	// opLeafPurge: key, old value, old ghost flag. Physical removal of an
	// entry (ghost cleanup by system transactions; insert compensation).
	opLeafPurge
	// opLeafReinsert: key, value, ghost flag. Physical reinsertion
	// (compensation of opLeafPurge).
	opLeafReinsert
	// opSplitTruncate: foster pid, foster key, pre-image.
	opSplitTruncate
	// opClearFoster: foster pid, old chain-high fence.
	opClearFoster
	// opSetFoster: foster pid, chain-high fence (compensation of
	// opClearFoster).
	opSetFoster
	// opAdopt: separator, child pid.
	opAdopt
	// opDeAdopt: separator, child pid (compensation of opAdopt).
	opDeAdopt
	// opReplaceNode: new payload, old payload (root growth; also the
	// compensation of opSplitTruncate and of itself).
	opReplaceNode
	// opMetaPut: tree name, root pid, old root pid. Root == 0 deletes
	// the binding.
	opMetaPut
	// opRawSet: new payload, old payload. For TypeRaw test pages.
	opRawSet
)

// ErrBadOp reports an unparseable or inapplicable op payload.
var ErrBadOp = pageop.ErrBadOp

// kindOf maps the opcodes whose payload and semantics the hash index shares
// (the five entry ops and the whole-payload replaces) to their shared op.
func kindOf(code uint8) pageop.Kind {
	switch {
	case code >= opLeafInsert && code <= opLeafReinsert:
		return pageop.Insert + pageop.Kind(code-opLeafInsert)
	case code == opReplaceNode || code == opRawSet:
		return pageop.Replace
	}
	return pageop.None
}

// ops is the log-then-apply protocol bound to the B-tree's applier.
var ops = pageop.Ops{Apply: applyOp, Inverse: inverseOp}

func appendFence(b []byte, f fence) []byte {
	if f.inf {
		return append(b, 1)
	}
	return pageop.AppendBytes16(append(b, 0), f.k)
}

func readFence(c *pageop.Cursor) fence {
	if c.U8() == 1 {
		return infFence
	}
	return finite(c.Bytes16())
}

func encodeLeafInsert(root page.ID, key, val []byte) []byte {
	return pageop.EncodeInsert(opLeafInsert, root, key, val)
}

func encodeLeafGhost(root page.ID, key []byte, ghost, prior bool) []byte {
	return pageop.EncodeGhost(opLeafGhost, root, key, ghost, prior)
}

func encodeLeafUpdate(root page.ID, key, newVal, oldVal []byte) []byte {
	return pageop.EncodeUpdate(opLeafUpdate, root, key, newVal, oldVal)
}

func encodeLeafPurge(key, oldVal []byte, wasGhost bool) []byte {
	return pageop.EncodePurge(opLeafPurge, key, oldVal, wasGhost)
}

func encodeSplitTruncate(fosterPID page.ID, fosterKey []byte, preImage []byte) []byte {
	b := pageop.AppendU64([]byte{opSplitTruncate}, uint64(fosterPID))
	return pageop.AppendBytes32(pageop.AppendBytes16(b, fosterKey), preImage)
}

// encodeFosterOp builds opClearFoster (chainHigh = the old chain-high
// fence) or opSetFoster (chainHigh = the fence to install).
func encodeFosterOp(code uint8, fosterPID page.ID, chainHigh fence) []byte {
	return appendFence(pageop.AppendU64([]byte{code}, uint64(fosterPID)), chainHigh)
}

// encodeAdoptOp builds opAdopt or opDeAdopt.
func encodeAdoptOp(code uint8, sep []byte, child page.ID) []byte {
	return pageop.AppendU64(pageop.AppendBytes16([]byte{code}, sep), uint64(child))
}

func encodeReplaceNode(newPayload, oldPayload []byte) []byte {
	return pageop.EncodeReplace(opReplaceNode, newPayload, oldPayload)
}

// EncodeMetaPut builds the op registering tree name -> root in the meta
// page (root == InvalidID deletes the binding); oldRoot enables undo.
func EncodeMetaPut(name string, root, oldRoot page.ID) []byte {
	b := pageop.AppendBytes16([]byte{opMetaPut}, []byte(name))
	return pageop.AppendU64(pageop.AppendU64(b, uint64(root)), uint64(oldRoot))
}

// EncodeRawSet builds an op payload replacing a TypeRaw page's contents;
// used by tests, examples, and benchmarks that exercise recovery without a
// B-tree.
func EncodeRawSet(newPayload, oldPayload []byte) []byte {
	return pageop.EncodeReplace(opRawSet, newPayload, oldPayload)
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
	if code == opMetaPut {
		name := string(c.Bytes16())
		root := page.ID(c.U64())
		c.U64() // old root: undo information only
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
		c.Bytes32() // pre-image: undo information only
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
		c.U64()       // cleared foster pid: undo information only
		readFence(&c) // old chain high: undo information only
		if c.Err() != nil {
			return fmt.Errorf("%w: %v", ErrBadOp, c.Err())
		}
		// chain-high = high, copied: the fence aliases the page spliced.
		return setFoster(pg, page.InvalidID, slotChain, n.high.clone())
	case opSetFoster:
		fosterPID := page.ID(c.U64())
		chainHigh := readFence(&c)
		if c.Err() != nil {
			return fmt.Errorf("%w: %v", ErrBadOp, c.Err())
		}
		return setFoster(pg, fosterPID, slotChain, chainHigh)
	case opAdopt, opDeAdopt:
		// (sep, child) enters or leaves a branch: child covers
		// [sep, nextSep).
		sep := c.Bytes16()
		child := c.Take(8)
		if c.Err() != nil {
			return fmt.Errorf("%w: %v", ErrBadOp, c.Err())
		}
		i, found, err := n.Find(sep)
		if err != nil {
			return err
		}
		if code == opAdopt {
			if found {
				return fmt.Errorf("%w: separator %q", ErrKeyExists, sep)
			}
			return pg.InsertRecord(i, sep, child, false)
		}
		if !found {
			return fmt.Errorf("%w: adopt undo separator %q not found", ErrBadOp, sep)
		}
		if _, cur, _, _ := n.Record(i); !bytes.Equal(cur, child) {
			return fmt.Errorf("%w: adopt undo child mismatch", ErrBadOp)
		}
		return pg.RemoveRecords(i, i+1)
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
// value of a leaf update or purge, the old payload of a node or raw
// replace, the pre-image of a split truncate. applyOp leaves the same page
// either way; any other op comes back as op itself.
func RedoOnly(op []byte) []byte {
	if len(op) == 0 {
		return op
	}
	if k := kindOf(op[0]); k != pageop.None {
		return pageop.RedoOnly(k, op)
	}
	if op[0] != opSplitTruncate {
		return op
	}
	c := pageop.NewCursor(op, 1)
	c.U64()     // foster pid
	c.Bytes16() // foster key
	return c.WithoutBytes32()
}

// IsUserLeafOp reports whether a record payload is a user-level leaf op
// requiring logical undo (vs a structural op undone physically).
func IsUserLeafOp(payload []byte) bool {
	if len(payload) == 0 {
		return false
	}
	switch payload[0] {
	case opLeafInsert, opLeafGhost, opLeafUpdate:
		return true
	}
	return false
}

// Compensate undoes one update record during rollback, logging a CLR whose
// payload is the forward-applicable inverse op. User-level leaf ops are
// undone logically through a fresh descent; structural ops are undone
// physically on the page they touched.
func Compensate(t *txn.Txn, pager Pager, rec *wal.Record) error {
	if !IsUserLeafOp(rec.Payload) {
		return ops.CompensatePhysical(t, pager.Fetch, rec)
	}
	k := kindOf(rec.Payload[0])
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

// inverseOp constructs the forward-applicable compensation op for a
// structural op, given the page's current contents.
func inverseOp(payload []byte, pg *page.Page) ([]byte, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("%w: empty payload", ErrBadOp)
	}
	if k := kindOf(payload[0]); k != pageop.None {
		return pageop.Inverse(k, payload, pg)
	}
	c := pageop.NewCursor(payload, 1)
	var inv []byte
	switch payload[0] {
	case opSplitTruncate:
		c.U64()
		c.Bytes16()
		inv = encodeReplaceNode(c.Bytes32(), pg.Payload())
	case opClearFoster:
		inv = encodeFosterOp(opSetFoster, page.ID(c.U64()), readFence(&c))
	case opSetFoster:
		fosterPID := page.ID(c.U64())
		n, err := parseNode(pg.Payload())
		if err != nil {
			return nil, err
		}
		inv = encodeFosterOp(opClearFoster, fosterPID, n.chain)
	case opAdopt:
		inv = encodeAdoptOp(opDeAdopt, c.Bytes16(), page.ID(c.U64()))
	case opDeAdopt:
		inv = encodeAdoptOp(opAdopt, c.Bytes16(), page.ID(c.U64()))
	case opMetaPut:
		name, root, oldRoot := string(c.Bytes16()), page.ID(c.U64()), page.ID(c.U64())
		inv = EncodeMetaPut(name, oldRoot, root)
	default:
		return nil, fmt.Errorf("%w: no inverse for opcode %d", ErrBadOp, payload[0])
	}
	if c.Err() != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadOp, c.Err())
	}
	return inv, nil
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
