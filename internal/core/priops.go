package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/page"
	"repro/internal/storage"
	"repro/internal/wal"
)

// PRIOp is the sub-opcode of a TypePRIUpdate log record. These records are
// the paper's §5.2.4 maintenance stream: one system-transaction record
// after each completed page write (subsuming the "logging completed
// writes" optimization of §5.1.2 — see Fig. 4 and Fig. 12), plus one per
// range a full backup re-points, so the index itself is recoverable
// (§5.2.5). A format record or a page copy needs none: it registers itself
// (recovery.Analyze).
type PRIOp uint8

const (
	// PRIOpWriteComplete: a dirty page reached the database; payload
	// carries the written PageLSN and the physical destination slot.
	// Doubles as a logged completed write for fast restart redo.
	PRIOpWriteComplete PRIOp = iota + 1
	// PRIOpSetRange: a backup reference now covers a page range
	// (typically the whole database after a full backup).
	PRIOpSetRange
)

func (op PRIOp) String() string {
	switch op {
	case PRIOpWriteComplete:
		return "write-complete"
	case PRIOpSetRange:
		return "set-range"
	default:
		return fmt.Sprintf("pri-op(%d)", uint8(op))
	}
}

// ErrBadPRIRecord reports an unparseable PRI update payload.
var ErrBadPRIRecord = errors.New("core: bad page recovery index record")

// WriteCompletePayload is the decoded form of a PRIOpWriteComplete record.
type WriteCompletePayload struct {
	PageLSN page.LSN
	Dest    storage.PhysID
}

const writeCompleteBytes = 1 + 8 + 8

// EncodeWriteComplete builds a PRIOpWriteComplete payload.
func EncodeWriteComplete(p WriteCompletePayload) []byte {
	buf := make([]byte, writeCompleteBytes)
	buf[0] = byte(PRIOpWriteComplete)
	binary.LittleEndian.PutUint64(buf[1:], uint64(p.PageLSN))
	binary.LittleEndian.PutUint64(buf[9:], uint64(p.Dest))
	return buf
}

// EncodeSetRange builds a PRIOpSetRange payload covering [lo, hi]: the
// arguments of the PRI.ReplaceRange call it describes.
func EncodeSetRange(lo, hi page.ID, e Entry, takenAt page.LSN) []byte {
	buf := make([]byte, setRangeBytes)
	buf[0] = byte(PRIOpSetRange)
	binary.LittleEndian.PutUint64(buf[1:], uint64(lo))
	binary.LittleEndian.PutUint64(buf[9:], uint64(hi))
	buf[17] = byte(e.Backup.Kind)
	binary.LittleEndian.PutUint64(buf[18:], e.Backup.Loc)
	binary.LittleEndian.PutUint64(buf[26:], uint64(e.Backup.AsOf))
	binary.LittleEndian.PutUint64(buf[34:], uint64(e.LastLSN))
	binary.LittleEndian.PutUint64(buf[42:], uint64(takenAt))
	return buf
}

const setRangeBytes = 1 + 8 + 8 + 1 + 8 + 8 + 8 + 8

// DecodePRIOp returns the sub-opcode of a TypePRIUpdate payload.
func DecodePRIOp(payload []byte) (PRIOp, error) {
	if len(payload) < 1 {
		return 0, ErrBadPRIRecord
	}
	return PRIOp(payload[0]), nil
}

// DecodeWriteComplete parses a PRIOpWriteComplete payload.
func DecodeWriteComplete(payload []byte) (WriteCompletePayload, error) {
	if len(payload) != writeCompleteBytes || PRIOp(payload[0]) != PRIOpWriteComplete {
		return WriteCompletePayload{}, fmt.Errorf("%w: write-complete, %d bytes", ErrBadPRIRecord, len(payload))
	}
	return WriteCompletePayload{
		PageLSN: page.LSN(binary.LittleEndian.Uint64(payload[1:])),
		Dest:    storage.PhysID(binary.LittleEndian.Uint64(payload[9:])),
	}, nil
}

// ApplyPRIRecord replays one TypePRIUpdate record into the page recovery
// index and the page map. Restart analysis uses it to reconstruct both
// from the last checkpoint's snapshots (§5.2.5, Fig. 12 row 2).
func ApplyPRIRecord(pri *PRI, pmap PageMapper, rec *wal.Record) error {
	if rec.Type != wal.TypePRIUpdate {
		return fmt.Errorf("%w: record type %v", ErrBadPRIRecord, rec.Type)
	}
	payload := rec.Payload
	if len(payload) < 1 {
		return ErrBadPRIRecord
	}
	switch PRIOp(payload[0]) {
	case PRIOpWriteComplete:
		wc, err := DecodeWriteComplete(payload)
		if err != nil {
			return err
		}
		if e, err := pri.SetLastLSN(rec.PageID, wc.PageLSN); err != nil {
			// A page can be written before any backup exists for it
			// (e.g. PRI disabled at allocation time); track it with
			// an empty backup so at least the LSN cross-check works.
			pri.Set(rec.PageID, Entry{LastLSN: wc.PageLSN})
		} else if e.LastLSN > wc.PageLSN {
			// The index already knows a newer write of the page — this
			// record is replayed over a snapshot taken after it, or was
			// delivered late — so the slot it names is the page's no more.
			return nil
		}
		if pmap != nil {
			if err := pmap.EnsureMapping(rec.PageID, wc.Dest); err != nil {
				return err
			}
		}
		return nil
	case PRIOpSetRange:
		if len(payload) != setRangeBytes {
			return fmt.Errorf("%w: set-range, %d bytes", ErrBadPRIRecord, len(payload))
		}
		lo := page.ID(binary.LittleEndian.Uint64(payload[1:]))
		hi := page.ID(binary.LittleEndian.Uint64(payload[9:]))
		if hi < lo {
			return fmt.Errorf("%w: set-range [%d,%d]", ErrBadPRIRecord, lo, hi)
		}
		e := Entry{
			Backup: BackupRef{
				Kind: BackupKind(payload[17]),
				Loc:  binary.LittleEndian.Uint64(payload[18:]),
				AsOf: page.LSN(binary.LittleEndian.Uint64(payload[26:])),
			},
			LastLSN: page.LSN(binary.LittleEndian.Uint64(payload[34:])),
		}
		pri.ReplaceRange(lo, hi, e, page.LSN(binary.LittleEndian.Uint64(payload[42:])))
		return nil
	default:
		return fmt.Errorf("%w: op %d", ErrBadPRIRecord, payload[0])
	}
}

// PageMapper is the slice of the page map ApplyPRIRecord needs; it avoids
// an import cycle with the pagemap package.
type PageMapper interface {
	// EnsureMapping binds logical id to phys, creating the logical page
	// if the map has never seen it.
	EnsureMapping(id page.ID, phys storage.PhysID) error
}
