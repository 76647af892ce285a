// Package recovery implements the recovery algorithms for the three
// traditional failure classes (paper §5.1) and their interplay with the
// page recovery index (§5.2.5–§5.2.6):
//
//   - fuzzy checkpoints that flush the dirty pages present at checkpoint
//     start and snapshot the active transaction table, the dirty page
//     table, the page recovery index, and the page map;
//   - restart recovery after a system failure: log analysis, which drops
//     the system transactions the crash cut, physical redo with the
//     logged-completed-write optimization (PRI update records), and
//     logical undo of loser user transactions — including the Fig. 12
//     repair of PRI updates lost in the crash;
//   - media recovery after a device failure: restore a full backup set and
//     replay the log forward.
package recovery

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/buffer"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/page"
	"repro/internal/pagemap"
	"repro/internal/txn"
	"repro/internal/wal"
)

// CheckpointDeps is what a checkpoint needs.
type CheckpointDeps struct {
	Log  *wal.Manager
	Pool *buffer.Pool
	Txns *txn.Manager
	PRI  *core.PRI
	Map  *pagemap.Map
}

// Checkpoint takes a fuzzy checkpoint: it logs a begin record, flushes the
// pages that were dirty when the checkpoint started (per §5.2.6,
// deliberately NOT chasing the tail of PRI updates caused by those very
// flushes), then logs a checkpoint-end record carrying the begin LSN, the
// ATT, the remaining DPT, and snapshots of the page recovery index and page
// map, forces the log, and updates the master record.
//
// The checkpoint is consistent as of its BEGIN record, and analysis scans
// from there: the snapshots are taken one after another while transactions
// commit and pages are written, so each describes some moment after the
// begin record, and every log record from the begin record on is replayed
// over them (replay is idempotent: index LSNs only rise, a re-registered
// format record is followed by its own completed write). What the
// snapshots must guarantee is everything the scan cannot see:
//
//   - every chain record below the begin LSN that is not on the device
//     belongs to a page in the DPT (buffer.Pool.DirtyPages reads each frame
//     under its latch, so a logged update is never missed), and a page
//     absent from the DPT has its newest image named by the index snapshot
//     (write-back tells the index before the frame turns clean);
//   - no transaction with an end record below the begin LSN is in the ATT
//     (txn.Manager lays the end record and drops the ATT row in one step).
//
// The flush rides the buffer pool's batched write-back path: one log force
// and one grouped PRI append cover the whole dirty page table, and the
// checkpoint composes with in-flight background write-back — a page the
// maintenance flusher cleans first is simply skipped (per-frame flush
// serialization guarantees no page is written twice for one image), and a
// page evicted meanwhile was flushed by the eviction.
//
// Both records go to the log of the checkpoint's own incarnation. A crash
// seals that log: the end record then never becomes stable, the master
// stays where it was, and the checkpoint returns wal.ErrSealed — the
// restarted database, on the log wal.TakeOver built, never sees it.
//
// The returned CheckpointResult carries, besides the end-record LSN, the
// checkpoint's redo horizon: the lowest LSN a restart from this checkpoint
// reads from the live log — the begin record, or the minimum RecLSN over
// the logged dirty page table when that is lower. That is what lets the
// log lifecycle recycle live segments beneath it (archived history still
// serves per-page chain replays).
func Checkpoint(d CheckpointDeps) (CheckpointResult, error) {
	begin := d.Log.Append(&wal.Record{Type: wal.TypeCheckpointBegin})
	dirtyAtStart := d.Pool.DirtyPages()
	ids := make([]page.ID, len(dirtyAtStart))
	for i, e := range dirtyAtStart {
		ids[i] = e.Page
	}
	if err := d.Pool.FlushPages(ids); err != nil {
		return CheckpointResult{}, fmt.Errorf("recovery: checkpoint flush: %w", err)
	}
	// Crash point: the dirty pages are flushed but the checkpoint-end
	// record is not yet durable — a crash here must restart from the
	// PREVIOUS master record, replaying across this half-taken checkpoint.
	chaos.At("recovery.checkpoint")
	data := checkpointData{
		begin: begin,
		att:   d.Txns.Active(),
		dpt:   d.Pool.DirtyPages(),
		pri:   d.PRI.Snapshot(),
		pmap:  d.Map.Snapshot(),
	}
	// Crash point: the snapshots are taken, the end record is not laid.
	// Whatever commits or dirties a page here is in no snapshot and below
	// the end record — only the scan from the begin record finds it.
	chaos.At("recovery.checkpoint.snapshot")
	end := d.Log.Append(&wal.Record{Type: wal.TypeCheckpointEnd, Payload: encodeCheckpoint(data)})
	if err := d.Log.Flush(end); err != nil {
		return CheckpointResult{}, err
	}
	d.Log.SetMaster(end)
	horizon := begin
	for _, e := range data.dpt {
		if e.RecLSN != page.ZeroLSN && e.RecLSN < horizon {
			horizon = e.RecLSN
		}
	}
	return CheckpointResult{End: end, RedoHorizon: horizon}, nil
}

// CheckpointResult reports one completed checkpoint.
type CheckpointResult struct {
	// End is the LSN of the checkpoint-end record (the new master).
	End page.LSN
	// RedoHorizon is the lowest LSN restart recovery reads from the live
	// log after restarting from this checkpoint: min RecLSN over the logged
	// DPT, or the begin record when no dirty page reaches below it.
	RedoHorizon page.LSN
}

// checkpointData is the checkpoint-end record contents.
type checkpointData struct {
	begin page.LSN // the checkpoint's begin record: where analysis starts
	att   []txn.ActiveEntry
	dpt   []buffer.DirtyPageEntry
	pri   []byte
	pmap  []byte
}

func encodeCheckpoint(c checkpointData) []byte {
	var buf []byte
	var t [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(t[:], v)
		buf = append(buf, t[:]...)
	}
	put(uint64(c.begin))
	put(uint64(len(c.att)))
	for _, e := range c.att {
		put(uint64(e.ID))
		put(uint64(e.LastLSN))
	}
	put(uint64(len(c.dpt)))
	for _, e := range c.dpt {
		put(uint64(e.Page))
		put(uint64(e.RecLSN))
		put(uint64(e.PageLSN))
	}
	put(uint64(len(c.pri)))
	buf = append(buf, c.pri...)
	put(uint64(len(c.pmap)))
	buf = append(buf, c.pmap...)
	return buf
}

var errBadCheckpoint = errors.New("recovery: corrupt checkpoint record")

func decodeCheckpoint(payload []byte) (checkpointData, error) {
	var c checkpointData
	ok := true
	get := func() uint64 {
		if len(payload) < 8 {
			ok = false
			return 0
		}
		v := binary.LittleEndian.Uint64(payload)
		payload = payload[8:]
		return v
	}
	blob := func() []byte {
		n := get()
		if !ok || n > uint64(len(payload)) {
			ok = false
			return nil
		}
		b := append([]byte(nil), payload[:n]...)
		payload = payload[n:]
		return b
	}
	c.begin = page.LSN(get())
	// A count the payload cannot hold runs out of payload, not of memory:
	// every row consumes bytes.
	for n := get(); ok && n > 0; n-- {
		id, lsn := wal.TxnID(get()), page.LSN(get())
		c.att = append(c.att, txn.ActiveEntry{ID: id, LastLSN: lsn, System: txn.IsSystemID(id)})
	}
	for n := get(); ok && n > 0; n-- {
		c.dpt = append(c.dpt, buffer.DirtyPageEntry{
			Page: page.ID(get()), RecLSN: page.LSN(get()), PageLSN: page.LSN(get()),
		})
	}
	c.pri = blob()
	c.pmap = blob()
	if !ok || len(payload) != 0 {
		return checkpointData{}, errBadCheckpoint
	}
	return c, nil
}
