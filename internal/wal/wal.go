// Package wal implements the write-ahead recovery log.
//
// The log is the one component the paper assumes perfectly stable (§5):
// "once a log page has been written, it is not subsequently lost." This
// implementation models that assumption with an in-memory append buffer
// whose flushed prefix survives simulated crashes while the unflushed tail
// is discarded.
//
// Every record carries two chain pointers:
//
//   - PrevLSN: the transaction's previous record — the per-transaction log
//     chain used for rollback (§5.1.1);
//   - PagePrevLSN: the page's previous record — the per-page log chain
//     (§5.1.4) that single-page recovery walks backwards from the LSN stored
//     in the page recovery index to the LSN of the backup copy.
//
// The per-page chain pointer also enables the defensive redo check of
// §5.1.4: during redo, a record's PagePrevLSN must equal the PageLSN found
// in the data page before the redo action is applied.
//
// # Concurrency architecture
//
// Every page update in the engine appends a log record, so Append is a
// whole-engine hot path and must not serialize on a mutex:
//
//   - Append reserves its LSN range with one atomic add on the reservation
//     watermark, encodes the record into that range of a chunked,
//     never-moving segment buffer without holding any lock, and then
//     publishes it by advancing the "ready" watermark (a short CAS spin
//     that commits ranges in LSN order — the publication seqlock);
//   - readers (Read, Scan, WalkPageChain, flush) see exactly the records
//     below the ready watermark; the acquire/release ordering of the
//     watermark makes the record bytes visible without further locking;
//   - the segment buffer grows by appending fixed-size chunks, so already
//     written bytes never move and fillers never block behind a growth
//     copy;
//   - bytes below the ready watermark are never written again and a chunk
//     is never handed out twice, so readers take no lock: a zero-copy view
//     stays valid for as long as the reader holds it;
//   - commits coalesce without a clock: flushMu is the commit queue. The
//     committer that takes it and finds its record not yet stable is the
//     leader and flushes everything published; committers that queued on
//     the mutex meanwhile find their record already stable and return
//     without a flush (§5.1.5 counts these forces; a batch counts once).
//
// # Incarnations
//
// A crash ends the manager's incarnation. Crash seals it: the flushed
// watermark freezes, and nothing is truncated or rolled back, so the
// failed incarnation's readers and in-flight appenders run on undisturbed —
// their appends publish, but never become stable. A commit force then
// reports ErrCommitLost for a record the seal left above the stable prefix,
// and Flush reports ErrSealed, which keeps a page whose log did not survive
// off the device. Recovery builds the next incarnation with TakeOver, which
// owns exactly the surviving bytes — the stable prefix and the master
// pointer — and continues the LSN sequence after them. A transaction is
// tied to the manager it began on, so nothing of a failed incarnation can
// reach its successor's log.
//
// The manager keeps no per-page state: where a page's chain currently ends
// is the page recovery index's business, rebuilt after a failure by log
// analysis (internal/recovery).
//
// # Log lifecycle
//
// The live log is bounded: Recycle truncates the segment buffer below a
// horizon chosen by the archiver (history must be checkpoint-covered AND
// durably archived first), releasing the whole chunks it cuts to the
// garbage collector; growth makes fresh ones, so a log at rest holds its
// tail and no spare chunks. Below the truncation boundary Read and
// WalkPageChain transparently fall back to the ArchiveReader installed
// with SetArchive, where the per-page chain records are served from
// sorted, page-partitioned runs as sequential scans instead of the
// seek-per-record live path. Scan does not: the
// archive keeps only what recovery replays, so the LSN-ordered stream
// below the boundary no longer exists and a scan there is ErrTruncated.
// The manager itself never decides when to recycle; it only enforces that
// the boundary lies at or below the flushed watermark. See
// internal/archive for the policy side.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/iosim"
	"repro/internal/page"
)

// RecType identifies the kind of a log record.
type RecType uint8

// Log record types.
const (
	// TypeInvalid marks an uninitialized record.
	TypeInvalid RecType = iota
	// TypeUpdate is a page update by a user or system transaction; the
	// payload carries structure-specific redo and undo information.
	TypeUpdate
	// TypeCLR is a compensation log record written during rollback;
	// redo-only, with UndoNext pointing at the next record to undo.
	TypeCLR
	// TypeCommit commits a user transaction (forces the log).
	TypeCommit
	// TypeSysCommit commits a system transaction (no log force, §5.1.5).
	TypeSysCommit
	// TypeAbort marks the end of a rolled-back transaction.
	TypeAbort
	// TypeFormat records the formatting of a page newly allocated from
	// the free-space pool. Redo recreates the page from nothing, so the
	// record substitutes for a backup copy (§5.2.1).
	TypeFormat
	// TypePRIUpdate records an update to the page recovery index after a
	// completed page write. It doubles as the "logging completed writes"
	// optimization of §5.1.2 (see Fig. 12).
	TypePRIUpdate
	// TypeCheckpointBegin and TypeCheckpointEnd bracket a fuzzy
	// checkpoint; the end record carries the dirty page table, the
	// active transaction table, and PRI/page-map snapshots.
	TypeCheckpointBegin
	TypeCheckpointEnd
)

func (t RecType) String() string {
	switch t {
	case TypeUpdate:
		return "update"
	case TypeCLR:
		return "clr"
	case TypeCommit:
		return "commit"
	case TypeSysCommit:
		return "sys-commit"
	case TypeAbort:
		return "abort"
	case TypeFormat:
		return "format"
	case TypePRIUpdate:
		return "pri-update"
	case TypeCheckpointBegin:
		return "ckpt-begin"
	case TypeCheckpointEnd:
		return "ckpt-end"
	default:
		return fmt.Sprintf("rectype(%d)", uint8(t))
	}
}

// TxnID identifies a transaction in log records. System transactions use
// the same space with a reserved high bit set by the txn package.
type TxnID uint64

// Record is a decoded log record. The LSN of a record is the byte offset at
// which it starts; the first record sits at LSN firstLSN (not zero, so that
// page.ZeroLSN means "never logged").
type Record struct {
	LSN         page.LSN
	Type        RecType
	Txn         TxnID
	PrevLSN     page.LSN // per-transaction chain
	PageID      page.ID  // zero when the record concerns no single page
	PagePrevLSN page.LSN // per-page chain
	UndoNext    page.LSN // CLRs: next record to undo
	Payload     []byte
}

// header layout:
//
//	offset size field
//	0      4    total record length (header + payload + crc)
//	4      1    type
//	5      8    txn id
//	13     8    prev lsn (per-txn)
//	21     8    page id
//	29     8    page prev lsn (per-page)
//	37     8    undo next lsn
//	45     ...  payload
//	end-4  4    crc32 of bytes [0 : end-4)
const headerSize = 45
const trailerSize = 4

// firstLSN is the LSN of the first record ever appended. Offset 0 is
// reserved so that ZeroLSN unambiguously means "no record".
const firstLSN page.LSN = 16

// The append buffer is a sequence of fixed-size chunks. Chunks are
// allocated on demand and never move or shrink, so a filler encoding into
// its reserved range can never be invalidated by concurrent growth.
const chunkShift = 20 // 1 MiB
const chunkSize = 1 << chunkShift
const chunkMask = chunkSize - 1

// Errors returned by log operations.
var (
	ErrBadLSN      = errors.New("wal: LSN does not address a record")
	ErrTornRecord  = errors.New("wal: record beyond end of log")
	ErrCorruptRec  = errors.New("wal: record checksum mismatch")
	ErrNotFlushed  = errors.New("wal: record not yet on stable storage")
	ErrChainBroken = errors.New("wal: per-page chain inconsistent")
	// ErrCommitLost reports that a crash sealed the log before the commit
	// record reached stable storage: the record is not among the bytes the
	// next incarnation takes over, so restart rolls the transaction back.
	ErrCommitLost = errors.New("wal: commit lost in crash before reaching stable storage")
	// ErrSealed reports that a crash sealed the log before the record asked
	// for was stable, and that no flush will make it so any more. The
	// failed incarnation's work ends there; TakeOver continues the log.
	ErrSealed = errors.New("wal: log sealed by a crash; recovery takes it over")
	// ErrTruncated reports a read below the recycling boundary: the record
	// left the live log and, if it is a per-page chain record and an
	// archive is attached, now lives there. Read and WalkPageChain translate
	// it into an archive lookup; Scan surfaces it.
	ErrTruncated = errors.New("wal: record recycled out of the live log")
)

// ArchiveReader serves the per-page chain records that Recycle removed
// from the live segment buffer. internal/archive implements it over sorted,
// page-partitioned runs; the interface lives here so the wal package can
// fall back to it without importing its implementor.
type ArchiveReader interface {
	// ReadRecord returns an independent copy of the archived record at lsn.
	ReadRecord(lsn page.LSN) (*Record, error)
	// WalkChain follows the per-page chain backwards from start until (and
	// excluding) records at or below stopAfter, newest first — the archived
	// continuation of WalkPageChain, served as a sequential run scan. The
	// payloads may alias the archive's immutable storage: read-only.
	WalkChain(start, stopAfter page.LSN, pageID page.ID) ([]*Record, error)
}

// Stats counts log manager activity.
type Stats struct {
	Appends       int64
	BytesAppended int64
	Flushes       int64 // explicit flush calls that did work
	ForcedCommits int64 // commit-triggered forces (a group batch counts once)
	RecordsRead   int64
	// GroupCommitBatches counts leader flushes — every commit-triggered
	// force is one, so it equals ForcedCommits — and GroupCommitWaiters
	// the commit forces served: waiters/batches is the average number of
	// commits one sequential flush made durable.
	GroupCommitBatches int64
	GroupCommitWaiters int64
	// BatchAppends counts AppendBatch calls; Appends counts every record
	// either way, so Appends/BatchAppends is the grouping factor of the
	// batched write-complete logging.
	BatchAppends int64
	// LiveSegments is the number of chunks currently backing the live log
	// (a gauge); RecycledSegments counts chunks recycled over the manager's
	// lifetime. Their sum times the chunk size is total bytes ever logged,
	// rounded up to chunks.
	LiveSegments     int64
	RecycledSegments int64
	// TruncatedLSN is the recycling boundary: records below it are served
	// from the archive, not the live buffer.
	TruncatedLSN page.LSN
	// ArchiveReads counts records served by the ArchiveReader fallback.
	ArchiveReads int64
}

type counters struct {
	appends       atomic.Int64
	bytesAppended atomic.Int64
	flushes       atomic.Int64
	forcedCommits atomic.Int64
	recordsRead   atomic.Int64
	commitsServed atomic.Int64
	batchAppends  atomic.Int64
	recycled      atomic.Int64
	archiveReads  atomic.Int64
}

// Options configures a Manager.
type Options struct {
	// Profile selects the simulated I/O cost model for the log device.
	Profile iosim.Profile
	// GroupCommitWindow is ignored; kept for source compatibility. Commits
	// batch behind the flush in progress (see ForceForCommit), not behind a
	// clock.
	GroupCommitWindow time.Duration
}

// Manager is the log manager. It is safe for concurrent use.
//
// Watermarks (all byte offsets, i.e. LSNs):
//
//	flushed ≤ ready ≤ reserved
//
// reserved is the next LSN to hand out; ready bounds the contiguous prefix
// of fully encoded records (publication happens in LSN order); flushed
// bounds the stable prefix, the part of the log a crash leaves. flushed and
// ready always lie on record boundaries, and none of the three moves back.
type Manager struct {
	reserved atomic.Int64
	ready    atomic.Int64
	flushed  atomic.Int64

	chunks atomic.Pointer[chunkTable]
	// allocMu serializes swaps of the chunk table — growth and recycling —
	// and keeps the table and base a consistent pair for TakeOver.
	allocMu sync.Mutex
	// base is the recycling boundary (always a record boundary ≤ flushed):
	// LSNs below it address the archive, not the live buffer. Monotone.
	base atomic.Int64
	// arch holds the ArchiveReader fallback for reads below base.
	arch atomic.Pointer[archiveHolder]

	// Publication handoff for out-of-order completions: a filler that is
	// not next in line parks its completed range here and sleeps; the
	// publisher holding the lowest range sweeps the ready watermark
	// forward through every parked successor and wakes them.
	pubMu       sync.Mutex
	pubCond     *sync.Cond
	parked      map[int64]*parkedRange // start -> completed, unpublished range
	parkedCount atomic.Int64

	// flushMu serializes flushed advances, queues commit forces behind the
	// flush in progress (see ForceForCommit), and guards sealed: once Crash
	// sets it, flushed never moves again, so every verdict taken under the
	// mutex falls wholly before or wholly after the seal.
	flushMu sync.Mutex
	sealed  bool

	master atomic.Int64
	// clock and stats belong to the log device, not to one incarnation:
	// TakeOver hands them on.
	clock *iosim.Clock
	stats *counters
}

// archiveHolder wraps the ArchiveReader so it fits an atomic.Pointer.
type archiveHolder struct{ r ArchiveReader }

// chunkTable is the segment buffer: a window of fixed-size chunks whose
// first element covers byte offsets [first<<chunkShift, ...). The value is
// immutable — growth and recycling swap in a new table sharing the
// surviving chunk slices, so already-written bytes never move.
type chunkTable struct {
	first  int64 // global chunk index of chunks[0]
	chunks [][]byte
}

// at returns the chunk containing byte offset pos.
func (t *chunkTable) at(pos int64) []byte { return t.chunks[(pos>>chunkShift)-t.first] }

// start returns the first byte offset the table covers.
func (t *chunkTable) start() int64 { return t.first << chunkShift }

// end returns the exclusive byte offset the table covers up to.
func (t *chunkTable) end() int64 { return (t.first + int64(len(t.chunks))) << chunkShift }

// NewManager creates an empty log charging I/O against the given profile.
func NewManager(profile iosim.Profile) *Manager {
	return NewManagerOpts(Options{Profile: profile})
}

// NewManagerOpts creates an empty log with full configuration.
func NewManagerOpts(opts Options) *Manager {
	m := newManager(iosim.NewClock(opts.Profile), new(counters), int64(firstLSN))
	m.chunks.Store(&chunkTable{})
	return m
}

// newManager creates a manager on a log device whose stable prefix ends at
// end; the caller installs the chunk table.
func newManager(clock *iosim.Clock, stats *counters, end int64) *Manager {
	m := &Manager{clock: clock, stats: stats, parked: make(map[int64]*parkedRange)}
	m.pubCond = sync.NewCond(&m.pubMu)
	m.reserved.Store(end)
	m.ready.Store(end)
	m.flushed.Store(end)
	return m
}

// Clock returns the simulated-time clock for the log device.
func (m *Manager) Clock() *iosim.Clock { return m.clock }

// Stats returns a snapshot of manager counters.
func (m *Manager) Stats() Stats {
	return Stats{
		Appends:            m.stats.appends.Load(),
		BytesAppended:      m.stats.bytesAppended.Load(),
		Flushes:            m.stats.flushes.Load(),
		ForcedCommits:      m.stats.forcedCommits.Load(),
		RecordsRead:        m.stats.recordsRead.Load(),
		GroupCommitBatches: m.stats.forcedCommits.Load(),
		GroupCommitWaiters: m.stats.commitsServed.Load(),
		BatchAppends:       m.stats.batchAppends.Load(),
		LiveSegments:       int64(len(m.table().chunks)),
		RecycledSegments:   m.stats.recycled.Load(),
		TruncatedLSN:       page.LSN(m.base.Load()),
		ArchiveReads:       m.stats.archiveReads.Load(),
	}
}

// EndLSN returns the LSN one past the last published record (the next
// record's LSN once in-flight appends drain).
func (m *Manager) EndLSN() page.LSN { return page.LSN(m.ready.Load()) }

// FlushedLSN returns the exclusive upper bound of the stable prefix.
func (m *Manager) FlushedLSN() page.LSN { return page.LSN(m.flushed.Load()) }

// table returns the current chunk table.
func (m *Manager) table() *chunkTable { return m.chunks.Load() }

// ensure grows the chunk table until it covers end bytes and returns it.
// Existing chunks never move, so concurrent fillers are unaffected. New
// chunks are always fresh: a log at rest holds its tail, not spare
// megabytes, and making one costs a memclr (one chunk is ~2 500 PUTs of
// log). A recycled chunk is never handed out again, so a reader still
// holding an old table can never see it overwritten.
func (m *Manager) ensure(end int64) *chunkTable {
	t := m.table()
	if t.end() >= end {
		return t
	}
	m.allocMu.Lock()
	defer m.allocMu.Unlock()
	t = m.table()
	need := int((end+chunkMask)>>chunkShift - t.first)
	if len(t.chunks) < need {
		nt := &chunkTable{first: t.first, chunks: make([][]byte, need)}
		copy(nt.chunks, t.chunks)
		for i := len(t.chunks); i < need; i++ {
			nt.chunks[i] = make([]byte, chunkSize)
		}
		m.chunks.Store(nt)
		t = nt
	}
	return t
}

// writeAt scatters src into the chunk table starting at byte offset pos.
func writeAt(t *chunkTable, pos int64, src []byte) {
	for len(src) > 0 {
		c := t.at(pos)
		n := copy(c[pos&chunkMask:], src)
		src = src[n:]
		pos += int64(n)
	}
}

// readAt gathers n bytes at pos into dst.
func readAt(t *chunkTable, pos int64, dst []byte) {
	for len(dst) > 0 {
		c := t.at(pos)
		n := copy(dst, c[pos&chunkMask:])
		dst = dst[n:]
		pos += int64(n)
	}
}

// bytesAt returns n bytes of t starting at pos. When the range lies inside
// one chunk the returned slice aliases the log buffer (zero copy);
// otherwise it is a freshly gathered copy. Records rarely span the 1 MiB
// chunk seam.
func bytesAt(t *chunkTable, pos, n int64) []byte {
	if pos>>chunkShift == (pos+n-1)>>chunkShift {
		c := t.at(pos)
		off := pos & chunkMask
		return c[off : off+n : off+n]
	}
	out := make([]byte, n)
	readAt(t, pos, out)
	return out
}

// lengthAt reads the 4-byte total-length field of the record at pos in t.
func lengthAt(t *chunkTable, pos int64) int64 {
	var b [4]byte
	readAt(t, pos, b[:])
	return int64(binary.LittleEndian.Uint32(b[:]))
}

// Append encodes rec, assigns it the next LSN, and appends it to the
// volatile tail. It returns the assigned LSN. The record is not stable
// until a Flush covers it — on a sealed log, never.
//
// Append takes no locks: it reserves the record's LSN range with one
// atomic add, encodes into the reserved range, and publishes by advancing
// the ready watermark in LSN order.
func (m *Manager) Append(rec *Record) page.LSN {
	total := int64(headerSize + len(rec.Payload) + trailerSize)
	start := m.reserved.Add(total) - total
	end := start + total
	t := m.ensure(end)
	rec.LSN = page.LSN(start)
	encodeAt(t, start, rec)
	m.publish(start, end)
	m.stats.appends.Add(1)
	m.stats.bytesAppended.Add(total)
	return rec.LSN
}

// encodeAt writes rec's full encoding (header, payload, checksum) into the
// chunk table at byte offset pos and returns the encoded size. The caller
// owns the reserved range [pos, pos+size).
func encodeAt(t *chunkTable, pos int64, rec *Record) int64 {
	total := int64(headerSize + len(rec.Payload) + trailerSize)
	var hdr [headerSize]byte
	putHeader(&hdr, rec, total)
	crc := crc32.Update(0, crcTable, hdr[:])
	crc = crc32.Update(crc, crcTable, rec.Payload)
	var tail [trailerSize]byte
	binary.LittleEndian.PutUint32(tail[:], crc)
	writeAt(t, pos, hdr[:])
	writeAt(t, pos+headerSize, rec.Payload)
	writeAt(t, pos+total-trailerSize, tail[:])
	return total
}

// AppendBatch appends every record in recs as one contiguous block: a
// single atomic add reserves the whole LSN range, every record is encoded
// into its slice of the range outside any lock, and one publication makes
// the block visible. Each record remains an ordinary, individually
// addressable log record — Scan, Read, and the per-page chain walk see no
// difference — but the reservation, publication, and (for callers that
// force afterwards) flush costs are paid once per batch instead of once
// per record. This is the append entry point for batched write-complete
// logging: the background flusher logs one batch of PRI updates per flush
// group (§5.2.4 records need no force, so batching adds no durability
// hazard beyond the crash window restart redo already repairs, Fig. 12).
//
// Record LSNs are assigned in slice order; the first record's LSN is
// returned. Like Append, the records are not stable until a Flush covers
// them.
func (m *Manager) AppendBatch(recs []*Record) page.LSN {
	if len(recs) == 0 {
		return page.ZeroLSN
	}
	var total int64
	for _, rec := range recs {
		total += int64(headerSize + len(rec.Payload) + trailerSize)
	}
	start := m.reserved.Add(total) - total
	end := start + total
	t := m.ensure(end)
	pos := start
	for _, rec := range recs {
		rec.LSN = page.LSN(pos)
		pos += encodeAt(t, pos, rec)
	}
	m.publish(start, end)
	m.stats.appends.Add(int64(len(recs)))
	m.stats.batchAppends.Add(1)
	m.stats.bytesAppended.Add(total)
	return page.LSN(start)
}

// parkedRange is one completed-but-unpublished range awaiting the sweep.
// The pointer doubles as the owner's wait token: the owner sleeps until
// its exact entry disappears from the table.
type parkedRange struct {
	end int64
}

// publish commits the filled range [start, end) to the ready watermark and
// returns only once the record has been visible (ready reached end) — so
// Append-then-read/flush works immediately. Ranges publish in LSN order:
// the common case (we are next in line, or the predecessor finishes within
// a short spin) is a single CAS; a filler overtaken by the scheduler parks
// its range and sleeps, and the publisher currently holding the lowest
// range sweeps the watermark past every parked successor and wakes them.
// No unbounded spin exists to convoy on, which matters when cores are
// scarce and a mid-fill predecessor gets descheduled.
func (m *Manager) publish(start, end int64) {
	// Crash point: a record is filled but not yet visible to readers. A
	// crash here models losing an append mid-publication.
	chaos.At("wal.publish")
	for spins := 0; spins < 16; spins++ {
		if m.ready.CompareAndSwap(start, end) {
			if m.parkedCount.Load() != 0 {
				m.pubMu.Lock()
				m.sweepLocked()
				m.pubMu.Unlock()
			}
			return
		}
	}
	m.pubMu.Lock()
	tok := &parkedRange{end: end}
	m.parked[start] = tok
	m.parkedCount.Add(1)
	// Sweep our own range too: the predecessor may have published while
	// we were parking, and its parkedCount check may have missed us.
	m.sweepLocked()
	for m.parked[start] == tok {
		m.pubCond.Wait()
	}
	m.pubMu.Unlock()
}

// sweepLocked advances ready through consecutive parked ranges and wakes
// their (sleeping) owners. The caller holds pubMu.
func (m *Manager) sweepLocked() {
	advanced := false
	for {
		r := m.ready.Load()
		t, ok := m.parked[r]
		if !ok {
			break
		}
		delete(m.parked, r)
		m.parkedCount.Add(-1)
		m.ready.Store(t.end)
		advanced = true
	}
	if advanced {
		m.pubCond.Broadcast()
	}
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// putHeader lays out rec's header for an encoding of total bytes.
func putHeader(hdr *[headerSize]byte, rec *Record, total int64) {
	binary.LittleEndian.PutUint32(hdr[0:], uint32(total))
	hdr[4] = byte(rec.Type)
	binary.LittleEndian.PutUint64(hdr[5:], uint64(rec.Txn))
	binary.LittleEndian.PutUint64(hdr[13:], uint64(rec.PrevLSN))
	binary.LittleEndian.PutUint64(hdr[21:], uint64(rec.PageID))
	binary.LittleEndian.PutUint64(hdr[29:], uint64(rec.PagePrevLSN))
	binary.LittleEndian.PutUint64(hdr[37:], uint64(rec.UndoNext))
}

// AppendRecord appends rec's log encoding — the exact header layout and
// checksum the live buffer uses — to dst. The archive stores records in
// this form so a record reads back identically from either side of the
// truncation boundary.
func AppendRecord(dst []byte, rec *Record) []byte {
	start := len(dst)
	var hdr [headerSize]byte
	putHeader(&hdr, rec, int64(RecordSize(rec)))
	dst = append(append(dst, hdr[:]...), rec.Payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], crcTable))
}

// DecodeRecordInto parses one AppendRecord-encoded record from the front
// of b into rec, verifying the checksum, and returns its encoded size. It
// is the one decoder of the record header — the live log's and the
// archive's — and allocates nothing: rec's payload aliases b, capped at its
// end so an append cannot reach the checksum. The LSN is not part of the
// encoding (a live record's LSN is its offset) and must be supplied. On
// error rec is left as it was.
func DecodeRecordInto(lsn page.LSN, b []byte, rec *Record) (int, error) {
	if len(b) < headerSize+trailerSize {
		return 0, fmt.Errorf("%w: at %d", ErrTornRecord, lsn)
	}
	total := int(binary.LittleEndian.Uint32(b[0:]))
	if total < headerSize+trailerSize || total > len(b) {
		return 0, fmt.Errorf("%w: at %d", ErrTornRecord, lsn)
	}
	stored := binary.LittleEndian.Uint32(b[total-trailerSize:])
	if crc := crc32.Checksum(b[:total-trailerSize], crcTable); crc != stored {
		return 0, fmt.Errorf("%w: at %d", ErrCorruptRec, lsn)
	}
	rec.LSN = lsn
	rec.Type = RecType(b[4])
	rec.Txn = TxnID(binary.LittleEndian.Uint64(b[5:]))
	rec.PrevLSN = page.LSN(binary.LittleEndian.Uint64(b[13:]))
	rec.PageID = page.ID(binary.LittleEndian.Uint64(b[21:]))
	rec.PagePrevLSN = page.LSN(binary.LittleEndian.Uint64(b[29:]))
	rec.UndoNext = page.LSN(binary.LittleEndian.Uint64(b[37:]))
	rec.Payload = b[headerSize : total-trailerSize : total-trailerSize]
	return total, nil
}

// Flush forces the log up to and including the record at upTo onto stable
// storage. upTo should be a record's LSN (any value at or beyond the
// published end flushes everything). Flushing an already-stable LSN is a
// no-op. On a sealed log nothing becomes stable any more: Flush reports
// ErrSealed unless the record at upTo already was — which keeps the
// write-ahead rule across a crash, for a page write-back forces its page's
// log first (buffer.Pool).
func (m *Manager) Flush(upTo page.LSN) error {
	m.flushMu.Lock()
	defer m.flushMu.Unlock()
	m.flushTo(upTo)
	if m.sealed && int64(upTo) >= m.flushed.Load() {
		return ErrSealed
	}
	return nil
}

// flushTo advances the stable prefix past the record at upTo, unless the
// log is sealed. The caller holds flushMu. Cost is O(1) in record count:
// the target boundary comes from the record's own length header (validated
// by checksum), not from a forward walk of every unflushed record.
func (m *Manager) flushTo(upTo page.LSN) {
	f := m.flushed.Load()
	if m.sealed || int64(upTo) < f {
		return
	}
	ready := m.ready.Load()
	target := ready
	if p := int64(upTo); p < ready && p+headerSize+trailerSize <= ready {
		t := m.table()
		if total := lengthAt(t, p); total >= headerSize+trailerSize && p+total <= ready {
			raw := bytesAt(t, p, total)
			stored := binary.LittleEndian.Uint32(raw[total-trailerSize:])
			if crc32.Checksum(raw[:total-trailerSize], crcTable) == stored {
				target = p + total
			}
			// A checksum mismatch means upTo is not a record start;
			// conservatively flush the whole published prefix, which is
			// always a valid boundary.
		}
	}
	if target > f {
		m.clock.Sequential(target - f)
		m.flushed.Store(target)
		m.stats.flushes.Add(1)
	}
}

// FlushAll forces the entire published log (nothing, once sealed).
func (m *Manager) FlushAll() {
	m.flushMu.Lock()
	defer m.flushMu.Unlock()
	m.flushTo(page.LSN(m.ready.Load()))
}

// ForceForCommit makes the commit record at lsn durable and counts the
// force against commit statistics — the cost that system transactions
// avoid (§5.1.5, Fig. 5). A non-nil error (ErrCommitLost) means a crash
// sealed the log before the record was stable: it is not in the log the
// next incarnation takes over, and restart rolls the transaction back.
//
// flushMu is the commit queue, and batching comes from flush duration:
//
//  1. every committer queues on flushMu;
//  2. the one that gets it and finds its record not yet stable is the
//     leader: it flushes everything published — its own record and the
//     commit record of every committer queued behind it — and counts one
//     force;
//  3. a committer that gets the mutex after such a flush finds its record
//     already stable and flushes nothing;
//  4. either way the verdict is taken under the same mutex as the seal,
//     so it is exact: durable means the record survives the crash.
func (m *Manager) ForceForCommit(lsn page.LSN) error {
	m.flushMu.Lock()
	defer m.flushMu.Unlock()
	m.stats.commitsServed.Add(1)
	if !m.sealed && m.flushed.Load() <= int64(lsn) {
		m.flushTo(page.LSN(m.ready.Load()))
		m.stats.forcedCommits.Add(1)
	}
	if m.flushed.Load() <= int64(lsn) {
		return ErrCommitLost
	}
	return nil
}

// Close is a no-op kept for callers that pair it with NewManager: the log
// owns no goroutine and parks no committer, so there is nothing to stop or
// drain.
func (m *Manager) Close() {}

// Crash simulates a system failure by sealing the log: the stable prefix
// and the master pointer are what survives, and TakeOver hands them to the
// next incarnation. Nothing is truncated or rolled back, so the failed
// incarnation's readers and in-flight appenders run on undisturbed; only
// nothing they do becomes stable any more (see Flush and ForceForCommit).
// Idempotent.
func (m *Manager) Crash() {
	m.flushMu.Lock()
	defer m.flushMu.Unlock()
	// Crash point: the volatile tail is about to be cut off.
	chaos.At("wal.crash")
	m.sealed = true
}

// TakeOver returns the next incarnation of the log m: a manager that owns
// what a crash of m leaves — the stable prefix, the recycling boundary, the
// master pointer — and continues the LSN sequence after it, on the same
// log device (clock, counters) and archive. m is sealed first if no Crash
// sealed it, and stays the failed incarnation's log. The two never write a
// byte the other reads: the chunks wholly below the seal are shared, since
// nobody writes them again, and the chunk the seal falls in is copied up
// to it.
func TakeOver(m *Manager) *Manager {
	m.flushMu.Lock()
	m.sealed = true
	end := m.flushed.Load()
	m.flushMu.Unlock()
	m.allocMu.Lock()
	t, base := m.table(), m.base.Load()
	m.allocMu.Unlock()

	n := int(end>>chunkShift - t.first)
	chunks := append([][]byte(nil), t.chunks[:n]...)
	if off := end & chunkMask; off != 0 && n < len(t.chunks) {
		tail := make([]byte, chunkSize)
		copy(tail, t.chunks[n][:off])
		chunks = append(chunks, tail)
	}
	s := newManager(m.clock, m.stats, end)
	s.chunks.Store(&chunkTable{first: t.first, chunks: chunks})
	s.base.Store(base)
	s.master.Store(m.master.Load())
	s.arch.Store(m.arch.Load())
	return s
}

// SetArchive installs the reader that serves log history below the
// recycling boundary. It must be installed before the first Recycle;
// TakeOver hands it on (the archive is durable by definition).
func (m *Manager) SetArchive(ar ArchiveReader) {
	m.arch.Store(&archiveHolder{r: ar})
}

// archiveReader returns the installed ArchiveReader, or nil.
func (m *Manager) archiveReader() ArchiveReader {
	if h := m.arch.Load(); h != nil {
		return h.r
	}
	return nil
}

// TruncatedLSN returns the recycling boundary: records below it left the
// live buffer; the archive serves them, if one is installed.
func (m *Manager) TruncatedLSN() page.LSN { return page.LSN(m.base.Load()) }

// Recycle truncates the live log below upTo: whole chunks that fall under
// the boundary are released to the garbage collector. upTo must be a
// record boundary below which no reader will need the live log again —
// durably archived, or needed by no recovery at all. The caller (the archiver) owns that
// invariant; Recycle itself only clamps the boundary to the flushed
// watermark, so no volatile byte is ever "recycled" (a crash would then
// need it back). Returns the number of chunks freed.
//
// Recycle swaps in a table without the cut chunks: a reader that loaded the
// old one keeps reading intact bytes, and one that loads the new one finds
// its position below the table and reports ErrTruncated.
func (m *Manager) Recycle(upTo page.LSN) int {
	if f := m.flushed.Load(); int64(upTo) > f {
		upTo = page.LSN(f)
	}
	if int64(upTo) <= m.base.Load() {
		return 0
	}
	// Crash point: the horizon is chosen — covered records are durably
	// archived, or needed by no recovery — but nothing is freed yet. A crash
	// here must find every record either still live or re-archivable
	// idempotently.
	chaos.At("wal.recycle")
	m.allocMu.Lock()
	defer m.allocMu.Unlock()
	newBase := int64(upTo)
	if newBase <= m.base.Load() {
		return 0
	}
	freed := 0
	t := m.table()
	if nf := newBase >> chunkShift; nf > t.first {
		freed = int(nf - t.first)
		m.chunks.Store(&chunkTable{first: nf, chunks: append([][]byte(nil), t.chunks[freed:]...)})
	}
	m.base.Store(newBase)
	m.stats.recycled.Add(int64(freed))
	return freed
}

// SetMaster records the LSN of the most recent checkpoint-end record in the
// (stable) master location. Callers must flush the checkpoint records first.
// The master only moves forward.
func (m *Manager) SetMaster(lsn page.LSN) {
	for cur := m.master.Load(); int64(lsn) > cur; cur = m.master.Load() {
		if m.master.CompareAndSwap(cur, int64(lsn)) {
			m.clock.Random(8) // master record write
			return
		}
	}
}

// Master returns the LSN of the last completed checkpoint's end record, or
// ZeroLSN if no checkpoint ever completed.
func (m *Manager) Master() page.LSN { return page.LSN(m.master.Load()) }

// Read decodes the record starting at lsn into a fresh Record whose
// payload is an independent copy, safe to retain indefinitely. Each call
// charges one random log I/O, matching the paper's cost accounting for
// single-page recovery ("dozens of I/Os in order to read the required log
// records", §6).
func (m *Manager) Read(lsn page.LSN) (*Record, error) {
	rec := new(Record)
	if err := m.readRecord(lsn, rec); err != nil {
		return nil, err
	}
	return rec, nil
}

// readRecord is Read into rec: from the live log, or from the archive for
// a record recycled out of it.
func (m *Manager) readRecord(lsn page.LSN, rec *Record) error {
	size, err := m.decodeAt(lsn, rec, true)
	if err == nil {
		m.clock.Random(int64(size))
		m.stats.recordsRead.Add(1)
		return nil
	}
	if errors.Is(err, ErrTruncated) {
		if ar := m.archiveReader(); ar != nil {
			arec, aerr := ar.ReadRecord(lsn)
			if aerr != nil {
				return fmt.Errorf("wal: archived record %d: %w", lsn, aerr)
			}
			*rec = *arec
			m.stats.archiveReads.Add(1)
			m.stats.recordsRead.Add(1)
			return nil
		}
	}
	return err
}

// decodeAt decodes the record at lsn into rec and returns its encoded
// size. It loads the chunk table once: a Recycle that swaps it meanwhile
// leaves this view's chunks intact.
func (m *Manager) decodeAt(lsn page.LSN, rec *Record, copyPayload bool) (int, error) {
	ready := m.ready.Load()
	p := int64(lsn)
	if lsn < firstLSN || p+headerSize+trailerSize > ready {
		return 0, fmt.Errorf("%w: %d", ErrBadLSN, lsn)
	}
	t := m.table()
	if p < m.base.Load() || p < t.start() {
		return 0, fmt.Errorf("%w: %d", ErrTruncated, lsn)
	}
	total := lengthAt(t, p)
	if total < headerSize+trailerSize || p+total > ready {
		return 0, fmt.Errorf("%w: at %d", ErrTornRecord, lsn)
	}
	size, err := DecodeRecordInto(lsn, bytesAt(t, p, total), rec)
	if err == nil && copyPayload {
		rec.Payload = append([]byte(nil), rec.Payload...)
	}
	return size, err
}

// Scan iterates records in LSN order starting at from (use FirstLSN for the
// whole log), invoking fn for each until the end of the log or fn returns
// false. The pass is charged as sequential I/O, matching the efficient log
// analysis pass of §5.1.2.
//
// Scan is zero-copy: one Record is reused across invocations and its
// Payload aliases the log's internal buffer, whose bytes are never written
// again. Callbacks may read and append to the log; those that retain the
// record or its payload beyond their own return must copy them (every
// in-tree consumer — analysis, redo, the mirror — already copies what it
// keeps).
//
// Scan reads the live log only: a scan that starts below the recycling
// boundary, or that a Recycle overtakes between two records, returns
// ErrTruncated. Every in-tree scan starts at or above it — analysis and
// redo at the master checkpoint, which recycling never passes; the
// archiver at its own cursor, with recycling serialized behind it.
func (m *Manager) Scan(from page.LSN, fn func(*Record) bool) error {
	if from < firstLSN {
		from = firstLSN
	}
	pos := int64(from)
	var rec Record
	for pos < m.ready.Load() {
		size, err := m.decodeAt(page.LSN(pos), &rec, false)
		if err != nil {
			return err
		}
		m.clock.Sequential(int64(size))
		m.stats.recordsRead.Add(1)
		if !fn(&rec) {
			return nil
		}
		pos += int64(size)
	}
	return nil
}

// FirstLSN returns the LSN of the first record position in any log.
func FirstLSN() page.LSN { return firstLSN }

// RecordSize returns the encoded size of rec in the log, so that
// rec.LSN + RecordSize(rec) is the next record's LSN.
func RecordSize(rec *Record) int {
	return headerSize + len(rec.Payload) + trailerSize
}

// WalkPageChain follows the per-page log chain backwards from the record at
// start until (and excluding) records at or below stopAfter, returning the
// records encountered in reverse chronological order (newest first). Every
// record on the chain must name pageID; a mismatch indicates a broken chain
// and yields ErrChainBroken.
//
// This is the heart of single-page recovery (§5.2.3): the caller pushes the
// returned records onto a LIFO stack (the returned order already is that
// stack) and then applies redo from oldest to newest. The chain may be
// retained and applied after the walk, read-only: a live record owns a copy
// of its payload, and an archived one aliases its run, which nothing writes
// again.
func (m *Manager) WalkPageChain(start page.LSN, stopAfter page.LSN, pageID page.ID) ([]*Record, error) {
	var chain []*Record
	lsn := start
	for lsn != page.ZeroLSN && lsn > stopAfter {
		if int64(lsn) < m.base.Load() {
			// The rest of the chain was recycled out of the live log: the
			// archive serves it as one sequential scan of the page's sorted
			// run partitions instead of a seek per record.
			ar := m.archiveReader()
			if ar == nil {
				return nil, fmt.Errorf("walking chain for page %d: %w: %d", pageID, ErrTruncated, lsn)
			}
			rest, err := ar.WalkChain(lsn, stopAfter, pageID)
			if err != nil {
				return nil, fmt.Errorf("walking archived chain for page %d: %w", pageID, err)
			}
			m.stats.archiveReads.Add(int64(len(rest)))
			m.stats.recordsRead.Add(int64(len(rest)))
			return append(chain, rest...), nil
		}
		rec := new(Record)
		if err := m.readRecord(lsn, rec); err != nil {
			return nil, fmt.Errorf("walking chain for page %d: %w", pageID, err)
		}
		if rec.PageID != pageID {
			return nil, fmt.Errorf("%w: record at %d names page %d, want %d",
				ErrChainBroken, lsn, rec.PageID, pageID)
		}
		chain = append(chain, rec)
		lsn = rec.PagePrevLSN
	}
	return chain, nil
}

// TailSize returns the number of unflushed bytes (volatile tail length).
// flushed is loaded first so a concurrent append+flush between the two
// loads can only enlarge the result, never drive it negative.
func (m *Manager) TailSize() int {
	f := m.flushed.Load()
	return int(m.ready.Load() - f)
}

// Size returns the total log length in bytes including the volatile tail.
func (m *Manager) Size() int { return int(m.ready.Load()) }
