// Package archive implements the sorted, page-partitioned log archive
// that bounds the live log (ROADMAP item 2; "Instant restore after a
// media failure", Sauer et al.).
//
// The live WAL keeps only recent history; everything older is drained
// into immutable runs. Each run covers a contiguous LSN range, stores the
// records physically partitioned and sorted by (pageID, LSN), and carries
// an index block of per-page spans — so a per-page chain replay reads one
// sequential span instead of paying a seek per record, which is the whole
// point of archiving for single-page recovery and media restore.
//
// The archive is a redo store: a run keeps only what recovery reads from
// old history — per-page chain records, and the page images the log holds
// as backups — and an update whose transaction committed within the same collected batch is
// kept redo-only (its undo information stripped by an engine hook). Commit,
// abort, PRI and checkpoint records are dropped: analysis, their only
// reader, starts at the master checkpoint, which recycling never passes.
//
// The Store is the device model: writes and reads charge the simulated
// I/O clock and honor injected faults (FailWrites/FailReads), mirroring
// internal/storage's fault style. Reader wraps the store with bounded
// retry + backoff and implements wal.ArchiveReader; the Archiver
// (archiver.go) owns the write-side policy and all log truncation, with a
// store or without one.
package archive

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/iosim"
	"repro/internal/page"
	"repro/internal/wal"
)

// Errors returned by archive operations.
var (
	// ErrArchiveIO is a simulated archive device fault (transient unless
	// armed sticky). The Reader and the Archiver retry it with backoff.
	ErrArchiveIO = errors.New("archive: simulated device fault")
	// ErrNotArchived reports an LSN outside every archived run.
	ErrNotArchived = errors.New("archive: record not archived")
	// ErrNotContiguous reports an AppendRun that would leave an LSN gap.
	ErrNotContiguous = errors.New("archive: run not contiguous with archived history")
	// ErrReleased reports a read below the release low-water mark: that
	// history was dropped because no recovery path can need it anymore.
	ErrReleased = errors.New("archive: history released")
)

// Stats is a snapshot of archive activity.
type Stats struct {
	// Currently retained.
	Runs    int64
	Records int64
	Bytes   int64
	// Cumulative.
	RunsWritten     int64
	RecordsArchived int64
	BytesArchived   int64
	// RecordsDropped counts collected records no recovery reads from the
	// archive (commit, abort, PRI, checkpoint), left out of every run;
	// UndoBytesStripped the undo information cut from committed updates.
	RecordsDropped    int64
	UndoBytesStripped int64
	ReleasedRuns      int64
	ReleasedBytes     int64
	Reads             int64 // records served to readers
	WriteFaults       int64
	ReadFaults        int64
	Retries           int64 // faulted operations retried by readers/archiver
	// ArchivedLSN is the exclusive upper bound of archived history;
	// ReleasedLSN the exclusive bound of dropped history.
	ArchivedLSN page.LSN
	ReleasedLSN page.LSN
	// Paused is set (by the archiver) while the archive device is
	// unavailable and recycling is therefore suspended.
	Paused bool
}

// entry locates one record inside a run's page-partitioned data block.
type entry struct {
	lsn  page.LSN
	pg   page.ID
	prev page.LSN // PagePrevLSN, for chain walks without a decode
	off  int32
	size int32
}

// pageSpan is one index-block entry: the contiguous slice of a run's
// entries (and data bytes) belonging to one page.
type pageSpan struct {
	pg           page.ID
	start, count int32
}

// Run is one immutable archived segment: the chain records of LSNs
// [lo, hi), physically laid out in (pageID, LSN) order with a per-page
// index block, plus an LSN-order permutation for point lookups.
type Run struct {
	lo, hi page.LSN
	data   []byte
	byPage []entry
	pages  []pageSpan // index block, sorted by pageID
	lsnIdx []int32    // indices into byPage, ascending LSN
}

// Store is the archive device: a set of contiguous sorted runs. Safe for
// concurrent use.
type Store struct {
	clock *iosim.Clock

	mu       sync.RWMutex
	runs     []*Run
	upTo     page.LSN // next LSN to archive (== runs[last].hi)
	released page.LSN // exclusive bound of dropped history
	records  int64
	bytes    int64
	// committed is AppendRun's scratch: per transaction, whether its newest
	// end record seen so far (walking the batch backwards) is a commit.
	committed map[wal.TxnID]bool

	// Fault injection: counts of upcoming operations to fail (-1 = every
	// operation until cleared), in internal/storage's injected style.
	failW atomic.Int32
	failR atomic.Int32

	runsWritten   atomic.Int64
	recsArchived  atomic.Int64
	bytesArchived atomic.Int64
	recsDropped   atomic.Int64
	undoStripped  atomic.Int64
	releasedRuns  atomic.Int64
	releasedBytes atomic.Int64
	reads         atomic.Int64
	writeFaults   atomic.Int64
	readFaults    atomic.Int64
	retries       atomic.Int64
}

// NewStore creates an empty archive whose history begins at start
// (wal.FirstLSN() for a log archived from birth), charging I/O against
// profile.
func NewStore(profile iosim.Profile, start page.LSN) *Store {
	return &Store{
		clock:     iosim.NewClock(profile),
		upTo:      start,
		released:  start,
		committed: make(map[wal.TxnID]bool),
	}
}

// Clock returns the archive device's simulated-time clock.
func (s *Store) Clock() *iosim.Clock { return s.clock }

// ArchivedUpTo returns the exclusive upper bound of durably archived
// history: the next run must begin exactly here.
func (s *Store) ArchivedUpTo() page.LSN {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.upTo
}

// Released returns the exclusive bound of history dropped by ReleaseBelow.
func (s *Store) Released() page.LSN {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.released
}

// FailWrites arms the next n run writes to fail with ErrArchiveIO
// (n < 0: every write until FailWrites(0)).
func (s *Store) FailWrites(n int) { s.failW.Store(int32(n)) }

// FailReads arms the next n read operations to fail with ErrArchiveIO
// (n < 0: every read until FailReads(0)).
func (s *Store) FailReads(n int) { s.failR.Store(int32(n)) }

// consume takes one armed fault, if any.
func consume(f *atomic.Int32) bool {
	for {
		v := f.Load()
		if v == 0 {
			return false
		}
		if v < 0 {
			return true
		}
		if f.CompareAndSwap(v, v-1) {
			return true
		}
	}
}

// chainRecord reports whether recovery can read a record of type t from
// the archive: the per-page chain (updates, CLRs and format records —
// WalkChain, a rollback's wal.Read of its own updates, and a format record
// serving as a page's backup) and page images, read as backups. An image
// is on no chain: WalkChain follows the records' prev links, which pass it
// by.
func chainRecord(t wal.RecType) bool {
	switch t {
	case wal.TypeUpdate, wal.TypeCLR, wal.TypeFormat, wal.TypeImage:
		return true
	}
	return false
}

// kept is one record AppendRun stores, with the payload it stores.
type kept struct {
	rec     *wal.Record
	payload []byte
}

// AppendRun archives recs — records in ascending LSN order continuing
// exactly at ArchivedUpTo — as one sorted, page-partitioned run covering
// their whole LSN range. Only chain records are stored; a batch without
// one still advances ArchivedUpTo. An update whose transaction's commit or
// sys-commit follows it in recs — flushed, since the archiver collects
// only flushed history — is stored as redoOnly(payload): no rollback can
// reach it any more. nil keeps every payload whole.
//
// Records below the archived horizon are skipped, which makes re-archiving
// after a crash between archive-write and recycle idempotent: the caller
// simply re-reads from its (stale) cursor and the overlap is dropped here.
// The commit of the run is atomic under the store lock: a crash can only
// ever observe the horizon before or after the whole run.
func (s *Store) AppendRun(recs []*wal.Record, redoOnly func(op []byte) []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(recs) > 0 && recs[0].LSN < s.upTo {
		recs = recs[1:]
	}
	if len(recs) == 0 {
		return nil
	}
	if recs[0].LSN != s.upTo {
		return fmt.Errorf("%w: run starts at %d, archived up to %d",
			ErrNotContiguous, recs[0].LSN, s.upTo)
	}
	if consume(&s.failW) {
		s.writeFaults.Add(1)
		return ErrArchiveIO
	}
	last := recs[len(recs)-1]
	hi := last.LSN + page.LSN(wal.RecordSize(last))

	// Walk the batch backwards so each update meets the newest end record
	// of its transaction that follows it. A transaction id is reused only
	// after its previous holder ended (a restart's losers keep theirs until
	// their abort), so that end record is this transaction's.
	keep := make([]kept, 0, len(recs))
	var size int
	var stripped int64
	clear(s.committed)
	for i := len(recs) - 1; i >= 0; i-- {
		rec := recs[i]
		switch {
		case rec.Type == wal.TypeCommit || rec.Type == wal.TypeSysCommit:
			s.committed[rec.Txn] = true
		case rec.Type == wal.TypeAbort:
			s.committed[rec.Txn] = false
		case chainRecord(rec.Type):
			k := kept{rec: rec, payload: rec.Payload}
			if rec.Type == wal.TypeUpdate && redoOnly != nil && s.committed[rec.Txn] {
				k.payload = redoOnly(rec.Payload)
				stripped += int64(len(rec.Payload) - len(k.payload))
			}
			keep = append(keep, k)
			size += wal.RecordSize(rec) - len(rec.Payload) + len(k.payload)
		}
	}
	s.recsDropped.Add(int64(len(recs) - len(keep)))
	s.undoStripped.Add(stripped)
	if len(keep) == 0 {
		s.upTo = hi
		return nil
	}
	slices.Reverse(keep)

	// Partition: sort by (page, LSN), lay the data out in that order so one
	// page's history is physically contiguous, and keep the LSN-order
	// permutation for point lookups.
	order := make([]int32, len(keep))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		ra, rb := keep[a].rec, keep[b].rec
		if ra.PageID != rb.PageID {
			return cmp.Compare(ra.PageID, rb.PageID)
		}
		return cmp.Compare(ra.LSN, rb.LSN)
	})
	run := &Run{
		lo:     recs[0].LSN,
		hi:     hi,
		data:   make([]byte, 0, size),
		byPage: make([]entry, 0, len(keep)),
		lsnIdx: make([]int32, len(keep)),
	}
	for bi, i := range order {
		rec := *keep[i].rec
		rec.Payload = keep[i].payload
		off := len(run.data)
		run.data = wal.AppendRecord(run.data, &rec)
		if n := len(run.pages); n == 0 || run.pages[n-1].pg != rec.PageID {
			run.pages = append(run.pages, pageSpan{pg: rec.PageID, start: int32(bi)})
		}
		run.pages[len(run.pages)-1].count++
		run.byPage = append(run.byPage, entry{
			lsn:  rec.LSN,
			pg:   rec.PageID,
			prev: rec.PagePrevLSN,
			off:  int32(off),
			size: int32(len(run.data) - off),
		})
		run.lsnIdx[i] = int32(bi)
	}
	s.clock.Sequential(int64(len(run.data)))

	s.runs = append(s.runs, run)
	s.upTo = hi
	s.records += int64(len(keep))
	s.bytes += int64(len(run.data))
	s.runsWritten.Add(1)
	s.recsArchived.Add(int64(len(keep)))
	s.bytesArchived.Add(int64(len(run.data)))
	return nil
}

// runFor returns the run containing lsn, or nil. Caller holds mu.
func (s *Store) runFor(lsn page.LSN) *Run {
	i := sort.Search(len(s.runs), func(i int) bool { return s.runs[i].hi > lsn })
	if i < len(s.runs) && s.runs[i].lo <= lsn {
		return s.runs[i]
	}
	return nil
}

// span returns the run's index-block span for pg, or false.
func (r *Run) span(pg page.ID) (pageSpan, bool) {
	i := sort.Search(len(r.pages), func(i int) bool { return r.pages[i].pg >= pg })
	if i < len(r.pages) && r.pages[i].pg == pg {
		return r.pages[i], true
	}
	return pageSpan{}, false
}

// find returns the position of lsn within the span's entries, or false.
func (r *Run) find(sp pageSpan, lsn page.LSN) (int, bool) {
	ents := r.byPage[sp.start : sp.start+sp.count]
	i := sort.Search(len(ents), func(i int) bool { return ents[i].lsn >= lsn })
	if i < len(ents) && ents[i].lsn == lsn {
		return i, true
	}
	return 0, false
}

// decode parses the record at e into rec, verifying its checksum. The
// payload aliases the run's data, which nothing writes once AppendRun has
// returned: ReleaseBelow drops the run from the store, not its bytes from a
// reader still holding them.
func (r *Run) decode(e entry, rec *wal.Record) error {
	_, err := wal.DecodeRecordInto(e.lsn, r.data[e.off:e.off+e.size], rec)
	return err
}

// ReadRecord returns an independent copy of the archived record at lsn,
// charging one random archive I/O (a point lookup, not a run scan). A
// record AppendRun did not keep is ErrNotArchived.
func (s *Store) ReadRecord(lsn page.LSN) (*wal.Record, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if lsn < s.released {
		return nil, fmt.Errorf("%w: %d", ErrReleased, lsn)
	}
	run := s.runFor(lsn)
	if run == nil {
		return nil, fmt.Errorf("%w: %d", ErrNotArchived, lsn)
	}
	if consume(&s.failR) {
		s.readFaults.Add(1)
		return nil, ErrArchiveIO
	}
	// The LSN permutation finds the entry without knowing the page.
	idx := run.lsnIdx
	i := sort.Search(len(idx), func(i int) bool { return run.byPage[idx[i]].lsn >= lsn })
	if i >= len(idx) || run.byPage[idx[i]].lsn != lsn {
		return nil, fmt.Errorf("%w: %d", ErrNotArchived, lsn)
	}
	e := run.byPage[idx[i]]
	rec := new(wal.Record)
	if err := run.decode(e, rec); err != nil {
		return nil, err
	}
	rec.Payload = append([]byte(nil), rec.Payload...)
	s.clock.Random(int64(e.size))
	s.reads.Add(1)
	return rec, nil
}

// WalkChain follows the per-page chain backwards from start until (and
// excluding) records at or below stopAfter, newest first. Because each
// run stores a page's records contiguously, the walk is charged as
// sequential I/O — the archived replay is a run scan, not a seek chain.
// Each record is decoded in place, its checksum verified: the records of
// one run span share one allocation, and their payloads alias the run's
// immutable data, so a caller must not write through them.
func (s *Store) WalkChain(start, stopAfter page.LSN, pageID page.ID) ([]*wal.Record, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if consume(&s.failR) {
		s.readFaults.Add(1)
		return nil, ErrArchiveIO
	}
	var chain []*wal.Record
	lsn := start
	for lsn != page.ZeroLSN && lsn > stopAfter {
		if lsn < s.released {
			return nil, fmt.Errorf("%w: chain for page %d descends to %d", ErrReleased, pageID, lsn)
		}
		run := s.runFor(lsn)
		if run == nil {
			return nil, fmt.Errorf("%w: chain for page %d at %d", ErrNotArchived, pageID, lsn)
		}
		sp, ok := run.span(pageID)
		if !ok {
			return nil, fmt.Errorf("%w: page %d has no records in run [%d,%d)",
				wal.ErrChainBroken, pageID, run.lo, run.hi)
		}
		i, ok := run.find(sp, lsn)
		if !ok {
			return nil, fmt.Errorf("%w: page %d chain names %d, not in its run span",
				wal.ErrChainBroken, pageID, lsn)
		}
		// The span holds the page's complete chain slice for this run's LSN
		// range, sorted by LSN — so the walk descends the span in place,
		// paying the index descent once per run rather than once per record.
		// The index's prev links say how far it descends before a record is
		// decoded; a prev that is not the entry below lives in an older run,
		// where the outer loop re-locates it.
		ents := run.byPage[sp.start : sp.start+sp.count]
		n := 1
		for j := i; j > 0 && ents[j].prev > stopAfter && ents[j-1].lsn == ents[j].prev; j-- {
			n++
		}
		slab := make([]wal.Record, n)
		for k := range slab {
			e := ents[i-k]
			if err := run.decode(e, &slab[k]); err != nil {
				return nil, err
			}
			s.clock.Sequential(int64(e.size))
			chain = append(chain, &slab[k])
		}
		s.reads.Add(int64(n))
		lsn = ents[i-n+1].prev
	}
	return chain, nil
}

// ReleaseBelow drops whole runs whose history lies entirely below lsn —
// archive garbage collection, driven by the archiver once the backup
// horizon (and the active-transaction / backup-reference floors) passed
// them. Returns the number of runs dropped.
func (s *Store) ReleaseBelow(lsn page.LSN) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	cut := 0
	for cut < len(s.runs) && s.runs[cut].hi <= lsn {
		run := s.runs[cut]
		s.records -= int64(len(run.byPage))
		s.bytes -= int64(len(run.data))
		s.releasedRuns.Add(1)
		s.releasedBytes.Add(int64(len(run.data)))
		if run.hi > s.released {
			s.released = run.hi
		}
		cut++
	}
	if cut == 0 {
		return 0
	}
	s.runs = append([]*Run(nil), s.runs[cut:]...)
	return cut
}

// Stats returns a snapshot of archive counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{
		Runs:              int64(len(s.runs)),
		Records:           s.records,
		Bytes:             s.bytes,
		RunsWritten:       s.runsWritten.Load(),
		RecordsArchived:   s.recsArchived.Load(),
		BytesArchived:     s.bytesArchived.Load(),
		RecordsDropped:    s.recsDropped.Load(),
		UndoBytesStripped: s.undoStripped.Load(),
		ReleasedRuns:      s.releasedRuns.Load(),
		ReleasedBytes:     s.releasedBytes.Load(),
		Reads:             s.reads.Load(),
		WriteFaults:       s.writeFaults.Load(),
		ReadFaults:        s.readFaults.Load(),
		Retries:           s.retries.Load(),
		ArchivedLSN:       s.upTo,
		ReleasedLSN:       s.released,
	}
}
