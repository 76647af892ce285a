package archive

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/clock"
	"repro/internal/page"
	"repro/internal/wal"
)

// Config tunes the Archiver.
type Config struct {
	// SegmentBytes is the run granularity: a run is sealed and written
	// once at least this many flushed-but-unarchived bytes accumulate
	// (default 256 KiB).
	SegmentBytes int64
	// ReleaseFloor, when set, further clamps the release horizon: the
	// engine supplies min(oldest active transaction begin LSN, oldest
	// format record serving as a page's backup), so undo chains and those
	// records stay readable — in the archive, or in the live log when
	// there is no archive — as long as anything can need them.
	ReleaseFloor func() page.LSN
	// RedoOnly strips an update's undo information (the engine's op codec:
	// the archive names no opcode) — a user update's old value, as system
	// transactions log their redo alone. Runs store a committed
	// transaction's updates through it; nil keeps every update whole.
	RedoOnly func(op []byte) []byte
	// Logf receives the graceful-degradation log lines (archive
	// unavailable / recovered). Nil is silent.
	Logf func(format string, args ...any)
	// Clock paces the background loop; nil is the wall clock.
	Clock *clock.Clock
}

// interval is the background loop's cadence: one Step(false) per tick.
const interval = 25 * time.Millisecond

// Archiver is the one owner of log truncation. Recovery reads old history
// from three starting points only — restart from the checkpoint redo
// horizon, single-page and media recovery from each page's backup, rollback
// from an active transaction's begin — so history below all three is never
// read again. The rule it owns:
//
//	release  = min(backup horizon, release floor)
//	recycle  < min(checkpoint horizon, archived horizon, flushed)   with a store
//	recycle  < min(checkpoint horizon, release, flushed)            without one
//
// With a store, the archiver drains flushed history into archive runs,
// recycles live segments the checkpoint horizon AND the archive both
// cover, and releases archived runs below the release horizon; unarchived
// history is never truncated. Without one, the history between the two
// horizons has nowhere to go, so the live log keeps it and recycles only
// what no recovery can reach.
type Archiver struct {
	log   *wal.Manager
	store *Store // nil: no archive
	cfg   Config

	ckptH   atomic.Int64
	backupH atomic.Int64
	paused  atomic.Bool

	stepMu  sync.Mutex // serializes steps (background loop + manual)
	quit    chan struct{}
	loops   sync.WaitGroup
	stopped sync.Once
}

// New creates an Archiver over log and store; store may be nil, for a log
// with no archive. Call Start to run the background loop and Stop to join
// it.
func New(log *wal.Manager, store *Store, cfg Config) *Archiver {
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = 256 << 10
	}
	return &Archiver{
		log:   log,
		store: store,
		cfg:   cfg,
		quit:  make(chan struct{}),
	}
}

// SetCheckpointHorizon records the newest checkpoint redo horizon: every
// page's redo history at the last complete checkpoint starts at or above
// it, so no restart reads live history below it. Monotone.
func (a *Archiver) SetCheckpointHorizon(lsn page.LSN) { storeMax(&a.ckptH, lsn) }

// SetBackupHorizon records the log position the newest complete backup set
// is as of, once the page recovery index durably names it: no chain replay
// that starts from it (or from a newer backup) reads below it, so history
// below it and below the release floor can be dropped. Monotone.
func (a *Archiver) SetBackupHorizon(lsn page.LSN) { storeMax(&a.backupH, lsn) }

func storeMax(p *atomic.Int64, lsn page.LSN) {
	for {
		cur := p.Load()
		if int64(lsn) <= cur || p.CompareAndSwap(cur, int64(lsn)) {
			return
		}
	}
}

// Paused reports whether the archive device is unavailable and recycling
// is therefore suspended (the live log grows until it recovers). Never
// without a store.
func (a *Archiver) Paused() bool { return a.paused.Load() }

// Stats returns the store's counters (zero without a store) with the
// archiver's pause gauge folded in.
func (a *Archiver) Stats() Stats {
	var st Stats
	if a.store != nil {
		st = a.store.Stats()
	}
	st.Paused = a.paused.Load()
	return st
}

// Start launches the background loop: one Step(false) every interval of
// the configured clock. A horizon a checkpoint or backup advances is acted
// on at the next tick.
func (a *Archiver) Start() {
	a.cfg.Clock.Go(interval, a.quit, &a.loops, func(time.Time) { _ = a.Step(false) })
}

// Stop joins the background loop, if one was started. Idempotent.
func (a *Archiver) Stop() {
	a.stopped.Do(func() { close(a.quit) })
	a.loops.Wait()
}

// Step runs one lifecycle pass: archive every full segment of flushed
// history (force archives any flushed remainder, segment-full or not),
// then recycle and release up to the current horizons. A persistent
// archive fault pauses the lifecycle (recycling included) and returns
// ErrArchiveIO; the next step retries from the same cursor — the archive
// commit is atomic and the cursor only advances on success, which is what
// makes a crash or fault between archive-write and recycle harmless.
// Without a store a step only recycles.
func (a *Archiver) Step(force bool) error {
	a.stepMu.Lock()
	defer a.stepMu.Unlock()
	if a.store == nil {
		// No archive to fall back to: the live log is the only copy, so it
		// keeps everything above either horizon.
		upTo := min(page.LSN(a.ckptH.Load()), page.LSN(a.backupH.Load()))
		if h := a.release(upTo, a.log.TruncatedLSN()); h > a.log.TruncatedLSN() {
			a.log.Recycle(h)
		}
		return nil
	}
	if err := a.drain(force); err != nil {
		return err
	}
	if a.paused.Load() {
		return nil
	}
	// Recycle: live history must be BOTH checkpoint-covered (no restart
	// pass reads below the checkpoint redo horizon from the live log) AND
	// durably archived (chain replays below it fall back to the archive).
	horizon := min(page.LSN(a.ckptH.Load()), a.store.ArchivedUpTo())
	if horizon > a.log.TruncatedLSN() {
		a.log.Recycle(horizon)
	}
	// Release: archived history below the backup horizon is reachable by
	// no chain replay (every page's replay floor is at or above its
	// newest backup image), except through the engine-supplied floors —
	// active-transaction undo and log-backed backup references.
	if rel := a.release(page.LSN(a.backupH.Load()), a.store.Released()); rel > a.store.Released() {
		a.store.ReleaseBelow(rel)
	}
	return nil
}

// release clamps upTo by the release floor. The floor walks engine state,
// so it is consulted only when upTo would move the boundary past done.
func (a *Archiver) release(upTo, done page.LSN) page.LSN {
	if upTo <= done || a.cfg.ReleaseFloor == nil {
		return upTo
	}
	return min(upTo, a.cfg.ReleaseFloor())
}

// drain archives flushed history into runs: every full segment, and with
// force any flushed remainder.
func (a *Archiver) drain(force bool) error {
	for {
		cursor := a.store.ArchivedUpTo()
		flushed := a.log.FlushedLSN()
		if int64(flushed)-int64(cursor) < a.cfg.SegmentBytes && !(force && flushed > cursor) {
			break
		}
		// Crash point: a run boundary is chosen but nothing written.
		chaos.At("wal.archive.seal")
		recs, err := a.collect(cursor, flushed)
		if err != nil {
			return fmt.Errorf("archiver: collecting run at %d: %w", cursor, err)
		}
		if len(recs) == 0 {
			break
		}
		// Crash point: the run is assembled and about to be written — a
		// crash (or fault) here leaves the cursor behind the live log, and
		// the records are simply re-collected and re-archived next time.
		chaos.At("wal.archive.write")
		err = a.store.retry(func() error { return a.store.AppendRun(recs, a.cfg.RedoOnly) })
		if err != nil {
			a.degrade(err)
			return err
		}
		a.recovered()
	}
	return nil
}

// collect gathers up to one segment's worth of records from the live log
// starting at cursor, stopping at the flushed boundary. Only the Record
// Scan reuses is copied, into one slab for the batch: each payload aliases
// flushed log bytes, which are never written again, and AppendRun encodes
// what it keeps into the run.
func (a *Archiver) collect(cursor, flushed page.LSN) ([]*wal.Record, error) {
	var slab []wal.Record
	var size int64
	err := a.log.Scan(cursor, func(r *wal.Record) bool {
		if r.LSN >= flushed {
			return false
		}
		slab = append(slab, *r)
		size += int64(wal.RecordSize(r))
		return size < a.cfg.SegmentBytes
	})
	if err != nil {
		return nil, err
	}
	recs := make([]*wal.Record, len(slab))
	for i := range slab {
		recs[i] = &slab[i]
	}
	return recs, nil
}

// retryAttempts bounds the tries of one archive write or read: a faulted
// operation is retried at once, as the buffer pool re-reads a failed
// device read — a wait would cost a millisecond or more (the runtime
// rounds a short sleep up) and buy nothing the next try does not. After
// the last try a write fault pauses recycling until the device recovers
// (the next step retries from the same cursor), and a read fault fails the
// page repair that needed the record.
const retryAttempts = 5

// retry runs op until it succeeds or fails other than with ErrArchiveIO,
// at most retryAttempts times.
func (s *Store) retry(op func() error) error {
	var err error
	for i := 0; i < retryAttempts; i++ {
		if err = op(); !errors.Is(err, ErrArchiveIO) {
			return err
		}
		if i < retryAttempts-1 {
			s.retries.Add(1)
		}
	}
	return err
}

// degrade flips the pause gauge on and logs once per outage.
func (a *Archiver) degrade(err error) {
	if !a.paused.Swap(true) && a.cfg.Logf != nil {
		a.cfg.Logf("wal archive unavailable (%v): segment recycling paused, live log growing until it recovers", err)
	}
}

// recovered flips the pause gauge off after a successful write.
func (a *Archiver) recovered() {
	if a.paused.Swap(false) && a.cfg.Logf != nil {
		a.cfg.Logf("wal archive recovered: segment recycling resumed")
	}
}

// Reader wraps a Store with bounded retry and implements
// wal.ArchiveReader — the read-side graceful degradation: a transient
// archive fault costs a retry, not a failed page repair.
type Reader struct {
	s *Store
}

// NewReader returns a retrying reader over s: retryAttempts tries, each
// at once.
func (s *Store) NewReader() *Reader { return &Reader{s: s} }

// ReadRecord implements wal.ArchiveReader.
func (r *Reader) ReadRecord(lsn page.LSN) (rec *wal.Record, err error) {
	err = r.s.retry(func() (e error) { rec, e = r.s.ReadRecord(lsn); return e })
	return rec, err
}

// WalkChain implements wal.ArchiveReader.
func (r *Reader) WalkChain(start, stopAfter page.LSN, pageID page.ID) (chain []*wal.Record, err error) {
	err = r.s.retry(func() (e error) { chain, e = r.s.WalkChain(start, stopAfter, pageID); return e })
	return chain, err
}
