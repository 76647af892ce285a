package archive

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/page"
	"repro/internal/wal"
)

// Config tunes the Archiver.
type Config struct {
	// SegmentBytes is the run granularity: a run is sealed and written
	// once at least this many flushed-but-unarchived bytes accumulate
	// (default 256 KiB).
	SegmentBytes int64
	// Interval is the background poll cadence; <= 0 disables the loop and
	// leaves stepping to explicit Step calls (deterministic tests).
	Interval time.Duration
	// ReleaseFloor, when set, further clamps the release horizon: the
	// engine supplies min(oldest active transaction begin LSN, oldest
	// format record serving as a page's backup), so undo chains and those
	// records stay readable — in the archive, or in the live log when
	// there is no archive — as long as anything can need them.
	ReleaseFloor func() page.LSN
	// RedoOnly strips an update's undo information (the engine's op codec:
	// the archive names no opcode). Runs store a committed transaction's
	// updates through it; nil keeps every update whole.
	RedoOnly func(op []byte) []byte
	// Logf receives the graceful-degradation log lines (archive
	// unavailable / recovered). Nil is silent.
	Logf func(format string, args ...any)
}

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
	wake    chan struct{}
	quit    chan struct{}
	done    chan struct{}
	started bool
	stopped sync.Once
}

// New creates an Archiver over log and store; store may be nil, for a log
// with no archive. Call Start to run the background loop (when
// cfg.Interval > 0) and Stop to join it.
func New(log *wal.Manager, store *Store, cfg Config) *Archiver {
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = 256 << 10
	}
	return &Archiver{
		log:   log,
		store: store,
		cfg:   cfg,
		wake:  make(chan struct{}, 1),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
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

// Kick nudges the background loop to step soon (after a checkpoint or
// backup advanced a horizon). No-op without a running loop.
func (a *Archiver) Kick() {
	select {
	case a.wake <- struct{}{}:
	default:
	}
}

// Start launches the background loop when the configured interval is
// positive; otherwise stepping stays manual.
func (a *Archiver) Start() {
	if a.cfg.Interval <= 0 {
		return
	}
	a.started = true
	go a.loop()
}

// Stop joins the background loop (if any). Idempotent.
func (a *Archiver) Stop() {
	a.stopped.Do(func() { close(a.quit) })
	if a.started {
		<-a.done
	}
}

func (a *Archiver) loop() {
	defer close(a.done)
	t := time.NewTicker(a.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-a.quit:
			return
		case <-t.C:
		case <-a.wake:
		}
		_ = a.Step(false)
	}
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
		if err := a.appendWithRetry(recs); err != nil {
			a.degrade(err)
			return err
		}
		a.recovered()
	}
	return nil
}

// collect copies up to one segment's worth of records from the live log
// starting at cursor, stopping at the flushed boundary.
func (a *Archiver) collect(cursor, flushed page.LSN) ([]*wal.Record, error) {
	var recs []*wal.Record
	var size int64
	err := a.log.Scan(cursor, func(r *wal.Record) bool {
		if r.LSN >= flushed {
			return false
		}
		cp := *r
		cp.Payload = append([]byte(nil), r.Payload...)
		recs = append(recs, &cp)
		size += int64(wal.RecordSize(r))
		return size < a.cfg.SegmentBytes
	})
	if err != nil {
		return nil, err
	}
	return recs, nil
}

// writeBackoff and readBackoff are the first waits after an archive device
// fault, doubling per retry. Nominally: a sleep shorter than a millisecond
// lasts about a millisecond when the P is otherwise idle, because the
// runtime's netpoller rounds the wait up, so both really are ≥1ms and
// smaller values would change nothing. The archiver is a background
// goroutine, and no caller waits on its writes; a healthy archive read
// never waits. retryAttempts bounds the tries of one write or read: after
// it, a write fault pauses recycling until the device recovers, and a read
// fault fails the page repair that needed the record.
const (
	retryAttempts = 5
	writeBackoff  = 200 * time.Microsecond
	readBackoff   = 100 * time.Microsecond
)

// appendWithRetry writes one run with bounded retry + exponential backoff.
func (a *Archiver) appendWithRetry(recs []*wal.Record) error {
	delay := writeBackoff
	var err error
	for i := 0; i < retryAttempts; i++ {
		if err = a.store.AppendRun(recs, a.cfg.RedoOnly); !errors.Is(err, ErrArchiveIO) {
			return err
		}
		if i < retryAttempts-1 {
			a.store.retries.Add(1)
			time.Sleep(delay)
			delay *= 2
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

// Reader wraps a Store with bounded retry + backoff and implements
// wal.ArchiveReader — the read-side graceful degradation: a transient
// archive fault costs a retry, not a failed page repair.
type Reader struct {
	s *Store
}

// NewReader returns a retrying reader over s: retryAttempts tries, the
// wait after a fault readBackoff, doubling per retry.
func (s *Store) NewReader() *Reader { return &Reader{s: s} }

func (r *Reader) retry(op func() error) error {
	delay := readBackoff
	var err error
	for i := 0; i < retryAttempts; i++ {
		if err = op(); !errors.Is(err, ErrArchiveIO) {
			return err
		}
		if i < retryAttempts-1 {
			r.s.retries.Add(1)
			time.Sleep(delay)
			delay *= 2
		}
	}
	return err
}

// ReadRecord implements wal.ArchiveReader.
func (r *Reader) ReadRecord(lsn page.LSN) (*wal.Record, error) {
	var rec *wal.Record
	err := r.retry(func() (e error) {
		rec, e = r.s.ReadRecord(lsn)
		return e
	})
	return rec, err
}

// WalkChain implements wal.ArchiveReader.
func (r *Reader) WalkChain(start, stopAfter page.LSN, pageID page.ID) ([]*wal.Record, error) {
	var chain []*wal.Record
	err := r.retry(func() (e error) {
		chain, e = r.s.WalkChain(start, stopAfter, pageID)
		return e
	})
	return chain, err
}
