// Package maintenance runs the background work that keeps the engine
// healthy under load, turning the paper's recovery primitives into a
// continuously self-repairing system:
//
//   - asynchronous write-back: a flusher goroutine drains dirty pages from
//     the buffer pool in batches once the dirty count reaches a quarter of
//     the pool (the engine prods the service from its mark-dirty hook).
//     Pool pressure is its only trigger: below the watermark a dirty page
//     waits for eviction, the next checkpoint (which flushes the dirty
//     page table and so bounds redo), BackupNow or Close. The foreground
//     path stops paying synchronous write+log latency, and each batch
//     logs its page recovery index updates as one grouped WAL append
//     (wal.AppendBatch) instead of one append per page. A batch that
//     fails to write ends the drain; it is retried at the next mark-dirty
//     at or above the watermark, and until then the pages wait for the
//     same paths as pages below it;
//   - a continuous scrub campaign: an incremental cursor over the slots
//     the device has written (storage.Device.ScrubRange), at a fixed pace,
//     re-reads and verifies mapped slots, so latent single-page failures
//     are detected early — the paper cites scrubbing as the discoverer of
//     most latent sector errors (§1) — and every failure found is
//     immediately routed through the engine's single-page recovery path
//     while foreground traffic continues. A sweep starts at most once per
//     sweepPeriod, the first one a period after Start: a large database
//     is swept back to back, a small one once a period instead of on
//     every tick. Its ticks and the time come from Deps.Clock, the wall
//     clock unless a test steps a manual one.
//
// The service owns only goroutines, never durability: all write ordering
// (WAL before page, completed-write logging) lives in the buffer pool and
// the engine hooks. Stop quiesces deterministically — it joins every
// worker — so a simulated Crash can stop the service first and then
// truncate the log knowing no background append or device write is in
// flight, exactly as it quiesces foreground appenders.
package maintenance

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buffer"
	"repro/internal/clock"
	"repro/internal/page"
	"repro/internal/storage"
)

const (
	// flushBatchPages caps how many pages one flush batch writes, and
	// therefore how many PRI updates one grouped WAL append carries.
	flushBatchPages = 64
	// watermarkDivisor sets the dirty watermark at a quarter of the pool's
	// frames: the dirty count that wakes the flusher.
	watermarkDivisor = 4
	// scrubBatchPages slots are examined every scrubInterval: 2000
	// pages/s.
	scrubBatchPages = 64
	scrubInterval   = scrubBatchPages * time.Second / 2000
	// sweepPeriod is the least time between the starts of two sweeps, and
	// the time from Start to the first. A database of more than the
	// 20 000 slots the pace reads in a period is swept back to back;
	// without the floor, one of a few dozen pages would be read whole on
	// every tick. The first sweep waits a period too, so a database that
	// is reopened often (restart, media recovery) is not read whole at
	// every open.
	sweepPeriod = 10 * time.Second
)

// Deps wires the service to the engine. Pool is required for write-back;
// the scrub campaign runs only when Dev, MappedSlots, and Repair are all
// non-nil.
type Deps struct {
	// Pool is the buffer pool whose dirty pages the flusher drains.
	Pool *buffer.Pool
	// Dev is the data device the scrub cursor walks.
	Dev *storage.Device
	// MappedSlots snapshots the slot→logical-page mapping; the scrubber
	// uses it to skip free slots and to route a bad slot to the logical
	// page whose recovery repairs it. Called once per sweep — building the
	// snapshot costs O(pages), so paying it per 64-slot tick would dwarf
	// the scanning itself on large databases.
	MappedSlots func() map[storage.PhysID]page.ID
	// Repair routes one detected latent failure through single-page
	// recovery (evict any stale copy, then a validating re-read). A nil
	// error means the page was repaired (or the damage had already been
	// overwritten); an error counts as an escalation.
	Repair func(page.ID) error
	// Clock paces the scrub campaign; nil is the wall clock.
	Clock *clock.Clock
}

// Stats counts service activity. All fields are cumulative.
type Stats struct {
	// FlushBatches and PagesFlushed quantify write-back; PagesFlushed /
	// FlushBatches is the realized grouping factor of the batched PRI
	// appends.
	FlushBatches int64
	PagesFlushed int64
	FlushErrors  int64
	// ScrubTicks, PagesScrubbed, and Sweeps quantify campaign progress;
	// a Sweep is one complete pass over the device's written slots.
	// ScrubTicks counts every tick of the campaign, those that wait for
	// the next sweep to start included.
	ScrubTicks    int64
	PagesScrubbed int64
	Sweeps        int64
	// LatentFound counts bad slots detected; Repaired and Escalated split
	// them by repair outcome.
	LatentFound int64
	Repaired    int64
	Escalated   int64
}

type counters struct {
	flushBatches  atomic.Int64
	pagesFlushed  atomic.Int64
	flushErrors   atomic.Int64
	scrubTicks    atomic.Int64
	pagesScrubbed atomic.Int64
	sweeps        atomic.Int64
	latentFound   atomic.Int64
	repaired      atomic.Int64
	escalated     atomic.Int64
}

// Service is the background maintenance runner. Create with New, start
// with Start, stop with Stop (idempotent, joins every goroutine). A
// Service is single-use: after Stop it stays stopped; restart recovery
// builds a fresh one.
type Service struct {
	deps Deps
	high int // dirty-frame watermark, in frames

	kick chan struct{}
	quit chan struct{}
	stop sync.Once
	wg   sync.WaitGroup

	// cursor, mapped and nextSweep are owned by the scrub goroutine: the
	// incremental sweep position, the slot→page snapshot taken at the
	// start of the current sweep, and the earliest start of the next. A
	// snapshot can go stale within one sweep — a slot remapped mid-sweep
	// routes its repair to the old owner (a harmless validating re-read)
	// and newly mapped slots wait for the next sweep — which is the
	// standard scrubbing trade: coverage is per sweep, not per instant.
	cursor    storage.PhysID
	mapped    map[storage.PhysID]page.ID
	nextSweep time.Time
	stats     counters
}

// New builds a service.
func New(deps Deps) *Service {
	s := &Service{
		deps: deps,
		kick: make(chan struct{}, 1),
		quit: make(chan struct{}),
	}
	if deps.Pool != nil {
		s.high = max(1, deps.Pool.Capacity()/watermarkDivisor)
	}
	return s
}

// Start launches the flusher and, when fully wired, the scrub campaign.
// Call it at most once, and not beside Stop; after Stop it does nothing.
func (s *Service) Start() {
	select {
	case <-s.quit:
		return
	default:
	}
	if s.deps.Pool != nil {
		s.wg.Add(1)
		go s.flushLoop()
	}
	if s.deps.Dev != nil && s.deps.MappedSlots != nil && s.deps.Repair != nil {
		s.nextSweep = s.deps.Clock.Now().Add(sweepPeriod)
		s.deps.Clock.Go(scrubInterval, s.quit, &s.wg, s.scrubTick)
	}
}

// Stop quiesces the service: no new batches start, in-flight batch work
// (device writes plus the grouped PRI append) completes, and every worker
// goroutine is joined before Stop returns. Idempotent and safe to call
// concurrently.
func (s *Service) Stop() {
	s.stop.Do(func() { close(s.quit) })
	s.wg.Wait()
}

// NotifyDirty is the engine's watermark prod, called from the buffer
// pool's mark-dirty hook. It is cheap (one atomic load, one non-blocking
// channel send) and only wakes the flusher once the dirty count crosses
// the high watermark.
func (s *Service) NotifyDirty() {
	if s.deps.Pool == nil || s.deps.Pool.DirtyCount() < s.high {
		return
	}
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// Stats returns a snapshot of the service counters.
func (s *Service) Stats() Stats {
	return Stats{
		FlushBatches:  s.stats.flushBatches.Load(),
		PagesFlushed:  s.stats.pagesFlushed.Load(),
		FlushErrors:   s.stats.flushErrors.Load(),
		ScrubTicks:    s.stats.scrubTicks.Load(),
		PagesScrubbed: s.stats.pagesScrubbed.Load(),
		Sweeps:        s.stats.sweeps.Load(),
		LatentFound:   s.stats.latentFound.Load(),
		Repaired:      s.stats.repaired.Load(),
		Escalated:     s.stats.escalated.Load(),
	}
}

// flushLoop is the flusher: it sleeps until the watermark kick, then
// drains the pool in batches.
func (s *Service) flushLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.quit:
			return
		case <-s.kick:
		}
		s.drain()
	}
}

// drain writes back batches until the pool reports no dirty pages or the
// service is stopping.
func (s *Service) drain() {
	for {
		select {
		case <-s.quit:
			return
		default:
		}
		n, err := s.deps.Pool.FlushBatch(flushBatchPages)
		if n > 0 {
			s.stats.flushBatches.Add(1)
			s.stats.pagesFlushed.Add(int64(n))
		}
		if err != nil {
			s.stats.flushErrors.Add(1)
			return
		}
		if n == 0 {
			return
		}
	}
}

// scrubTick is the campaign's tick: it advances the cursor one batch and
// routes every failure it finds through the repair path. A tick that would start a sweep sooner
// than sweepPeriod after the previous one started does nothing.
func (s *Service) scrubTick(now time.Time) {
	s.stats.scrubTicks.Add(1)
	if s.cursor == 0 {
		if now.Before(s.nextSweep) {
			return
		}
		s.nextSweep = now.Add(sweepPeriod)
		s.mapped = s.deps.MappedSlots() // refresh once per sweep
	}
	t, next, wrapped := Scrub(s.deps.Dev, s.mapped, s.cursor, scrubBatchPages, s.deps.Repair)
	s.cursor = next
	s.stats.pagesScrubbed.Add(int64(t.Scanned))
	if wrapped {
		s.stats.sweeps.Add(1)
	}
	s.stats.latentFound.Add(int64(t.BadSlots))
	s.stats.repaired.Add(int64(t.Recovered))
	s.stats.escalated.Add(int64(t.Escalated))
}

// Tally is what one Scrub call found and repaired.
type Tally struct {
	// Scanned counts the mapped slots read and verified.
	Scanned int
	// BadSlots counts the slots that failed; Recovered and Escalated split
	// them by the outcome of their page's repair.
	BadSlots  int
	Recovered int
	Escalated int
}

// Scrub verifies up to n slot positions of dev from start, ending at the
// device's written extent (storage.Device.ScrubRange), skipping slots
// mapped does not name, and hands the page of every bad slot to repair,
// waiting for each outcome. It returns the tally, the cursor for
// the next call, and whether this call completed a sweep. The campaign's
// tick and spf.DB.Scrub's whole-device pass are both one call, differing
// only in their range.
func Scrub(dev *storage.Device, mapped map[storage.PhysID]page.ID, start storage.PhysID, n int,
	repair func(page.ID) error) (Tally, storage.PhysID, bool) {
	res, next, wrapped := dev.ScrubRange(start, n, func(slot storage.PhysID) bool {
		_, ok := mapped[slot]
		return !ok
	})
	t := Tally{Scanned: res.Scanned}
	for _, slot := range res.Failures() {
		t.BadSlots++
		if err := repair(mapped[slot]); err != nil {
			t.Escalated++
		} else {
			t.Recovered++
		}
	}
	return t, next, wrapped
}
