// Package restore implements the queue of background single-page repairs.
//
// A read that finds a bad page repairs it on its own goroutine (the buffer
// pool's one-loader-per-page miss path, paper Fig. 8 and §5.2.3) and never
// comes here. What comes here is repair work nobody is waiting to read:
// the latent failures an online scrub campaign surfaces, the redo
// backlog of an instant restart, every page of a replaced device after a
// media failure. Sauer, Graefe and Härder's instant restore needs only
// that a reader never queues behind such bulk work; since a reader does
// not queue at all, the queue has one class of entry:
//
//   - one ticket per page: a second request for a queued page joins the
//     ticket (it coalesces) and shares its future, so every requester
//     observes the one repair's outcome;
//   - cost order: callers that know how expensive a repair will be (a
//     recovery knows the log span each page's replay covers) enqueue with
//     that cost, and workers pop shorter replays first — shortest-job-first
//     shrinks the vulnerability window, since more pages leave the
//     unrecovered state per unit of repair work; equal costs are FIFO;
//   - a reader can get there first: when a read repairs a page whose ticket
//     is still queued, NoteForegroundRepair retires the ticket, so no
//     worker evicts and re-reads a page that is already healthy;
//   - worker goroutines drain the queue and are quiesced
//     deterministically: Stop joins every worker, letting an in-flight
//     repair finish, so the engine can stop the scheduler before
//     truncating the log exactly as it quiesces the maintenance service;
//   - congestion is retried, not dropped: a repair that fails because the
//     page is momentarily pinned (Deps.Busy classifies such errors) is
//     requeued with exponential backoff instead of being abandoned after
//     a retry budget — the page stays scheduled until it is repaired,
//     fails for real, or the scheduler stops.
//
// The scheduler owns only ordering and goroutines; what a repair *is*
// (evict, validating re-read, recovery, retiring a failed slot) stays in the engine's
// Deps.Repair callback.
package restore

import (
	"container/heap"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/page"
)

// ErrStopped reports that the scheduler was stopped (crash or shutdown)
// before the repair ran; the page remains unrepaired.
var ErrStopped = errors.New("restore: scheduler stopped before repair ran")

// A busy (pinned) repair is retried after retryBackoff, doubling per
// attempt up to maxRetryBackoff. A timer shorter than a millisecond does
// not fire sooner than one when the P is otherwise idle — the runtime's
// netpoller rounds the wait up — so a smaller first step would buy nothing.
const (
	retryBackoff    = time.Millisecond
	maxRetryBackoff = 50 * time.Millisecond
)

// A worker that has run parkEvery since it last waited parks for parkFor
// where the netpoller sees it (parker), so a reader whose socket is ready
// gets the CPU within about parkEvery of a drain's start. Parking after
// every repair instead moves the drain's CPU into the foreground's time
// and costs about a tenth of the throughput served during a media restore.
const (
	parkEvery = 200 * time.Microsecond
	parkFor   = 5 * time.Microsecond
)

// Config tunes a Scheduler.
type Config struct {
	// Workers is the number of repair worker goroutines (default 2).
	Workers int
}

// Deps wires the scheduler to the engine.
type Deps struct {
	// Repair performs one single-page repair end to end. A nil error
	// means the page is healthy again.
	Repair func(page.ID) error
	// Busy classifies transient congestion errors (e.g. the page is
	// pinned by concurrent readers and cannot be evicted this instant).
	// A busy failure is requeued with backoff instead of completing the
	// ticket. Nil means no error is retryable.
	Busy func(error) bool
}

// Stats counts scheduler activity. Cumulative except the two gauges.
type Stats struct {
	// Enqueued counts tickets created.
	Enqueued int64
	// Coalesced counts requests that joined an existing ticket instead of
	// creating one (the coalescing factor is Coalesced/Enqueued).
	Coalesced int64
	// UrgentRequests counts recoveries run by the read that found the page
	// bad — once per faulting fetch, never for a worker's own fetch.
	UrgentRequests int64
	// Promotions counts queued tickets retired because such a read had
	// repaired their page before a worker reached it.
	Promotions int64
	// Repaired counts tickets completed with their page healthy.
	Repaired int64
	// Failed counts tickets completed with an error, ErrStopped included.
	Failed int64
	// Requeues counts busy (pinned) retries of a ticket.
	Requeues int64
	// ReadRetries counts immediate re-reads of failed device reads (buffer
	// pool hook): one for a fault a re-read absorbs, the pool's
	// ReadRetries for a sticky one that is then repaired.
	ReadRetries int64
	// Pending is a gauge: tickets waiting in the queue or backing off.
	Pending int64
	// InFlight is a gauge: repairs a worker is executing.
	InFlight int64
}

type counters struct {
	enqueued    atomic.Int64
	coalesced   atomic.Int64
	urgent      atomic.Int64
	promotions  atomic.Int64
	repaired    atomic.Int64
	failed      atomic.Int64
	requeues    atomic.Int64
	readRetries atomic.Int64
}

// Future is the shared completion handle of one page's pending repair.
type Future struct {
	done chan struct{}
	err  error // written once before done closes
}

func newFuture() *Future { return &Future{done: make(chan struct{})} }

// Wait blocks until the repair completes and returns its outcome.
func (f *Future) Wait() error {
	<-f.done
	return f.err
}

// Done returns a channel closed when the repair completes.
func (f *Future) Done() <-chan struct{} { return f.done }

// Err returns the outcome; valid only after Done is closed.
func (f *Future) Err() error { return f.err }

// ticket states.
const (
	qReady   = iota // in the ready heap
	qDelayed        // backing off after a busy failure
	qRunning        // a worker is executing the repair
)

// ticket is one page's pending repair.
type ticket struct {
	id       page.ID
	cost     int64  // estimated repair cost (log span of the replay); 0 = unknown
	seq      uint64 // FIFO tiebreak among equal costs
	state    int
	idx      int // position in the ready heap (state == qReady)
	attempts int
	fut      *Future
}

// readyHeap orders runnable tickets by (cost asc, seq asc): shortest
// estimated repair first, then FIFO. A zero cost means "unknown" and sorts
// with the cheapest.
type readyHeap []*ticket

func (h readyHeap) Len() int { return len(h) }
func (h readyHeap) Less(i, j int) bool {
	if h[i].cost != h[j].cost {
		return h[i].cost < h[j].cost
	}
	return h[i].seq < h[j].seq
}
func (h readyHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *readyHeap) Push(x any) {
	t := x.(*ticket)
	t.idx = len(*h)
	*h = append(*h, t)
}
func (h *readyHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	t.idx = -1
	return t
}

// Scheduler is the cost-ordered repair queue. Safe for concurrent use.
type Scheduler struct {
	workers int
	deps    Deps

	mu       sync.Mutex
	cond     *sync.Cond
	tickets  map[page.ID]*ticket // every live ticket, any state
	ready    readyHeap
	seq      uint64
	inflight int
	started  bool
	stopped  bool
	wg       sync.WaitGroup
	stats    counters
}

// New builds a scheduler. Call Start to launch the workers.
func New(cfg Config, deps Deps) *Scheduler {
	s := &Scheduler{
		workers: cfg.Workers,
		deps:    deps,
		tickets: make(map[page.ID]*ticket),
	}
	if s.workers <= 0 {
		s.workers = 2
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Start launches the worker goroutines. Call exactly once.
func (s *Scheduler) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started || s.stopped {
		return
	}
	s.started = true
	for i := 0; i < s.workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// Stop quiesces the scheduler: every queued or backing-off ticket fails
// with ErrStopped (waking its waiters), in-flight repairs complete
// normally, and every worker goroutine is joined before Stop returns —
// so a caller may truncate the log immediately afterwards knowing no
// repair reads or appends are in flight. Idempotent and safe to call
// concurrently.
func (s *Scheduler) Stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		s.wg.Wait() // a concurrent Stop may still be joining
		return
	}
	s.stopped = true
	for _, t := range s.tickets {
		if t.state != qRunning { // a running ticket's worker completes it
			s.completeLocked(t, ErrStopped)
		}
	}
	s.ready = nil
	s.cond.Broadcast() // idle workers see stopped
	s.mu.Unlock()
	s.wg.Wait()
}

// completeLocked ends a ticket with its outcome and wakes everyone who may
// be waiting on it: its future's waiters, Drain, idle workers. Caller
// holds s.mu.
func (s *Scheduler) completeLocked(t *ticket, err error) {
	delete(s.tickets, t.id)
	if err != nil {
		s.stats.failed.Add(1)
	} else {
		s.stats.repaired.Add(1)
	}
	t.fut.err = err
	close(t.fut.done)
	s.cond.Broadcast()
}

// Enqueue schedules a repair of page id and returns the page's repair
// future. cost estimates the repair — typically the log span the page's
// replay covers, zero when unknown — and workers pop cheaper tickets first
// (shortest-job-first: the unrecovered-page count falls as fast as
// possible). If the page is already scheduled the existing ticket is
// shared (the request coalesces); it never raises the ticket's cost, and
// a lower nonzero estimate replaces an unknown or higher one. On a stopped
// scheduler the returned future is already failed with ErrStopped.
func (s *Scheduler) Enqueue(id page.ID, cost int64) *Future {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		f := newFuture()
		f.err = ErrStopped
		close(f.done)
		return f
	}
	if t, ok := s.tickets[id]; ok {
		s.stats.coalesced.Add(1)
		if cost > 0 && (t.cost == 0 || cost < t.cost) {
			t.cost = cost
			if t.state == qReady {
				heap.Fix(&s.ready, t.idx)
			}
		}
		return t.fut
	}
	t := &ticket{id: id, cost: cost, seq: s.seq, state: qReady, fut: newFuture()}
	s.seq++
	s.tickets[id] = t
	heap.Push(&s.ready, t)
	s.stats.enqueued.Add(1)
	s.cond.Broadcast()
	return t.fut
}

// NoteReadRetry counts one immediate re-read of a failed device read
// (wired to the buffer pool's OnReadRetry hook by the engine).
func (s *Scheduler) NoteReadRetry() {
	s.stats.readRetries.Add(1)
}

// NoteForegroundRepair records that single-page recovery of page id just
// ran on the goroutine of the fetch that loads the page (wired into the
// buffer pool's Recover hook by the engine). While a worker executes the
// page's ticket that fetch is the worker's own, or one the worker's fetch
// shares the load of, and the ticket accounts for it. Otherwise a read
// found the page bad and repaired it: an urgent request, and a ticket
// still queued for the page has nothing left to do and is retired.
func (s *Scheduler) NoteForegroundRepair(id page.ID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tickets[id]
	if ok && t.state == qRunning {
		return
	}
	s.stats.urgent.Add(1)
	if !ok {
		return
	}
	if t.state == qReady {
		heap.Remove(&s.ready, t.idx)
	} // else backing off: its timer finds the ticket gone
	s.stats.promotions.Add(1)
	s.completeLocked(t, nil)
}

// Pending returns the number of live tickets (queued, backing off, or in
// flight).
func (s *Scheduler) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.tickets)
}

// Drain blocks until no ticket is live or the scheduler stops. Tests and
// bulk restores use it as the "restore complete" barrier.
func (s *Scheduler) Drain() {
	s.mu.Lock()
	for !s.stopped && len(s.tickets) > 0 {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// Stats returns a snapshot of the scheduler counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	pending := int64(len(s.tickets) - s.inflight)
	inflight := int64(s.inflight)
	s.mu.Unlock()
	return Stats{
		Enqueued:       s.stats.enqueued.Load(),
		Coalesced:      s.stats.coalesced.Load(),
		UrgentRequests: s.stats.urgent.Load(),
		Promotions:     s.stats.promotions.Load(),
		Repaired:       s.stats.repaired.Load(),
		Failed:         s.stats.failed.Load(),
		Requeues:       s.stats.requeues.Load(),
		ReadRetries:    s.stats.readRetries.Load(),
		Pending:        pending,
		InFlight:       inflight,
	}
}

// backoff returns the delay before retry number attempts (1-based).
func backoff(attempts int) time.Duration {
	d := retryBackoff
	for i := 1; i < attempts && d < maxRetryBackoff; i++ {
		d *= 2
	}
	return min(d, maxRetryBackoff)
}

// worker executes repairs in queue order until the scheduler stops.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	pk := newParker()
	defer pk.close()
	rested := time.Now()
	s.mu.Lock()
	for {
		if s.stopped {
			break
		}
		if s.ready.Len() == 0 {
			s.cond.Wait()
			rested = time.Now()
			continue
		}
		t := heap.Pop(&s.ready).(*ticket)
		t.state = qRunning
		s.inflight++
		s.mu.Unlock()

		err := s.deps.Repair(t.id)
		// Crash point: a repair just finished (its page may be installed
		// dirty, its recovery records appended) but its ticket has not
		// completed yet.
		chaos.At("restore.complete")

		s.mu.Lock()
		s.inflight--
		if err != nil && !s.stopped && s.deps.Busy != nil && s.deps.Busy(err) {
			// Congestion, not failure: back off and requeue. The ticket
			// (and its waiters' future) stays live; a timer returns it to
			// the ready heap.
			t.state = qDelayed
			t.attempts++
			s.stats.requeues.Add(1)
			time.AfterFunc(backoff(t.attempts), func() { s.requeue(t) })
			continue
		}
		s.completeLocked(t, err)
		// Yield between repairs. A Gosched alone lets a reader that is
		// already runnable in, but not one waiting on its socket: while
		// the workers keep the run queue non-empty the runtime polls the
		// network only from sysmon, about every 10 ms, so on one core a
		// read issued during a drain waited for most of it. Parking on
		// the netpoller every parkEvery bounds that wait to about
		// parkEvery; off Linux, or when parking fails, Gosched remains.
		s.mu.Unlock()
		if time.Since(rested) >= parkEvery && pk.park(parkFor) {
			rested = time.Now()
		} else {
			runtime.Gosched()
		}
		s.mu.Lock()
	}
	s.mu.Unlock()
}

// requeue returns a backing-off ticket to the ready heap (the timer
// callback). A foreground repair or Stop may have completed the ticket
// already; then this is a no-op.
func (s *Scheduler) requeue(t *ticket) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped || t.state != qDelayed || s.tickets[t.id] != t {
		return
	}
	t.state = qReady
	heap.Push(&s.ready, t)
	s.cond.Broadcast()
}
