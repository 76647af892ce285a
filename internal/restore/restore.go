// Package restore implements the prioritized single-page repair scheduler.
//
// The paper treats every single-page recovery as an isolated, synchronous
// event: the reading transaction waits while the page is rebuilt from its
// backup plus the per-page log chain (§5.2.3). Once detection becomes
// continuous — an online scrub campaign surfacing latent failures in bulk,
// a media recovery registering every page of a device at once — repair
// *ordering* becomes the performance problem: a foreground transaction
// faulting on a broken page must not queue behind thousands of background
// repairs. That is the problem Sauer, Graefe and Härder's instant-restore
// work solves with on-demand, prioritized restore ordering, and this
// package applies the same shape to single-page repair:
//
//   - a priority queue of pending repairs: scrub findings and bulk media
//     restore enqueue at Background priority, foreground fetch faults at
//     Urgent priority;
//   - deduplication with promotion: one ticket per page; an Urgent request
//     for a page already queued at Background reorders the existing ticket
//     ahead of every Background entry instead of adding a second repair;
//   - per-page repair futures: every requester of a page shares the
//     ticket's future, so N concurrent faulters of the same page coalesce
//     into exactly one chain replay and all observe its outcome;
//   - cost-aware ordering within a priority class: callers that know how
//     expensive a repair will be (the WAL chain index tracks every page's
//     chain length) enqueue with that cost, and the scheduler pops
//     shorter chains first — shortest-job-first shrinks the vulnerability
//     window, since more pages leave the unrecovered state per unit of
//     repair work; equal costs fall back to FIFO;
//   - worker goroutines drain the queue in priority order (Urgent strictly
//     first, cheapest-then-FIFO within a class) and are quiesced
//     deterministically:
//     Stop joins every worker, letting an in-flight repair finish, so the
//     engine can stop the scheduler before truncating the log exactly as
//     it quiesces the maintenance service;
//   - congestion is retried, not dropped: a repair that fails because the
//     page is momentarily pinned (Deps.Busy classifies such errors) is
//     requeued with exponential backoff instead of being abandoned after
//     a retry budget — the page stays scheduled until it is repaired,
//     fails for real, or the scheduler stops.
//
// The scheduler owns only ordering and goroutines; what a repair *is*
// (evict, validating re-read, recovery, relocation) stays in the engine's
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

// Priority orders pending repairs. Higher values run first.
type Priority int

const (
	// Background is the priority of scrub findings and bulk media-restore
	// registrations: important, but never ahead of a waiting transaction.
	Background Priority = iota
	// Urgent is the priority of foreground fetch faults: a transaction is
	// blocked on the future right now.
	Urgent
)

func (p Priority) String() string {
	if p == Urgent {
		return "urgent"
	}
	return "background"
}

// ErrStopped reports that the scheduler was stopped (crash or shutdown)
// before the repair ran; the page remains unrepaired.
var ErrStopped = errors.New("restore: scheduler stopped before repair ran")

// Config tunes a Scheduler. Zero values select the documented defaults.
type Config struct {
	// Workers is the number of repair worker goroutines (default 2).
	Workers int
	// RetryBackoff is the initial delay before a busy (pinned) repair is
	// retried; it doubles per attempt (default 1ms). It is a timer, and a
	// timer shorter than a millisecond does not fire sooner than one when
	// the P is otherwise idle — the runtime's netpoller rounds the wait up
	// to 1ms — so values below that buy nothing. This is a background
	// wait for a pin to clear; the repair read path itself never waits.
	RetryBackoff time.Duration
	// MaxRetryBackoff caps the per-attempt delay (default 50ms).
	MaxRetryBackoff time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = time.Millisecond
	}
	if c.MaxRetryBackoff <= 0 {
		c.MaxRetryBackoff = 50 * time.Millisecond
	}
	return c
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

// Stats counts scheduler activity. Cumulative except where noted.
type Stats struct {
	// Enqueued counts tickets created; Coalesced counts requests that
	// joined an existing ticket instead of creating one — the per-page
	// future coalescing factor is Coalesced/Enqueued.
	Enqueued  int64
	Coalesced int64
	// UrgentRequests counts requests made at Urgent priority (whether
	// they created, joined, or promoted a ticket); Promotions counts
	// Background tickets reordered to Urgent by such a request.
	UrgentRequests int64
	Promotions     int64
	// Repaired and Failed split completed tickets by outcome; Requeues
	// counts busy (pinned) retries.
	Repaired int64
	Failed   int64
	Requeues int64
	// ReadRetries counts the immediate re-reads of failed device reads on
	// the repair read path (buffer pool hook): one for a one-shot fault
	// the re-read absorbs, the pool's ReadRetries for a sticky one that is
	// then repaired.
	ReadRetries int64
	// Pending and InFlight are gauges: tickets waiting in the queue (or
	// backing off) and repairs currently executing.
	Pending  int64
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
	pri      Priority
	cost     int64  // estimated repair cost (chain length); 0 = unknown
	seq      uint64 // FIFO tiebreak within a priority class
	state    int
	idx      int // position in the ready heap (state == qReady)
	attempts int
	fut      *Future
}

// readyHeap orders runnable tickets by (priority desc, cost asc, seq asc):
// strict priority first, then shortest estimated repair, then FIFO. A
// zero cost means "unknown" and sorts with the cheapest — an unknown is
// almost always a foreground fault on a single page, not a bulk batch.
type readyHeap []*ticket

func (h readyHeap) Len() int { return len(h) }
func (h readyHeap) Less(i, j int) bool {
	if h[i].pri != h[j].pri {
		return h[i].pri > h[j].pri
	}
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

// Scheduler is the prioritized repair queue. Safe for concurrent use.
type Scheduler struct {
	cfg  Config
	deps Deps

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
		cfg:     cfg.withDefaults(),
		deps:    deps,
		tickets: make(map[page.ID]*ticket),
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
	for i := 0; i < s.cfg.Workers; i++ {
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
	for id, t := range s.tickets {
		if t.state == qRunning {
			continue // its worker completes it
		}
		delete(s.tickets, id)
		s.stats.failed.Add(1)
		t.fut.err = ErrStopped
		close(t.fut.done)
	}
	s.ready = nil
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

// Enqueue schedules a repair of page id at the given priority and returns
// the page's repair future. If the page is already scheduled the existing
// ticket is shared (the request coalesces); a higher-priority request
// promotes a queued or backing-off ticket so it reorders ahead of every
// lower-priority entry. On a stopped scheduler the returned future is
// already failed with ErrStopped.
func (s *Scheduler) Enqueue(id page.ID, pri Priority) *Future {
	return s.EnqueueCost(id, pri, 0)
}

// EnqueueCost is Enqueue with an estimated repair cost — typically the
// page's WAL chain length. Within a priority class the scheduler pops
// cheaper tickets first (shortest-job-first: the unrecovered-page count
// falls as fast as possible). Cost zero means unknown. A coalescing
// request never raises an existing ticket's cost; a lower nonzero
// estimate replaces an unknown or higher one.
func (s *Scheduler) EnqueueCost(id page.ID, pri Priority, cost int64) *Future {
	s.mu.Lock()
	defer s.mu.Unlock()
	if pri == Urgent {
		s.stats.urgent.Add(1)
	}
	if s.stopped {
		f := newFuture()
		f.err = ErrStopped
		close(f.done)
		return f
	}
	if t, ok := s.tickets[id]; ok {
		s.stats.coalesced.Add(1)
		promoted := pri > t.pri
		if promoted {
			t.pri = pri
			s.stats.promotions.Add(1)
		}
		cheaper := cost > 0 && (t.cost == 0 || cost < t.cost)
		if cheaper {
			t.cost = cost
		}
		if promoted || cheaper {
			switch t.state {
			case qReady:
				heap.Fix(&s.ready, t.idx)
			case qDelayed:
				if promoted {
					// Promotion cancels the backoff: the page has a
					// waiting transaction now. The pending backoff timer
					// finds the ticket no longer delayed and does nothing.
					t.state = qReady
					heap.Push(&s.ready, t)
					s.cond.Broadcast()
				}
			}
		}
		return t.fut
	}
	t := &ticket{id: id, pri: pri, cost: cost, seq: s.seq, state: qReady, fut: newFuture()}
	s.seq++
	s.tickets[id] = t
	heap.Push(&s.ready, t)
	s.stats.enqueued.Add(1)
	s.cond.Broadcast()
	return t.fut
}

// NoteReadRetry counts one immediate re-read of a failed device read on
// the repair read path (wired to the buffer pool's OnReadRetry hook by the
// engine).
func (s *Scheduler) NoteReadRetry() {
	s.stats.readRetries.Add(1)
}

// Repair is Enqueue(id, Urgent) + Wait: the synchronous foreground entry
// point.
func (s *Scheduler) Repair(id page.ID) error {
	return s.Enqueue(id, Urgent).Wait()
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
func (s *Scheduler) backoff(attempts int) time.Duration {
	d := s.cfg.RetryBackoff
	for i := 1; i < attempts && d < s.cfg.MaxRetryBackoff; i++ {
		d *= 2
	}
	if d > s.cfg.MaxRetryBackoff {
		d = s.cfg.MaxRetryBackoff
	}
	return d
}

// worker executes repairs in priority order until the scheduler stops.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	s.mu.Lock()
	for {
		if s.stopped {
			break
		}
		if s.ready.Len() == 0 {
			s.cond.Wait()
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
			// (and its waiters' future) stays live; a timer returns it
			// to the ready heap unless a promotion got there first. A
			// ticket promoted to Urgent while it ran has a transaction
			// parked on it — retry at the minimal backoff instead of the
			// exponential one, matching the promotion path's
			// backoff-cancel contract (a flat delay still lets the
			// pin-holder run; an immediate requeue could hot-loop the
			// worker against it).
			t.state = qDelayed
			t.attempts++
			s.stats.requeues.Add(1)
			delay := s.backoff(t.attempts)
			if t.pri == Urgent {
				delay = s.cfg.RetryBackoff
			}
			time.AfterFunc(delay, func() { s.requeue(t) })
			continue
		}
		delete(s.tickets, t.id)
		if err != nil {
			s.stats.failed.Add(1)
		} else {
			s.stats.repaired.Add(1)
		}
		t.fut.err = err
		close(t.fut.done)
		s.cond.Broadcast() // wake Drain waiters (and idle workers)
		// Yield between repairs: on scarce cores a CPU-bound worker
		// draining a deep queue back-to-back can keep the waiter it just
		// woke off the CPU for a whole preemption quantum (tens of
		// milliseconds) — the same convoy the WAL's publication path had
		// to dodge. One Gosched per completion bounds a foreground
		// faulter's post-repair wake-up to roughly one repair.
		s.mu.Unlock()
		runtime.Gosched()
		s.mu.Lock()
	}
	s.mu.Unlock()
}

// requeue returns a backing-off ticket to the ready heap (the timer
// callback). A promotion or Stop may have moved the ticket already; then
// this is a no-op.
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
