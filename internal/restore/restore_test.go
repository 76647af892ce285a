package restore

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/page"
)

// gateRepair records repair invocation order and can block the (single)
// worker on demand so tests control exactly when the queue reorders.
type gateRepair struct {
	mu      sync.Mutex
	order   []page.ID
	counts  map[page.ID]int
	blockOn page.ID
	gate    chan struct{}
	entered chan struct{}
	fail    func(page.ID, int) error // per-invocation outcome
}

func newGateRepair() *gateRepair {
	return &gateRepair{
		counts:  make(map[page.ID]int),
		gate:    make(chan struct{}),
		entered: make(chan struct{}, 16),
	}
}

func (g *gateRepair) repair(id page.ID) error {
	g.mu.Lock()
	g.order = append(g.order, id)
	g.counts[id]++
	n := g.counts[id]
	block := id == g.blockOn
	fail := g.fail
	g.mu.Unlock()
	if block {
		g.entered <- struct{}{}
		<-g.gate
	}
	if fail != nil {
		return fail(id, n)
	}
	return nil
}

func (g *gateRepair) orderSnapshot() []page.ID {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]page.ID(nil), g.order...)
}

// TestPromotionReordersAheadOfOlderBackground proves the promotion
// semantics: an urgent request for a queued background page, and a fresh
// urgent request, both run before background entries enqueued earlier.
func TestPromotionReordersAheadOfOlderBackground(t *testing.T) {
	g := newGateRepair()
	g.blockOn = 1
	s := New(Config{Workers: 1}, Deps{Repair: g.repair})
	s.Start()
	defer s.Stop()

	// Occupy the single worker so the queue builds up deterministically.
	blocked := s.Enqueue(1, Background)
	<-g.entered

	bg := []page.ID{10, 11, 12, 13}
	var futs []*Future
	for _, id := range bg {
		futs = append(futs, s.Enqueue(id, Background))
	}
	// Promote 13 (enqueued last at background) and add a brand-new urgent
	// page 20.
	promoted := s.Enqueue(13, Urgent)
	fresh := s.Enqueue(20, Urgent)

	close(g.gate) // release the worker
	for _, f := range append(futs, blocked, promoted, fresh) {
		if err := f.Wait(); err != nil {
			t.Fatalf("repair failed: %v", err)
		}
	}

	order := g.orderSnapshot()
	pos := make(map[page.ID]int)
	for i, id := range order {
		pos[id] = i
	}
	for _, older := range []page.ID{10, 11, 12} {
		if pos[13] > pos[older] {
			t.Fatalf("promoted page 13 ran after older background %d: order %v", older, order)
		}
		if pos[20] > pos[older] {
			t.Fatalf("urgent page 20 ran after older background %d: order %v", older, order)
		}
	}
	st := s.Stats()
	if st.Promotions != 1 {
		t.Fatalf("promotions = %d, want 1", st.Promotions)
	}
	if st.Coalesced != 1 {
		t.Fatalf("coalesced = %d, want 1 (the promoted request)", st.Coalesced)
	}
}

// TestCoalescingOneReplayForConcurrentFaulters proves per-page coalescing:
// N concurrent requesters of one page share one future and exactly one
// repair executes.
func TestCoalescingOneReplayForConcurrentFaulters(t *testing.T) {
	const waiters = 16
	g := newGateRepair()
	g.blockOn = 5
	s := New(Config{Workers: 2}, Deps{Repair: g.repair})
	s.Start()
	defer s.Stop()

	first := s.Enqueue(5, Urgent)
	<-g.entered // repair of page 5 is in flight and blocked

	var wg sync.WaitGroup
	errs := make([]error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = s.Enqueue(5, Urgent).Wait()
		}(i)
	}
	// Give the requesters a moment to coalesce onto the running ticket.
	for s.Stats().Coalesced < waiters {
		time.Sleep(time.Millisecond)
	}
	close(g.gate)
	wg.Wait()
	if err := first.Wait(); err != nil {
		t.Fatal(err)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("waiter %d: %v", i, err)
		}
	}
	g.mu.Lock()
	count := g.counts[5]
	g.mu.Unlock()
	if count != 1 {
		t.Fatalf("page 5 repaired %d times, want exactly 1", count)
	}
	if st := s.Stats(); st.Coalesced != waiters {
		t.Fatalf("coalesced = %d, want %d", st.Coalesced, waiters)
	}
}

// TestBusyBackoffRequeue proves congestion handling: busy failures are
// retried with backoff until they succeed, never dropped.
func TestBusyBackoffRequeue(t *testing.T) {
	busy := errors.New("pinned")
	g := newGateRepair()
	g.fail = func(_ page.ID, n int) error {
		if n <= 3 {
			return busy
		}
		return nil
	}
	s := New(Config{Workers: 1, RetryBackoff: time.Microsecond}, Deps{
		Repair: g.repair,
		Busy:   func(err error) bool { return errors.Is(err, busy) },
	})
	s.Start()
	defer s.Stop()

	if err := s.Enqueue(7, Background).Wait(); err != nil {
		t.Fatalf("repair after retries: %v", err)
	}
	g.mu.Lock()
	count := g.counts[7]
	g.mu.Unlock()
	if count != 4 {
		t.Fatalf("page 7 attempted %d times, want 4", count)
	}
	st := s.Stats()
	if st.Requeues != 3 {
		t.Fatalf("requeues = %d, want 3", st.Requeues)
	}
	if st.Failed != 0 || st.Repaired != 1 {
		t.Fatalf("failed=%d repaired=%d, want 0/1", st.Failed, st.Repaired)
	}
}

// TestNonBusyErrorCompletesTicket: a real failure surfaces to every waiter
// and the ticket is not retried.
func TestNonBusyErrorCompletesTicket(t *testing.T) {
	boom := errors.New("escalate")
	g := newGateRepair()
	g.fail = func(page.ID, int) error { return boom }
	s := New(Config{Workers: 1}, Deps{Repair: g.repair})
	s.Start()
	defer s.Stop()
	if err := s.Enqueue(3, Urgent).Wait(); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if st := s.Stats(); st.Failed != 1 || st.Requeues != 0 {
		t.Fatalf("failed=%d requeues=%d, want 1/0", st.Failed, st.Requeues)
	}
}

// TestStopQuiesceOrdering proves the quiesce contract: Stop fails queued
// tickets immediately, lets the in-flight repair complete, and joins every
// worker before returning — the property spf.DB.Crash relies on to stop
// the scheduler before truncating the log.
func TestStopQuiesceOrdering(t *testing.T) {
	g := newGateRepair()
	g.blockOn = 1
	s := New(Config{Workers: 1}, Deps{Repair: g.repair})
	s.Start()

	inflight := s.Enqueue(1, Background)
	<-g.entered
	queued := s.Enqueue(2, Background)

	var inflightDone atomic.Bool
	stopReturned := make(chan struct{})
	go func() {
		s.Stop()
		if !inflightDone.Load() {
			t.Error("Stop returned before the in-flight repair completed")
		}
		close(stopReturned)
	}()

	// The queued ticket must fail promptly even while a repair is stuck.
	if err := queued.Wait(); !errors.Is(err, ErrStopped) {
		t.Fatalf("queued ticket err = %v, want ErrStopped", err)
	}
	select {
	case <-stopReturned:
		t.Fatal("Stop returned while a repair was still in flight")
	case <-time.After(20 * time.Millisecond):
	}

	inflightDone.Store(true)
	close(g.gate)
	<-stopReturned
	if err := inflight.Wait(); err != nil {
		t.Fatalf("in-flight repair outcome: %v", err)
	}
	// Post-stop requests fail immediately.
	if err := s.Enqueue(9, Urgent).Wait(); !errors.Is(err, ErrStopped) {
		t.Fatalf("post-stop enqueue err = %v, want ErrStopped", err)
	}
	s.Stop() // idempotent
}

// TestDrainWaitsForQueue: Drain blocks until every ticket completes.
func TestDrainWaitsForQueue(t *testing.T) {
	g := newGateRepair()
	s := New(Config{Workers: 2}, Deps{Repair: g.repair})
	s.Start()
	defer s.Stop()
	var futs []*Future
	for i := 1; i <= 50; i++ {
		futs = append(futs, s.Enqueue(page.ID(i), Background))
	}
	s.Drain()
	if n := s.Pending(); n != 0 {
		t.Fatalf("pending after drain = %d", n)
	}
	for _, f := range futs {
		select {
		case <-f.Done():
		default:
			t.Fatal("drain returned with an incomplete future")
		}
	}
	if st := s.Stats(); st.Repaired != 50 {
		t.Fatalf("repaired = %d, want 50", st.Repaired)
	}
}

// TestConcurrentEnqueueStress exercises the scheduler under -race: mixed
// priorities, coalescing, busy retries, and a concurrent Stop.
func TestConcurrentEnqueueStress(t *testing.T) {
	busy := errors.New("pinned")
	var attempts atomic.Int64
	s := New(Config{Workers: 4, RetryBackoff: time.Microsecond}, Deps{
		Repair: func(id page.ID) error {
			if attempts.Add(1)%17 == 0 {
				return busy
			}
			return nil
		},
		Busy: func(err error) bool { return errors.Is(err, busy) },
	})
	s.Start()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				pri := Background
				if i%3 == 0 {
					pri = Urgent
				}
				f := s.Enqueue(page.ID(i%37+1), pri)
				if w%2 == 0 {
					if err := f.Wait(); err != nil {
						t.Errorf("repair: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	s.Drain()
	st := s.Stats()
	if st.Pending != 0 || st.InFlight != 0 {
		t.Fatalf("not drained: %+v", st)
	}
	s.Stop()
}

// TestCostOrdersWithinPriorityBand proves cost-aware ordering: within one
// priority band the scheduler pops shorter (cheaper) chains first, while
// priority still dominates cost across bands.
func TestCostOrdersWithinPriorityBand(t *testing.T) {
	g := newGateRepair()
	g.blockOn = 1
	s := New(Config{Workers: 1}, Deps{Repair: g.repair})
	s.Start()
	defer s.Stop()

	// Occupy the single worker so the queue builds up deterministically.
	blocked := s.Enqueue(1, Background)
	<-g.entered

	var futs []*Future
	futs = append(futs, s.EnqueueCost(10, Background, 5))
	futs = append(futs, s.EnqueueCost(11, Background, 1))
	futs = append(futs, s.EnqueueCost(12, Background, 3))
	// An expensive urgent ticket still beats every cheap background one.
	futs = append(futs, s.EnqueueCost(20, Urgent, 100))

	close(g.gate)
	if err := blocked.Wait(); err != nil {
		t.Fatal(err)
	}
	for _, f := range futs {
		if err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	got := g.orderSnapshot()
	want := []page.ID{1, 20, 11, 12, 10}
	if len(got) != len(want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

// TestCoalesceKeepsCheaperCost proves a re-enqueue with a lower cost
// estimate reorders the queued ticket ahead of its band.
func TestCoalesceKeepsCheaperCost(t *testing.T) {
	g := newGateRepair()
	g.blockOn = 1
	s := New(Config{Workers: 1}, Deps{Repair: g.repair})
	s.Start()
	defer s.Stop()

	blocked := s.Enqueue(1, Background)
	<-g.entered

	a := s.EnqueueCost(10, Background, 2)
	b := s.EnqueueCost(11, Background, 9)
	// Refine 11's estimate below 10's: it must now run first.
	b2 := s.EnqueueCost(11, Background, 1)

	close(g.gate)
	for _, f := range []*Future{blocked, a, b, b2} {
		if err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	got := g.orderSnapshot()
	want := []page.ID{1, 11, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

// TestNoteReadRetryCounted proves retry accounting reaches Stats the way
// the engine drives it: the buffer pool's OnReadRetry hook fires on the
// worker's goroutine, inside Repair, once per immediate re-read — one for
// a one-shot read fault the re-read absorbs, the pool's ReadRetries (two)
// for a sticky one that is then repaired — and the total is visible as
// soon as the repairs' futures complete.
func TestNoteReadRetryCounted(t *testing.T) {
	reReads := map[page.ID]int{1: 1, 2: 2}
	var s *Scheduler
	s = New(Config{Workers: 1}, Deps{Repair: func(id page.ID) error {
		for i := 0; i < reReads[id]; i++ {
			s.NoteReadRetry()
		}
		return nil
	}})
	s.Start()
	defer s.Stop()
	for id := range reReads {
		if err := s.Repair(id); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.ReadRetries != 3 {
		t.Fatalf("ReadRetries = %d, want 3", st.ReadRetries)
	}
	if st.Repaired != 2 || st.Requeues != 0 {
		t.Fatalf("re-reads must not requeue or fail a ticket: %+v", st)
	}
}
