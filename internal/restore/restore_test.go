package restore

import (
	"errors"
	"io"
	"net"
	"runtime"
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

// TestForegroundRepairRetiresQueuedTicket: a read that repaired a page
// itself retires the page's queued ticket — its future completes at once
// and no worker ever runs it — and counts as an urgent request; the note
// from a fetch made under a running ticket counts nothing.
func TestForegroundRepairRetiresQueuedTicket(t *testing.T) {
	g := newGateRepair()
	g.blockOn = 1
	s := New(Config{Workers: 1}, Deps{Repair: g.repair})
	s.Start()
	defer s.Stop()

	// Occupy the single worker so the queue builds up deterministically.
	blocked := s.Enqueue(1, 0)
	<-g.entered
	retired := s.Enqueue(10, 0)
	kept := s.Enqueue(11, 0)

	s.NoteForegroundRepair(1)  // the worker's own fetch
	s.NoteForegroundRepair(10) // a reader got there first
	s.NoteForegroundRepair(99) // a reader's fault nobody had queued
	select {
	case <-retired.Done():
		if err := retired.Err(); err != nil {
			t.Fatalf("retired ticket's outcome = %v", err)
		}
	default:
		t.Fatal("retired ticket still pending while the worker is blocked")
	}
	if st := s.Stats(); st.UrgentRequests != 2 || st.Promotions != 1 || st.Pending != 1 || st.Repaired != 1 {
		t.Fatalf("urgent %d, promotions %d, pending %d, repaired %d; want 2, 1, 1, 1",
			st.UrgentRequests, st.Promotions, st.Pending, st.Repaired)
	}

	close(g.gate)
	for _, f := range []*Future{blocked, kept} {
		if err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	s.Drain()
	if got := g.orderSnapshot(); len(got) != 2 || got[0] != 1 || got[1] != 11 {
		t.Fatalf("workers ran %v, want [1 11]", got)
	}
	if st := s.Stats(); st.Enqueued != 3 || st.Repaired != 3 || st.Failed != 0 {
		t.Fatalf("enqueued %d, repaired %d, failed %d; want 3, 3, 0", st.Enqueued, st.Repaired, st.Failed)
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

	first := s.Enqueue(5, 0)
	<-g.entered // repair of page 5 is in flight and blocked

	var wg sync.WaitGroup
	errs := make([]error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = s.Enqueue(5, 0).Wait()
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
	s := New(Config{Workers: 1}, Deps{
		Repair: g.repair,
		Busy:   func(err error) bool { return errors.Is(err, busy) },
	})
	s.Start()
	defer s.Stop()

	if err := s.Enqueue(7, 0).Wait(); err != nil {
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
	if err := s.Enqueue(3, 0).Wait(); !errors.Is(err, boom) {
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

	inflight := s.Enqueue(1, 0)
	<-g.entered
	queued := s.Enqueue(2, 0)

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
	if err := s.Enqueue(9, 0).Wait(); !errors.Is(err, ErrStopped) {
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
		futs = append(futs, s.Enqueue(page.ID(i), 0))
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
// costs, coalescing, foreground retirements, busy retries, and a Stop.
func TestConcurrentEnqueueStress(t *testing.T) {
	busy := errors.New("pinned")
	var attempts atomic.Int64
	s := New(Config{Workers: 4}, Deps{
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
				id := page.ID(i%37 + 1)
				f := s.Enqueue(id, int64(i%5))
				if i%3 == 0 {
					s.NoteForegroundRepair(id)
				}
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

// TestCostOrdersTheQueue proves cost-aware ordering: workers pop shorter
// (cheaper) chains first, whatever order they were enqueued in.
func TestCostOrdersTheQueue(t *testing.T) {
	g := newGateRepair()
	g.blockOn = 1
	s := New(Config{Workers: 1}, Deps{Repair: g.repair})
	s.Start()
	defer s.Stop()

	// Occupy the single worker so the queue builds up deterministically.
	blocked := s.Enqueue(1, 0)
	<-g.entered

	var futs []*Future
	futs = append(futs, s.Enqueue(10, 5))
	futs = append(futs, s.Enqueue(11, 1))
	futs = append(futs, s.Enqueue(12, 3))

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
	want := []page.ID{1, 11, 12, 10}
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
// estimate reorders the queued ticket.
func TestCoalesceKeepsCheaperCost(t *testing.T) {
	g := newGateRepair()
	g.blockOn = 1
	s := New(Config{Workers: 1}, Deps{Repair: g.repair})
	s.Start()
	defer s.Stop()

	blocked := s.Enqueue(1, 0)
	<-g.entered

	a := s.Enqueue(10, 2)
	b := s.Enqueue(11, 9)
	// Refine 11's estimate below 10's: it must now run first.
	b2 := s.Enqueue(11, 1)

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
		if err := s.Enqueue(id, 0).Wait(); err != nil {
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

// TestReadDuringDrainIsNotStarved: on one P, a client waiting on its
// socket while the workers drain a deep queue of CPU-bound repairs is
// served during the drain, after a few repairs, not when the drain ends.
// With the workers yielding by Gosched alone the network was polled only
// from sysmon, about every 10 ms, and one loopback echo — two socket
// wake-ups — took 10-20 ms, some 80 repairs. The bound counts repairs, not
// milliseconds: a stall of the host pauses the drain as it pauses the
// echo, while a starved netpoller lets the drain run on and the echo wait.
func TestReadDuringDrainIsNotStarved(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		_, _ = io.Copy(c, c)
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var b [1]byte
	echo := func() time.Duration {
		start := time.Now()
		if _, err := conn.Write(b[:]); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(conn, b[:]); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	echo() // the server goroutine has accepted and is reading

	// 400 repairs of 250 µs of CPU each: a 100 ms drain.
	const repairs, spin = 400, 250 * time.Microsecond
	s := New(Config{Workers: 2}, Deps{Repair: func(page.ID) error {
		for start := time.Now(); time.Since(start) < spin; {
		}
		return nil
	}})
	s.Start()
	defer s.Stop()
	for i := 1; i <= repairs; i++ {
		s.Enqueue(page.ID(i), 0)
	}
	took := echo()
	done := s.Stats().Repaired
	if done == repairs {
		t.Fatalf("the echo took %v and returned after the whole drain", took)
	}
	// 5 ms of the drain: 20 repairs.
	if limit := int64(5 * time.Millisecond / spin); done > limit {
		t.Fatalf("the echo returned after %d of %d repairs (%v), want at most %d",
			done, repairs, took, limit)
	}
}
