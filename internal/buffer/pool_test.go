package buffer

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/iosim"
	"repro/internal/page"
	"repro/internal/pagemap"
	"repro/internal/storage"
	"repro/internal/wal"
)

type env struct {
	dev  *storage.Device
	pmap *pagemap.Map
	log  *wal.Manager
	pool *Pool
}

func newEnv(t *testing.T, capacity int, hooks Hooks) *env {
	t.Helper()
	return newEnvConfig(t, Config{Capacity: capacity}, hooks)
}

// newEnvConfig is newEnv for tests that set pool options; it supplies the
// device, the map, the log and the hooks.
func newEnvConfig(t *testing.T, cfg Config, hooks Hooks) *env {
	t.Helper()
	dev := storage.NewDevice(storage.Config{PageSize: 512, Slots: 256, Profile: iosim.Instant})
	pm := pagemap.New(256)
	log := wal.NewManager(iosim.Instant)
	cfg.Device, cfg.Map, cfg.Log, cfg.Hooks = dev, pm, log, hooks
	return &env{dev: dev, pmap: pm, log: log, pool: NewPool(cfg)}
}

// newPage allocates, creates, fills, and unpins a page, returning its ID.
func (e *env) newPage(t *testing.T, payload string) page.ID {
	t.Helper()
	id := e.pmap.AllocateLogical()
	h, err := e.pool.Create(id, page.TypeRaw)
	if err != nil {
		t.Fatal(err)
	}
	h.Lock()
	if err := h.Page().SetPayload([]byte(payload)); err != nil {
		t.Fatal(err)
	}
	lsn := e.log.Append(&wal.Record{Type: wal.TypeFormat, Txn: 1, PageID: id, Payload: []byte(payload)})
	h.Page().SetLSN(lsn)
	h.Unlock()
	h.MarkDirty(lsn)
	h.Release()
	return id
}

func TestCreateFetchRoundTrip(t *testing.T) {
	e := newEnv(t, 4, Hooks{})
	id := e.newPage(t, "hello")
	h, err := e.pool.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	h.RLock()
	defer h.RUnlock()
	if string(h.Page().Payload()) != "hello" {
		t.Errorf("payload = %q", h.Page().Payload())
	}
}

func TestFetchAfterEvictionReadsFromDevice(t *testing.T) {
	e := newEnv(t, 4, Hooks{})
	id := e.newPage(t, "persisted")
	if err := e.pool.Evict(id); err != nil {
		t.Fatal(err)
	}
	if e.pool.IsResident(id) {
		t.Fatal("page still resident after evict")
	}
	h, err := e.pool.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if string(h.Page().Payload()) != "persisted" {
		t.Errorf("payload = %q", h.Page().Payload())
	}
	s := e.pool.Stats()
	if s.Misses == 0 {
		t.Error("device read not counted as miss")
	}
}

func TestFetchUnknownAndNeverWritten(t *testing.T) {
	e := newEnv(t, 4, Hooks{})
	if _, err := e.pool.Fetch(999); !errors.Is(err, ErrUnknownPage) {
		t.Errorf("unknown page: %v", err)
	}
	id := e.pmap.AllocateLogical()
	if _, err := e.pool.Fetch(id); !errors.Is(err, ErrNeverWritten) {
		t.Errorf("never-written page: %v", err)
	}
}

func TestEvictionPressureFlushesDirtyPages(t *testing.T) {
	e := newEnv(t, 2, Hooks{})
	ids := []page.ID{
		e.newPage(t, "a"), e.newPage(t, "b"), e.newPage(t, "c"), e.newPage(t, "d"),
	}
	// Pool holds 2 frames; creating 4 pages forced evictions with flush.
	if e.pool.Resident() > 2 {
		t.Fatalf("resident = %d, want <= 2", e.pool.Resident())
	}
	for _, id := range ids {
		h, err := e.pool.Fetch(id)
		if err != nil {
			t.Fatalf("Fetch(%d): %v", id, err)
		}
		h.Release()
	}
	if e.pool.Stats().Evictions == 0 {
		t.Error("no evictions recorded")
	}
}

func TestPoolFullWhenAllPinned(t *testing.T) {
	e := newEnv(t, 2, Hooks{})
	id1 := e.pmap.AllocateLogical()
	id2 := e.pmap.AllocateLogical()
	id3 := e.pmap.AllocateLogical()
	h1, err := e.pool.Create(id1, page.TypeRaw)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := e.pool.Create(id2, page.TypeRaw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.pool.Create(id3, page.TypeRaw); !errors.Is(err, ErrPoolFull) {
		t.Errorf("create with all pinned: %v", err)
	}
	h1.Release()
	if _, err := e.pool.Create(id3, page.TypeRaw); err != nil {
		t.Errorf("create after release: %v", err)
	}
	h2.Release()
}

// TestEvictionSkipsALatchedVictim: an eviction never waits for its
// victim's latch. A frame can be unpinned when the clock reaches it and
// latched by the time its write-back starts — by a thread that then waits,
// latch held, for the very load the eviction makes room for — so a
// write-back that waited would deadlock. Here the only frame is dirty,
// unpinned and write-latched: a load gives up with ErrPoolFull instead of
// blocking, and succeeds once the latch is released.
func TestEvictionSkipsALatchedVictim(t *testing.T) {
	e := newEnv(t, 1, Hooks{})
	evicted := e.newPage(t, "a")
	held := e.newPage(t, "b") // the one frame; "a" was written back
	v, _ := e.pool.shardOf(held).frames.Load(held)
	f := v.(*frame)
	f.latch.Lock()
	done := make(chan error, 1)
	go func() {
		h, err := e.pool.Fetch(evicted)
		if err == nil {
			h.Release()
		}
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrPoolFull) {
			t.Fatalf("fetch beside a latched victim: %v, want ErrPoolFull", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the eviction waited for its victim's latch")
	}
	f.latch.Unlock()
	h, err := e.pool.Fetch(evicted)
	if err != nil {
		t.Fatalf("fetch once the latch is free: %v", err)
	}
	h.Release()
}

func TestEvictPinnedFails(t *testing.T) {
	e := newEnv(t, 4, Hooks{})
	id := e.pmap.AllocateLogical()
	h, err := e.pool.Create(id, page.TypeRaw)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.pool.Evict(id); !errors.Is(err, ErrPinned) {
		t.Errorf("evict pinned: %v", err)
	}
	h.Release()
}

func TestDoubleReleasePanics(t *testing.T) {
	e := newEnv(t, 4, Hooks{})
	id := e.pmap.AllocateLogical()
	h, err := e.pool.Create(id, page.TypeRaw)
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	h.Release()
}

func TestOnWriteCompleteHookOrdering(t *testing.T) {
	var mu sync.Mutex
	var events []string
	hooks := Hooks{
		CompleteWrite: func(info WriteInfo) []*wal.Record {
			mu.Lock()
			events = append(events, fmt.Sprintf("write-complete:%d@%d", info.Page, info.PageLSN))
			mu.Unlock()
			return nil
		},
	}
	e := newEnv(t, 4, hooks)
	id := e.newPage(t, "x")
	if err := e.pool.Evict(id); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(events) != 1 {
		t.Fatalf("events = %v, want one write-complete", events)
	}
}

func TestWriteCompleteNotCalledForCleanEvict(t *testing.T) {
	calls := 0
	e := newEnv(t, 4, Hooks{CompleteWrite: func(WriteInfo) []*wal.Record { calls++; return nil }})
	id := e.newPage(t, "y")
	if err := e.pool.Evict(id); err != nil {
		t.Fatal(err)
	}
	h, err := e.pool.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	if err := e.pool.Evict(id); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("write-complete calls = %d, want 1 (clean re-evict must not write)", calls)
	}
}

func TestWALProtocolLogFlushedBeforePageWrite(t *testing.T) {
	e := newEnv(t, 4, Hooks{})
	id := e.newPage(t, "wal")
	// The format record is in the volatile tail.
	if e.log.TailSize() == 0 {
		t.Fatal("expected unflushed log tail")
	}
	if err := e.pool.FlushPage(id); err != nil {
		t.Fatal(err)
	}
	if e.log.TailSize() != 0 {
		t.Error("page written while its log record was still volatile")
	}
}

func TestDirtyPagesTable(t *testing.T) {
	e := newEnv(t, 8, Hooks{})
	id1 := e.newPage(t, "1")
	id2 := e.newPage(t, "2")
	dpt := e.pool.DirtyPages()
	if len(dpt) != 2 {
		t.Fatalf("dpt = %v, want 2 entries", dpt)
	}
	if dpt[0].Page != id1 || dpt[1].Page != id2 {
		t.Errorf("dpt order: %v", dpt)
	}
	if dpt[0].RecLSN == page.ZeroLSN {
		t.Error("recLSN missing")
	}
	if err := e.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if len(e.pool.DirtyPages()) != 0 {
		t.Error("dpt nonempty after FlushAll")
	}
}

func TestCrashDiscardsBufferedState(t *testing.T) {
	e := newEnv(t, 4, Hooks{})
	id := e.newPage(t, "volatile")
	e.pool.Crash()
	if e.pool.IsResident(id) {
		t.Error("page survived crash")
	}
	if e.pool.Resident() != 0 {
		t.Error("frames survived crash")
	}
	// The page was never flushed: fetching it now fails (never written).
	if _, err := e.pool.Fetch(id); err == nil {
		t.Error("unflushed page readable after crash")
	}
}

func TestReadPathDetectsCorruptionAndRecovers(t *testing.T) {
	recovered := page.New(0, page.TypeRaw, 512) // placeholder, replaced below
	var recoverCalls int
	hooks := Hooks{
		Recover: func(id page.ID, have *page.Page) (*page.Page, bool, error) {
			recoverCalls++
			if have != nil {
				t.Error("a damaged image was offered as recovery's base")
			}
			pg := page.New(id, page.TypeRaw, 512)
			if err := pg.SetPayload([]byte("recovered")); err != nil {
				return nil, false, err
			}
			pg.SetLSN(recovered.LSN())
			return pg, false, nil
		},
	}
	e := newEnv(t, 4, hooks)
	id := e.newPage(t, "original")
	h, _ := e.pool.Fetch(id)
	recovered.SetLSN(h.Page().LSN())
	h.Release()
	if err := e.pool.Evict(id); err != nil {
		t.Fatal(err)
	}
	phys, _ := e.pmap.Lookup(id)
	if err := e.dev.CorruptStored(phys); err != nil {
		t.Fatal(err)
	}

	h, err := e.pool.Fetch(id)
	if err != nil {
		t.Fatalf("fetch with recovery: %v", err)
	}
	defer h.Release()
	if string(h.Page().Payload()) != "recovered" {
		t.Errorf("payload = %q", h.Page().Payload())
	}
	if recoverCalls != 1 {
		t.Errorf("recover calls = %d", recoverCalls)
	}
	// The failed slot is retired and the page taken off it.
	if !e.dev.Retired(phys) {
		t.Error("failed slot not retired")
	}
	if _, bound := e.pmap.Lookup(id); bound {
		t.Error("page still bound after its slot failed")
	}
	// The recovered page is dirty and its next flush persists it.
	if !h.Dirty() {
		t.Error("recovered page should be dirty until rewritten")
	}
	s := e.pool.Stats()
	if s.Recoveries != 1 || s.ValidationFailures != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestReadPathDetectsDeviceError(t *testing.T) {
	hooks := Hooks{
		Recover: func(id page.ID, _ *page.Page) (*page.Page, bool, error) {
			return page.New(id, page.TypeRaw, 512), false, nil
		},
	}
	e := newEnv(t, 4, hooks)
	id := e.newPage(t, "x")
	if err := e.pool.Evict(id); err != nil {
		t.Fatal(err)
	}
	phys, _ := e.pmap.Lookup(id)
	e.dev.InjectFault(phys, storage.FaultReadError, true)
	h, err := e.pool.Fetch(id)
	if err != nil {
		t.Fatalf("recovery after read error: %v", err)
	}
	h.Release()
}

func TestReadPathEscalatesWithoutRecoverHook(t *testing.T) {
	e := newEnv(t, 4, Hooks{})
	id := e.newPage(t, "x")
	if err := e.pool.Evict(id); err != nil {
		t.Fatal(err)
	}
	phys, _ := e.pmap.Lookup(id)
	if err := e.dev.CorruptStored(phys); err != nil {
		t.Fatal(err)
	}
	if _, err := e.pool.Fetch(id); !errors.Is(err, ErrPageFailed) {
		t.Errorf("fetch of corrupt page without recovery: %v", err)
	}
	if e.pool.Stats().Escalations != 1 {
		t.Error("escalation not counted")
	}
}

func TestReadPathEscalatesWhenRecoveryFails(t *testing.T) {
	hooks := Hooks{
		Recover: func(page.ID, *page.Page) (*page.Page, bool, error) {
			return nil, false, errors.New("no backup")
		},
	}
	e := newEnv(t, 4, hooks)
	id := e.newPage(t, "x")
	if err := e.pool.Evict(id); err != nil {
		t.Fatal(err)
	}
	phys, _ := e.pmap.Lookup(id)
	if err := e.dev.CorruptStored(phys); err != nil {
		t.Fatal(err)
	}
	if _, err := e.pool.Fetch(id); !errors.Is(err, ErrPageFailed) {
		t.Errorf("failed recovery: %v", err)
	}
}

func TestValidateHookRuns(t *testing.T) {
	wantErr := errors.New("PageLSN mismatch")
	validated := 0
	hooks := Hooks{
		Validate: func(pg *page.Page) error {
			validated++
			if validated > 1 {
				return wantErr
			}
			return nil
		},
	}
	e := newEnv(t, 4, hooks)
	id := e.newPage(t, "v")
	if err := e.pool.Evict(id); err != nil {
		t.Fatal(err)
	}
	h, err := e.pool.Fetch(id) // first validation: ok
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	if err := e.pool.Evict(id); err != nil {
		t.Fatal(err)
	}
	// Second validation fails; no recovery configured → escalation.
	if _, err := e.pool.Fetch(id); !errors.Is(err, ErrPageFailed) {
		t.Errorf("validation failure: %v", err)
	}
}

func TestConcurrentFetches(t *testing.T) {
	e := newEnv(t, 32, Hooks{})
	var ids []page.ID
	for i := 0; i < 16; i++ {
		ids = append(ids, e.newPage(t, fmt.Sprintf("page-%d", i)))
	}
	if err := e.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := ids[(seed+i)%len(ids)]
				h, err := e.pool.Fetch(id)
				if err != nil {
					errs <- err
					return
				}
				h.RLock()
				_ = h.Page().Payload()
				h.RUnlock()
				h.Release()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestMarkDirtyKeepsFirstRecLSN(t *testing.T) {
	e := newEnv(t, 4, Hooks{})
	id := e.pmap.AllocateLogical()
	h, err := e.pool.Create(id, page.TypeRaw)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	// Create marks dirty with recLSN 0; flush to reset, then dirty twice.
	if err := e.pool.FlushPage(id); err != nil {
		t.Fatal(err)
	}
	h.MarkDirty(100)
	h.MarkDirty(200)
	dpt := e.pool.DirtyPages()
	if len(dpt) != 1 || dpt[0].RecLSN != 100 {
		t.Errorf("dpt = %v, want recLSN 100", dpt)
	}
}

func TestDirtyCountTracksTransitions(t *testing.T) {
	e := newEnv(t, 8, Hooks{})
	if n := e.pool.DirtyCount(); n != 0 {
		t.Fatalf("fresh pool dirty count %d", n)
	}
	ids := []page.ID{e.newPage(t, "a"), e.newPage(t, "b"), e.newPage(t, "c")}
	if n := e.pool.DirtyCount(); n != 3 {
		t.Fatalf("dirty count after 3 creates = %d, want 3", n)
	}
	if err := e.pool.FlushPage(ids[0]); err != nil {
		t.Fatal(err)
	}
	if n := e.pool.DirtyCount(); n != 2 {
		t.Fatalf("dirty count after one flush = %d, want 2", n)
	}
	// Re-dirtying a dirty page must not double count.
	h, err := e.pool.Fetch(ids[1])
	if err != nil {
		t.Fatal(err)
	}
	h.MarkDirty(99)
	h.MarkDirty(100)
	h.Release()
	if n := e.pool.DirtyCount(); n != 2 {
		t.Fatalf("dirty count after re-dirty = %d, want 2", n)
	}
	if err := e.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if n := e.pool.DirtyCount(); n != 0 {
		t.Fatalf("dirty count after FlushAll = %d, want 0", n)
	}
	e.pool.Crash()
	if n := e.pool.DirtyCount(); n != 0 {
		t.Fatalf("dirty count after Crash = %d, want 0", n)
	}
}

func TestFlushBatchDrainsAndGroupsAppends(t *testing.T) {
	var mu sync.Mutex
	var completed []page.ID
	hooks := Hooks{
		CompleteWrite: func(info WriteInfo) []*wal.Record {
			mu.Lock()
			completed = append(completed, info.Page)
			mu.Unlock()
			return []*wal.Record{{Type: wal.TypePRIUpdate, PageID: info.Page}}
		},
	}
	e := newEnv(t, 16, hooks)
	var ids []page.ID
	for i := 0; i < 10; i++ {
		ids = append(ids, e.newPage(t, fmt.Sprintf("page-%d", i)))
	}
	appendsBefore := e.log.Stats()
	n, err := e.pool.FlushBatch(4)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("first batch flushed %d, want 4", n)
	}
	if e.pool.DirtyCount() != 6 {
		t.Fatalf("dirty after first batch = %d, want 6", e.pool.DirtyCount())
	}
	for e.pool.DirtyCount() > 0 {
		if _, err := e.pool.FlushBatch(4); err != nil {
			t.Fatal(err)
		}
	}
	n, err = e.pool.FlushBatch(4)
	if err != nil || n != 0 {
		t.Fatalf("drained pool flushed %d (err %v), want 0", n, err)
	}
	// The batch path groups appends: one AppendBatch per non-empty batch,
	// one record per flushed page, no page flushed twice.
	ls := e.log.Stats()
	gotBatches := ls.BatchAppends - appendsBefore.BatchAppends
	if gotBatches < 3 {
		t.Fatalf("grouped appends = %d, want >= 3 (10 pages at batch cap 4)", gotBatches)
	}
	seen := make(map[page.ID]bool)
	for _, id := range completed {
		if seen[id] {
			t.Fatalf("page %d flushed twice", id)
		}
		seen[id] = true
	}
	if len(completed) != len(ids) {
		t.Fatalf("completed-write hook covered %d pages, want %d", len(completed), len(ids))
	}
	// Everything must actually be on the device.
	for _, id := range ids {
		if err := e.pool.Evict(id); err != nil {
			t.Fatal(err)
		}
		h, err := e.pool.Fetch(id)
		if err != nil {
			t.Fatalf("refetching %d: %v", id, err)
		}
		h.Release()
	}
}

func TestFlushPagesSkipsNonResident(t *testing.T) {
	var batched int
	e := newEnv(t, 8, Hooks{
		CompleteWrite: func(WriteInfo) []*wal.Record { batched++; return nil },
	})
	a := e.newPage(t, "a")
	b := e.newPage(t, "b")
	if err := e.pool.Evict(a); err != nil { // flushes + removes a
		t.Fatal(err)
	}
	batched = 0
	if err := e.pool.FlushPages([]page.ID{a, b, 999}); err != nil {
		t.Fatal(err)
	}
	if batched != 1 {
		t.Fatalf("batched hook saw %d writes, want 1 (only b)", batched)
	}
	if e.pool.DirtyCount() != 0 {
		t.Fatalf("dirty count %d after FlushPages", e.pool.DirtyCount())
	}
}

func TestPerPageFlushAppendsImmediately(t *testing.T) {
	// Per-page flushes (eviction, FlushPage) append their completed-write
	// records singly — no grouped append — preserving the Fig. 11
	// record-before-eviction sequence.
	e := newEnv(t, 8, Hooks{CompleteWrite: func(info WriteInfo) []*wal.Record {
		return []*wal.Record{{Type: wal.TypePRIUpdate, PageID: info.Page}}
	}})
	a := e.newPage(t, "x")
	before := e.log.Stats()
	if err := e.pool.FlushPage(a); err != nil {
		t.Fatal(err)
	}
	ls := e.log.Stats()
	if got := ls.BatchAppends - before.BatchAppends; got != 0 {
		t.Fatalf("per-page flush used %d grouped appends", got)
	}
	if got := ls.Appends - before.Appends; got != 1 {
		t.Fatalf("per-page flush appended %d records, want 1", got)
	}
}

// readFaultEnv wires the hooks the read-error tests observe: every re-read
// and every recovery is counted, and a recovery rebuilds the page with the
// payload "recovered" at the LSN the original carried.
type readFaultEnv struct {
	*env
	retries, recoveries atomic.Int64
	id                  page.ID
	phys                storage.PhysID
}

func newReadFaultEnv(t *testing.T, cfg Config) *readFaultEnv {
	t.Helper()
	r := &readFaultEnv{}
	var lsn page.LSN
	r.env = newEnvConfig(t, cfg, Hooks{
		OnReadRetry: func(page.ID) { r.retries.Add(1) },
		Recover: func(id page.ID, _ *page.Page) (*page.Page, bool, error) {
			r.recoveries.Add(1)
			pg := page.New(id, page.TypeRaw, 512)
			if err := pg.SetPayload([]byte("recovered")); err != nil {
				return nil, false, err
			}
			pg.SetLSN(lsn)
			return pg, false, nil
		},
	})
	r.id = r.newPage(t, "original")
	h, err := r.pool.Fetch(r.id)
	if err != nil {
		t.Fatal(err)
	}
	lsn = h.Page().LSN()
	h.Release()
	if err := r.pool.Evict(r.id); err != nil {
		t.Fatal(err)
	}
	r.phys, _ = r.pmap.Lookup(r.id)
	return r
}

// TestOneShotReadFaultAbsorbedByReRead: a read fault that fires once is
// absorbed by the immediate re-read — no recovery runs, the slot stays in
// service, and exactly one retry is counted.
func TestOneShotReadFaultAbsorbedByReRead(t *testing.T) {
	r := newReadFaultEnv(t, Config{Capacity: 4})
	r.dev.InjectFault(r.phys, storage.FaultReadError, false)
	reads := r.dev.Stats().Reads
	h, err := r.pool.Fetch(r.id)
	if err != nil {
		t.Fatalf("fetch with a one-shot fault: %v", err)
	}
	defer h.Release()
	if got := string(h.Page().Payload()); got != "original" {
		t.Errorf("payload = %q, want the device image", got)
	}
	if got := r.retries.Load(); got != 1 {
		t.Errorf("retries = %d, want 1", got)
	}
	if got := r.dev.Stats().Reads - reads; got != 2 {
		t.Errorf("device reads = %d, want the failed read and one re-read", got)
	}
	if r.recoveries.Load() != 0 || r.dev.RetiredCount() != 0 || r.pool.Stats().Recoveries != 0 {
		t.Errorf("one-shot fault ran %d recoveries and retired %d slots",
			r.recoveries.Load(), r.dev.RetiredCount())
	}
	if now, _ := r.pmap.Lookup(r.id); now != r.phys {
		t.Errorf("page moved from slot %d to %d", r.phys, now)
	}
}

// TestStickyReadFaultRepairedAfterReadRetries: a read fault that outlives
// the re-reads is a single-page failure. It is repaired after exactly
// ReadRetries re-reads, the page is taken off the failed slot, and the slot
// is retired with its image discarded.
func TestStickyReadFaultRepairedAfterReadRetries(t *testing.T) {
	for _, tc := range []struct {
		name             string
		cfgRetries, want int
	}{
		{"default", 0, 2},
		{"five", 5, 5},
		{"disabled", -1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newReadFaultEnv(t, Config{Capacity: 4, ReadRetries: tc.cfgRetries})
			r.dev.InjectFault(r.phys, storage.FaultReadError, true)
			reads := r.dev.Stats().Reads
			h, err := r.pool.Fetch(r.id)
			if err != nil {
				t.Fatalf("fetch with a sticky fault: %v", err)
			}
			defer h.Release()
			if got := string(h.Page().Payload()); got != "recovered" {
				t.Errorf("payload = %q, want the recovered page", got)
			}
			if got := r.retries.Load(); got != int64(tc.want) {
				t.Errorf("retries = %d, want %d", got, tc.want)
			}
			if got := r.dev.Stats().Reads - reads; got != int64(tc.want)+1 {
				t.Errorf("device reads = %d, want %d", got, tc.want+1)
			}
			if r.recoveries.Load() != 1 || r.pool.Stats().Recoveries != 1 {
				t.Errorf("recoveries = %d (pool %d), want 1", r.recoveries.Load(), r.pool.Stats().Recoveries)
			}
			if !r.dev.Retired(r.phys) || r.dev.RetiredCount() != 1 {
				t.Errorf("failed slot %d not retired (%d retired)", r.phys, r.dev.RetiredCount())
			}
			if r.dev.RawImage(r.phys) != nil {
				t.Error("retired slot keeps its image")
			}
			if _, bound := r.pmap.Lookup(r.id); bound {
				t.Error("recovered page still bound after its slot failed")
			}
		})
	}
}

// TestConcurrentFaultersShareOneLoad: a page has one loader. N fetches of
// one page with a sticky read fault, the first held inside the Recover
// hook until the other N-1 are parked on its load: the page is read once
// plus ReadRetries re-reads and recovered once, and either all N get a
// handle to the one frame, or — when recovery fails — all N get the one
// ErrPageFailed of a single escalation.
func TestConcurrentFaultersShareOneLoad(t *testing.T) {
	const n = 8
	for _, tc := range []struct {
		name    string
		recover error
	}{
		{"repaired", nil},
		{"escalated", errors.New("no backup")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newReadFaultEnv(t, Config{Capacity: 4})
			hooks := *r.pool.getHooks()
			rebuild := hooks.Recover
			entered, gate := make(chan struct{}), make(chan struct{})
			hooks.Recover = func(id page.ID, have *page.Page) (*page.Page, bool, error) {
				close(entered) // a second call panics: one recovery per load
				<-gate
				pg, fromHave, err := rebuild(id, have)
				if tc.recover != nil {
					return nil, false, tc.recover
				}
				return pg, fromHave, err
			}
			r.pool.SetHooks(hooks)
			r.dev.InjectFault(r.phys, storage.FaultReadError, true)
			reads := r.dev.Stats().Reads

			type result struct {
				h   *Handle
				err error
			}
			results := make(chan result, n)
			for i := 0; i < n; i++ {
				go func() {
					h, err := r.pool.Fetch(r.id)
					results <- result{h, err}
				}()
			}
			<-entered
			s := r.pool.shardOf(r.id)
			for parked := int32(0); parked < n-1; runtime.Gosched() {
				s.mu.Lock()
				parked = s.loads[r.id].waiters
				s.mu.Unlock()
			}
			close(gate)

			first := <-results
			for i := 1; i < n; i++ {
				if got := <-results; got != first {
					t.Fatalf("fetch %d got (%p, %v), the first (%p, %v)", i, got.h, got.err, first.h, first.err)
				}
			}
			if got := r.dev.Stats().Reads - reads; got != 3 {
				t.Errorf("device reads = %d, want the failed read and two re-reads", got)
			}
			if r.retries.Load() != 2 || r.recoveries.Load() != 1 {
				t.Errorf("retries %d, recoveries %d; want 2, 1", r.retries.Load(), r.recoveries.Load())
			}
			st := r.pool.Stats()
			if st.Misses != n || st.ValidationFailures != 1 {
				t.Errorf("misses %d, validation failures %d; want %d, 1", st.Misses, st.ValidationFailures, n)
			}
			if len(s.loads) != 0 {
				t.Errorf("%d loads left in flight", len(s.loads))
			}
			if tc.recover != nil {
				if !errors.Is(first.err, ErrPageFailed) || st.Escalations != 1 || st.Recoveries != 0 {
					t.Errorf("err = %v, escalations %d, recoveries %d", first.err, st.Escalations, st.Recoveries)
				}
				if r.pool.IsResident(r.id) || r.pool.used.Load() != 0 {
					t.Errorf("failed load left a frame or a reservation (used %d)", r.pool.used.Load())
				}
				return
			}
			if first.err != nil {
				t.Fatal(first.err)
			}
			if st.Recoveries != 1 || st.Escalations != 0 || !r.dev.Retired(r.phys) {
				t.Errorf("recoveries %d, escalations %d, slot retired %v", st.Recoveries, st.Escalations, r.dev.Retired(r.phys))
			}
			if pins := first.h.f.pins.Load(); pins != n {
				t.Errorf("pins = %d, want one per fetch", pins)
			}
			for i := 0; i < n; i++ {
				first.h.Release()
			}
			if err := r.pool.Evict(r.id); err != nil {
				t.Errorf("evict after every release: %v", err)
			}
		})
	}
}

// loadOutcomeEnv is a pool over a page with two flushed versions' worth of
// history, a Validate hook that refuses an image below the expected LSN,
// and a fake Recover hook whose verdict on the offered image the test sets.
type loadOutcomeEnv struct {
	*env
	id         page.ID
	expect     page.LSN   // Validate refuses images below it
	useHave    bool       // the fake recovery builds on the offered image
	offered    *page.Page // what the last recovery was offered
	calls      int
	writes     []WriteInfo
	recoverErr error // returned by Recover when set
}

func newLoadOutcomeEnv(t *testing.T) *loadOutcomeEnv {
	t.Helper()
	o := &loadOutcomeEnv{}
	dev := storage.NewDevice(storage.Config{PageSize: 512, Slots: 256, Profile: iosim.Instant})
	pm := pagemap.New(256)
	log := wal.NewManager(iosim.Instant)
	o.env = &env{dev: dev, pmap: pm, log: log, pool: NewPool(Config{Capacity: 4, Device: dev, Map: pm, Log: log, Hooks: Hooks{
		Validate: func(pg *page.Page) error {
			if pg.LSN() < o.expect {
				return fmt.Errorf("PageLSN %d below %d", pg.LSN(), o.expect)
			}
			return nil
		},
		Recover: func(id page.ID, have *page.Page) (*page.Page, bool, error) {
			o.calls++
			o.offered = have
			if o.recoverErr != nil {
				return nil, false, o.recoverErr
			}
			pg := have
			if !o.useHave || have == nil {
				pg = page.New(id, page.TypeRaw, 512)
			}
			if err := pg.SetPayload([]byte("recovered")); err != nil {
				return nil, false, err
			}
			pg.SetLSN(o.expect)
			return pg, pg == have, nil
		},
		CompleteWrite: func(info WriteInfo) []*wal.Record {
			o.writes = append(o.writes, info)
			return nil
		},
	}})}
	o.id = o.newPage(t, "original")
	if err := o.pool.Evict(o.id); err != nil {
		t.Fatal(err)
	}
	return o
}

// TestLoadOutcomes: what a load does to the page's slot is decided by what
// the slot returned (loadPage).
func TestLoadOutcomes(t *testing.T) {
	// Stale but sound, and recovery built on it: the slot works. It keeps
	// the page, nothing is retired, and write-back overwrites it in place.
	t.Run("stale image used as base", func(t *testing.T) {
		o := newLoadOutcomeEnv(t)
		phys, _ := o.pmap.Lookup(o.id)
		stale := o.writes[0].PageLSN
		o.expect, o.useHave = stale+10, true
		reads := o.dev.Stats().Reads
		h, err := o.pool.Fetch(o.id)
		if err != nil {
			t.Fatal(err)
		}
		defer h.Release()
		if o.calls != 1 || o.offered == nil || h.Page() != o.offered {
			t.Fatalf("recover calls %d, offered %v, installed the offered image: %v", o.calls, o.offered, h.Page() == o.offered)
		}
		if got := o.dev.Stats().Reads - reads; got != 1 {
			t.Errorf("device reads = %d, want the one that loaded the base", got)
		}
		if now, bound := o.pmap.Lookup(o.id); !bound || now != phys || o.dev.RetiredCount() != 0 {
			t.Errorf("slot %d → %d (bound %v), %d retired; want the binding kept", phys, now, bound, o.dev.RetiredCount())
		}
		if !h.Dirty() {
			t.Error("recovered page not dirty")
		}
		if err := o.pool.FlushPage(o.id); err != nil {
			t.Fatal(err)
		}
		if w := o.writes[len(o.writes)-1]; w.Dest != phys || w.PageLSN != o.expect {
			t.Errorf("write-back %+v, want slot %d at LSN %d", w, phys, o.expect)
		}
		if st := o.pool.Stats(); st.ValidationFailures != 1 || st.Recoveries != 1 || st.Escalations != 0 {
			t.Errorf("stats %+v", st)
		}
	})
	// Sound, offered, turned down (older than the backup, off the chain, or
	// refused by the engine): the slot does not hold a usable version.
	t.Run("stale image rejected", func(t *testing.T) {
		o := newLoadOutcomeEnv(t)
		phys, _ := o.pmap.Lookup(o.id)
		o.expect = o.writes[0].PageLSN + 10
		h, err := o.pool.Fetch(o.id)
		if err != nil {
			t.Fatal(err)
		}
		defer h.Release()
		if o.offered == nil || h.Page() == o.offered {
			t.Fatalf("offered %v, installed it: %v", o.offered, h.Page() == o.offered)
		}
		if _, bound := o.pmap.Lookup(o.id); bound || !o.dev.Retired(phys) {
			t.Errorf("bound %v, slot retired %v; want the page off a retired slot", bound, o.dev.Retired(phys))
		}
		if err := o.pool.FlushPage(o.id); err != nil {
			t.Fatal(err)
		}
		if w := o.writes[len(o.writes)-1]; w.Dest == phys {
			t.Errorf("write-back %+v, want a fresh slot", w)
		}
	})
	// Damaged: nothing is offered.
	t.Run("damaged image", func(t *testing.T) {
		o := newLoadOutcomeEnv(t)
		phys, _ := o.pmap.Lookup(o.id)
		if err := o.dev.CorruptStored(phys); err != nil {
			t.Fatal(err)
		}
		o.useHave = true
		h, err := o.pool.Fetch(o.id)
		if err != nil {
			t.Fatal(err)
		}
		defer h.Release()
		if o.calls != 1 || o.offered != nil {
			t.Fatalf("recover calls %d, offered %v; want one call with nothing", o.calls, o.offered)
		}
		if _, bound := o.pmap.Lookup(o.id); bound || !o.dev.Retired(phys) {
			t.Errorf("bound %v, slot retired %v", bound, o.dev.Retired(phys))
		}
	})
	// No slot: no device read, nothing to retire, recovery from nothing.
	t.Run("no slot", func(t *testing.T) {
		o := newLoadOutcomeEnv(t)
		phys, _ := o.pmap.Lookup(o.id)
		o.pmap.Unbind(o.id)
		reads := o.dev.Stats().Reads
		h, err := o.pool.Fetch(o.id)
		if err != nil {
			t.Fatal(err)
		}
		if o.calls != 1 || o.offered != nil || string(h.Page().Payload()) != "recovered" || !h.Dirty() {
			t.Errorf("recover calls %d, offered %v, payload %q, dirty %v", o.calls, o.offered, h.Page().Payload(), h.Dirty())
		}
		h.Release()
		if o.dev.Stats().Reads != reads || o.dev.Retired(phys) {
			t.Errorf("%d device reads, slot retired %v; want neither", o.dev.Stats().Reads-reads, o.dev.Retired(phys))
		}
		if st := o.pool.Stats(); st.ValidationFailures != 0 || st.Recoveries != 1 {
			t.Errorf("stats %+v", st)
		}
	})
	// No slot and the engine knows nothing of the page either: not a
	// failure. Any other recovery error is one.
	t.Run("no slot, nothing known", func(t *testing.T) {
		o := newLoadOutcomeEnv(t)
		o.pmap.Unbind(o.id)
		o.recoverErr = fmt.Errorf("%w: no index entry", ErrNeverWritten)
		if _, err := o.pool.Fetch(o.id); !errors.Is(err, ErrNeverWritten) || errors.Is(err, ErrPageFailed) {
			t.Errorf("fetch: %v, want ErrNeverWritten alone", err)
		}
		if st := o.pool.Stats(); st.Escalations != 0 {
			t.Errorf("%d escalations", st.Escalations)
		}
		o.recoverErr = errors.New("backup unreadable")
		if _, err := o.pool.Fetch(o.id); !errors.Is(err, ErrPageFailed) {
			t.Errorf("fetch: %v, want ErrPageFailed", err)
		}
		if st := o.pool.Stats(); st.Escalations != 1 {
			t.Errorf("%d escalations, want 1", st.Escalations)
		}
	})
}

// TestWriteInfoCountsUpdatesSinceTheLastWriteBack: each write-back reports
// the MarkDirty calls since the frame's previous one, and the image it
// wrote; the count goes with the write-back that takes it, so an eviction
// loses none and a re-loaded frame starts from zero.
func TestWriteInfoCountsUpdatesSinceTheLastWriteBack(t *testing.T) {
	var writes []WriteInfo
	e := newEnv(t, 4, Hooks{CompleteWrite: func(info WriteInfo) []*wal.Record {
		if info.Image == nil || info.Image.LSN() != info.PageLSN {
			t.Errorf("write of page %d at LSN %d handed image %v", info.Page, info.PageLSN, info.Image)
		}
		writes = append(writes, info)
		return nil
	}})
	id := e.newPage(t, "counted") // its format record: one update
	update := func(times int) {
		t.Helper()
		h, err := e.pool.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < times; i++ {
			h.Lock()
			lsn := e.log.Append(&wal.Record{Type: wal.TypeUpdate, Txn: 1, PageID: id, PagePrevLSN: h.Page().LSN()})
			h.Page().SetLSN(lsn)
			h.MarkDirty(lsn)
			h.Unlock()
		}
		h.Release()
	}
	update(2)
	if err := e.pool.FlushPage(id); err != nil {
		t.Fatal(err)
	}
	update(3)
	if err := e.pool.Evict(id); err != nil {
		t.Fatal(err)
	}
	update(1) // a fresh frame, loaded clean
	if err := e.pool.FlushPage(id); err != nil {
		t.Fatal(err)
	}
	var got []int
	for _, w := range writes {
		got = append(got, w.Updates)
	}
	if fmt.Sprint(got) != "[3 3 1]" {
		t.Fatalf("write-backs reported %v updates, want [3 3 1]", got)
	}
}

// TestWriteBackRefusedOnceTheLogIsSealed: the write-ahead rule holds across
// a crash. A page whose record the crash left above the sealed log's stable
// prefix is never written — the device is untouched and the page stays
// dirty — and the write-back reports wal.ErrSealed; a page whose log
// survived is written as before.
func TestWriteBackRefusedOnceTheLogIsSealed(t *testing.T) {
	e := newEnv(t, 4, Hooks{})
	durable := e.newPage(t, "logged")
	e.log.FlushAll()
	lost := e.newPage(t, "unlogged")
	e.log.Crash()
	writes := e.dev.Stats().Writes
	if err := e.pool.FlushPage(lost); !errors.Is(err, wal.ErrSealed) {
		t.Fatalf("write-back of a page whose log the crash cut = %v, want wal.ErrSealed", err)
	}
	if got := e.dev.Stats().Writes; got != writes || !e.pool.IsDirty(lost) {
		t.Fatalf("refused write-back reached the device (%d -> %d writes) or cleaned the frame", writes, got)
	}
	if err := e.pool.FlushPage(durable); err != nil {
		t.Fatalf("write-back of a page whose log survived: %v", err)
	}
	if got := e.dev.Stats().Writes; got != writes+1 {
		t.Fatalf("device writes %d -> %d, want one", writes, got)
	}
}
