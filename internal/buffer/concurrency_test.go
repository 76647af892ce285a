package buffer

import (
	"errors"
	"fmt"
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

// TestConcurrentMixedOpsWithFaults hammers one sharded pool from many
// goroutines running the full operation mix — Fetch, MarkDirty, Release,
// FlushPage, Evict — while device faults are injected underneath, and then
// checks that every single-page failure was recovered off its slot: the
// recovered pages live on fresh slots and every failed slot is on the
// bad-block list. Run with -race.
func TestConcurrentMixedOpsWithFaults(t *testing.T) {
	const (
		workers  = 8
		opsPer   = 400
		nPages   = 48
		capacity = 16
		slots    = 4096
	)
	recoverPayload := []byte("rebuilt-by-single-page-recovery")
	var recoverCalls atomic.Int64
	hooks := Hooks{
		Recover: func(id page.ID, _ *page.Page) (*page.Page, bool, error) {
			recoverCalls.Add(1)
			pg := page.New(id, page.TypeRaw, 512)
			if err := pg.SetPayload(recoverPayload); err != nil {
				return nil, false, err
			}
			return pg, false, nil
		},
	}
	dev := storage.NewDevice(storage.Config{PageSize: 512, Slots: slots, Profile: iosim.Instant})
	pm := pagemap.New(slots)
	log := wal.NewManager(iosim.Instant)
	pool := NewPool(Config{Capacity: capacity, Device: dev, Map: pm, Log: log, Hooks: hooks})

	ids := make([]page.ID, nPages)
	for i := range ids {
		id := pm.AllocateLogical()
		h, err := pool.Create(id, page.TypeRaw)
		if err != nil {
			t.Fatal(err)
		}
		h.Lock()
		if err := h.Page().SetPayload([]byte(fmt.Sprintf("initial-%d", id))); err != nil {
			t.Fatal(err)
		}
		lsn := log.Append(&wal.Record{Type: wal.TypeFormat, Txn: 1, PageID: id})
		h.Page().SetLSN(lsn)
		h.Unlock()
		h.MarkDirty(lsn)
		h.Release()
		ids[i] = id
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				id := ids[(seed*31+i)%nPages]
				switch i % 6 {
				case 0, 1: // plain read
					h, err := fetchRetry(pool, id)
					if err != nil {
						errs <- fmt.Errorf("fetch %d: %w", id, err)
						return
					}
					h.RLock()
					_ = h.Page().Payload()
					h.RUnlock()
					h.Release()
				case 2: // logged update
					h, err := fetchRetry(pool, id)
					if err != nil {
						errs <- fmt.Errorf("fetch-for-update %d: %w", id, err)
						return
					}
					h.Lock()
					lsn := log.Append(&wal.Record{Type: wal.TypeUpdate, Txn: wal.TxnID(seed + 2), PageID: id})
					if err := h.Page().SetPayload([]byte(fmt.Sprintf("w%d-i%d", seed, i))); err != nil {
						h.Unlock()
						h.Release()
						errs <- err
						return
					}
					h.Page().SetLSN(lsn)
					h.MarkDirty(lsn)
					h.Unlock()
					h.Release()
				case 3: // write-back
					if err := pool.FlushPage(id); err != nil && !errors.Is(err, ErrNotResident) {
						errs <- fmt.Errorf("flush %d: %w", id, err)
						return
					}
				case 4: // forced eviction
					err := pool.Evict(id)
					if err != nil && !errors.Is(err, ErrNotResident) && !errors.Is(err, ErrPinned) {
						errs <- fmt.Errorf("evict %d: %w", id, err)
						return
					}
				case 5: // fault injection on the page's current slot
					if phys, ok := pm.Lookup(id); ok && !dev.Retired(phys) {
						kind := storage.FaultSilentCorruption
						if i%2 == 0 {
							kind = storage.FaultReadError
						}
						dev.InjectFault(phys, kind, false)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Faults were injected on live slots and the working set vastly
	// exceeds the pool capacity, so some reads must have hit a fault and
	// recovered through the hook.
	stats := pool.Stats()
	if stats.Recoveries == 0 || recoverCalls.Load() == 0 {
		t.Fatalf("no recoveries recorded: stats=%+v hookCalls=%d", stats, recoverCalls.Load())
	}
	if stats.Escalations != 0 {
		t.Fatalf("unexpected escalations: %+v", stats)
	}
	// Every recovery must have left its slot: the failed slots are retired,
	// and no live mapping points at a retired slot.
	if dev.RetiredCount() == 0 {
		t.Fatal("recoveries happened but no slot was retired")
	}
	for slot, id := range pm.MappedSlots() {
		if dev.Retired(slot) {
			t.Errorf("page %d still mapped to retired slot %d", id, slot)
		}
	}
	// The pool must still be coherent: every page fetchable, capacity
	// respected, and a final flush leaves no dirty pages behind.
	if r := pool.Resident(); r > capacity {
		t.Errorf("resident %d exceeds capacity %d", r, capacity)
	}
	for _, id := range ids {
		h, err := fetchRetry(pool, id)
		if err != nil {
			t.Fatalf("post-run fetch %d: %v", id, err)
		}
		h.Release()
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if dpt := pool.DirtyPages(); len(dpt) != 0 {
		t.Errorf("dirty pages after FlushAll: %v", dpt)
	}
}

// fetchRetry absorbs transient ErrPoolFull: under heavy contention every
// frame can momentarily be pinned by the other workers.
func fetchRetry(pool *Pool, id page.ID) (*Handle, error) {
	var err error
	for i := 0; i < 64; i++ {
		var h *Handle
		h, err = pool.Fetch(id)
		if err == nil {
			return h, nil
		}
		if !errors.Is(err, ErrPoolFull) {
			return nil, err
		}
	}
	return nil, err
}

// TestConcurrentFlushBatchWithMutators races two background batch
// flushers against foreground updaters and explicit evictions: dirty
// accounting must stay exact (never negative, zero once quiesced and
// drained) and no update may be lost to a flush/dirty race.
func TestConcurrentFlushBatchWithMutators(t *testing.T) {
	e := newEnv(t, 64, Hooks{})
	const nPages = 32
	ids := make([]page.ID, nPages)
	for i := range ids {
		ids[i] = e.newPage(t, fmt.Sprintf("seed-%d", i))
	}
	if err := e.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	versions := make([]atomic.Int64, nPages)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				k := (w*7 + i*3) % nPages
				h, err := e.pool.Fetch(ids[k])
				if err != nil {
					t.Errorf("fetch: %v", err)
					return
				}
				h.Lock()
				v := versions[k].Add(1)
				if err := h.Page().SetPayload([]byte(fmt.Sprintf("p%d-v%d", k, v))); err != nil {
					t.Errorf("set payload: %v", err)
				}
				lsn := e.log.Append(&wal.Record{Type: wal.TypeUpdate, Txn: 1, PageID: ids[k]})
				h.Page().SetLSN(lsn)
				h.MarkDirty(lsn)
				h.Unlock()
				h.Release()
			}
		}(w)
	}
	for f := 0; f < 2; f++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if _, err := e.pool.FlushBatch(8); err != nil {
					t.Errorf("flush batch: %v", err)
					return
				}
				if n := e.pool.DirtyCount(); n < 0 {
					t.Errorf("dirty count went negative: %d", n)
					return
				}
			}
		}()
	}
	time.Sleep(200 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	for e.pool.DirtyCount() > 0 {
		if _, err := e.pool.FlushBatch(8); err != nil {
			t.Fatal(err)
		}
	}
	// Every page's latest version must be durable: evict and re-read.
	for k, id := range ids {
		if err := e.pool.Evict(id); err != nil && !errors.Is(err, ErrNotResident) {
			t.Fatal(err)
		}
		h, err := e.pool.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		h.RLock()
		got := string(h.Page().Payload())
		h.RUnlock()
		h.Release()
		want := fmt.Sprintf("p%d-v%d", k, versions[k].Load())
		if versions[k].Load() == 0 {
			want = fmt.Sprintf("seed-%d", k)
		}
		if got != want {
			t.Errorf("page %d: durable payload %q, want %q", id, got, want)
		}
	}
	if n := e.pool.DirtyCount(); n != 0 {
		t.Errorf("dirty count %d after full drain", n)
	}
}
