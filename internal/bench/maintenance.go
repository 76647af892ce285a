package bench

// Drivers for E21 async write-back and E22 scrub campaign overhead, on a
// standalone pool below the spf facade.

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/iosim"
	"repro/internal/maintenance"
	"repro/internal/page"
	"repro/internal/pagemap"
	"repro/internal/storage"
	"repro/internal/wal"
)

// writeBackEnv is the standalone engine slice the driver runs against: a
// buffer pool over a simulated device, with hooks that mimic the engine's
// completed-write logging (one PRI update record per page write, grouped
// through AppendBatch on the batched path).
type writeBackEnv struct {
	dev  *storage.Device
	pmap *pagemap.Map
	log  *wal.Manager
	pool *buffer.Pool
}

func newWriteBackEnv(b *testing.B, capacity, slots int) *writeBackEnv {
	b.Helper()
	e := &writeBackEnv{
		dev:  storage.NewDevice(storage.Config{PageSize: 4096, Slots: slots, Profile: iosim.Instant}),
		pmap: pagemap.New(slots),
		log:  wal.NewManager(iosim.Instant),
	}
	priPayload := make([]byte, 32)
	e.pool = buffer.NewPool(buffer.Config{
		Capacity: capacity, Device: e.dev, Map: e.pmap, Log: e.log,
		Hooks: buffer.Hooks{
			// Mimic the engine's completed-write logging: one PRI update
			// record per page write, appended by the pool (singly on the
			// synchronous path, grouped per batch on the async path).
			CompleteWrite: func(info buffer.WriteInfo) []*wal.Record {
				return []*wal.Record{{
					Type: wal.TypePRIUpdate, PageID: info.Page, Payload: priPayload,
				}}
			},
		},
	})
	return e
}

func (e *writeBackEnv) seedPages(b *testing.B, n int) []page.ID {
	b.Helper()
	ids := make([]page.ID, n)
	payload := []byte("bench-seed-payload")
	for i := range ids {
		id := e.pmap.AllocateLogical()
		h, err := e.pool.Create(id, page.TypeRaw)
		if err != nil {
			b.Fatal(err)
		}
		h.Lock()
		if err := h.Page().SetPayload(payload); err != nil {
			b.Fatal(err)
		}
		lsn := e.log.Append(&wal.Record{Type: wal.TypeFormat, Txn: 1, PageID: id})
		h.Page().SetLSN(lsn)
		h.MarkDirty(lsn)
		h.Unlock()
		h.Release()
		ids[i] = id
	}
	if err := e.pool.FlushAll(); err != nil {
		b.Fatal(err)
	}
	return ids
}

// writeBack drives b.N page updates over a hot set of pages and makes them
// all durable, under one of the two flush policies:
//
//   - async=false — the old foreground discipline: every update pays a
//     synchronous write-back (write + PRI log append) before the next
//     update proceeds, the latency evictions and checkpoints used to pay.
//   - async=true — updates only mark pages dirty and prod the maintenance
//     service; its flusher drains batches concurrently once the dirty
//     count reaches its watermark, each batch logging its PRI updates as
//     one grouped append. Re-dirtied hot pages coalesce into one write per
//     drain.
//
// Both modes end fully flushed (the async run stops the service and drains
// the remainder), so the durability work is equivalent. It returns the
// write amplification, device writes per update.
func writeBack(b *testing.B, async bool) float64 {
	const (
		// The hot set is twice the flusher's watermark, a quarter of the
		// pool: pool pressure is write-back's only trigger, so a hot set
		// below it would leave the drain to the final flush, outside the
		// claim.
		hotPages = 512
		capacity = 1024
	)
	e := newWriteBackEnv(b, capacity, 16384)
	ids := e.seedPages(b, hotPages)
	// Everything below reports deltas: seeding itself flushed (and
	// group-appended) once.
	writesBefore := e.dev.Stats().Writes
	batchesBefore := e.log.Stats().BatchAppends

	var svc *maintenance.Service
	if async {
		// Pool only, so no scrub campaign: E22 measures it separately.
		svc = maintenance.New(maintenance.Deps{Pool: e.pool})
		svc.Start()
	}

	payload := make([]byte, 100)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		id := ids[n%hotPages]
		h, err := e.pool.Fetch(id)
		if err != nil {
			b.Fatal(err)
		}
		h.Lock()
		if err := h.Page().SetPayload(payload); err != nil {
			b.Fatal(err)
		}
		lsn := e.log.Append(&wal.Record{Type: wal.TypeUpdate, Txn: 1, PageID: id})
		h.Page().SetLSN(lsn)
		h.MarkDirty(lsn)
		h.Unlock()
		h.Release()
		if async {
			svc.NotifyDirty()
		} else if err := e.pool.FlushPage(id); err != nil {
			b.Fatal(err)
		}
	}
	var drained int64
	if async {
		drained = svc.Stats().FlushBatches
		svc.Stop()
		if err := e.pool.FlushAll(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if d := e.pool.DirtyCount(); d != 0 {
		b.Fatalf("%d pages left dirty", d)
	}
	updates := int64(b.N)
	writes := e.dev.Stats().Writes - writesBefore
	batches := e.log.Stats().BatchAppends - batchesBefore
	switch {
	case !async && writes < updates:
		// Write-through pays one device write and one PRI append per
		// update, and nothing is grouped.
		b.Fatalf("sync mode wrote %d pages for %d updates", writes, updates)
	case !async && batches != 0:
		b.Fatalf("sync mode used %d grouped appends", batches)
	case async && writes > updates:
		b.Fatalf("async mode wrote %d pages for %d updates", writes, updates)
	case async && b.N >= 4096 && batches == 0:
		// Only meaningful once the workload dwarfs the hot set: batching
		// must group PRI appends and coalesce re-dirtied pages to well
		// under half the synchronous write count.
		b.Fatal("async mode never grouped a PRI append")
	case async && b.N >= 4096 && 2*writes >= updates:
		b.Fatalf("async coalescing too weak: %d writes for %d updates", writes, updates)
	case async && b.N >= 1<<18 && drained == 0:
		// A loop this long outlasts the scheduler's 10 ms time slice many
		// times over, so even on one P the kicked flusher has run.
		b.Fatalf("the flusher drained nothing inside %d updates", updates)
	}
	return float64(writes) / float64(updates)
}

// scrubOverhead drives b.N foreground fetches (buffer hits — the engine's
// hot path) while the scrub campaign's tick runs underneath at its fixed
// pace (on=false leaves it off: the baseline). A slice of cold pages carries
// persistent corruption, so an enabled campaign does real repair work, not
// just clean scans. It returns the pages the campaign scrubbed, and fails
// when an enabled campaign made no progress.
func scrubOverhead(b *testing.B, on bool) float64 {
	const (
		nPages    = 256
		capacity  = 1024
		corrupted = 8
	)
	e := newWriteBackEnv(b, capacity, 2048)
	// The pool needs a recovery hook for repairs.
	hooks := buffer.Hooks{
		Recover: func(id page.ID, _ *page.Page) (*page.Page, bool, error) {
			pg := page.New(id, page.TypeRaw, 4096)
			if err := pg.SetPayload([]byte(fmt.Sprintf("recovered-%d", id))); err != nil {
				return nil, false, err
			}
			return pg, false, nil
		},
	}
	e.pool.SetHooks(hooks)
	ids := e.seedPages(b, nPages)
	// Latent damage on cold (evicted) pages only: the resident hot set
	// keeps serving the foreground; only the campaign goes to the device.
	for i := 0; i < corrupted; i++ {
		id := ids[nPages-1-i]
		if err := e.pool.Evict(id); err != nil {
			b.Fatal(err)
		}
		slot, ok := e.pmap.Lookup(id)
		if !ok {
			b.Fatal("cold page has no slot")
		}
		if err := e.dev.CorruptStored(slot); err != nil {
			b.Fatal(err)
		}
	}

	// On, a goroutine runs the campaign's tick — maintenance.Scrub over the
	// next ScrubBatchPages slots every ScrubInterval — sweep after sweep:
	// what a started campaign costs while it sweeps, without waiting out
	// the service's 10 s until its first sweep.
	var scrubbed atomic.Int64
	quit, done := make(chan struct{}), make(chan struct{})
	if on {
		repair := func(id page.ID) error {
			// Cold pages are unpinned; not-resident just means no cached
			// copy to drop.
			if err := e.pool.Evict(id); err != nil && !errors.Is(err, buffer.ErrNotResident) {
				return err
			}
			h, err := e.pool.Fetch(id)
			if err != nil {
				return err
			}
			h.Release()
			return nil
		}
		go func() {
			defer close(done)
			ticker := time.NewTicker(maintenance.ScrubInterval)
			defer ticker.Stop()
			var cursor storage.PhysID
			var mapped map[storage.PhysID]page.ID
			for {
				select {
				case <-quit:
					return
				case <-ticker.C:
				}
				if cursor == 0 {
					mapped = e.pmap.MappedSlots() // once per sweep, as the campaign does
				}
				t, next, _ := maintenance.Scrub(e.dev, mapped, cursor, maintenance.ScrubBatchPages, repair)
				cursor = next
				scrubbed.Add(int64(t.Scanned))
			}
		}()
	}

	hot := nPages - corrupted
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		h, err := e.pool.Fetch(ids[n%hot])
		if err != nil {
			b.Fatal(err)
		}
		h.Release()
	}
	b.StopTimer()
	if !on {
		return 0
	}
	// Outside the timed region, give the campaign a moment to show life: on
	// a single-core runner the foreground loop starves the scrub goroutine,
	// and asserting progress without this grace window would be a scheduler
	// lottery.
	deadline := time.Now().Add(2 * time.Second)
	for scrubbed.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(quit)
	<-done
	if scrubbed.Load() == 0 {
		b.Fatal("campaign made no progress during the run")
	}
	return float64(scrubbed.Load())
}
