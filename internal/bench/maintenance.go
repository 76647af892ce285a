package bench

// Drivers for E21 async write-back and E22 scrub campaign overhead, on a
// standalone pool below the spf facade.

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/clock"
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
// hot path) while a started scrub campaign sweeps underneath at its fixed
// pace (on=false leaves it off: the baseline). Cold pages spread through
// the extent carry persistent corruption, so an enabled campaign does real
// repair work, not just clean scans. It returns the pages the campaign
// scrubbed inside the timed loop, and fails when an enabled campaign
// scrubbed none over a tick or more of the loop.
func scrubOverhead(b *testing.B, on bool) float64 {
	const (
		hot       = 248
		cold      = 4096 // a sweep of ~2.2 s at 2000 pages/s: longer than a run
		capacity  = 1024
		corrupted = 8
		tick      = 32 * time.Millisecond // the campaign's tick
	)
	e := newWriteBackEnv(b, capacity, 2*cold)
	// The pool needs a recovery hook for repairs.
	e.pool.SetHooks(buffer.Hooks{
		Recover: func(id page.ID, _ *page.Page) (*page.Page, bool, error) {
			pg := page.New(id, page.TypeRaw, 4096)
			if err := pg.SetPayload([]byte(fmt.Sprintf("recovered-%d", id))); err != nil {
				return nil, false, err
			}
			return pg, false, nil
		},
	})
	coldIDs := e.seedPages(b, cold)
	ids := e.seedPages(b, hot)
	// Latent damage on cold (evicted) pages only: the resident hot set
	// keeps serving the foreground; only the campaign goes to the device.
	for i := 1; i <= corrupted; i++ {
		id := coldIDs[i*cold/(corrupted+1)]
		if err := e.pool.Evict(id); err != nil && !errors.Is(err, buffer.ErrNotResident) {
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

	// On, a started maintenance.Service runs the campaign on a manual
	// clock, stepped to its first sweep (a service waits a sweep period
	// before it) and then advanced every 1024 fetches by the wall time the
	// timed loop has taken: the service's own loop sweeps at its real pace
	// beside the foreground, on the same P, for the whole run.
	var svc *maintenance.Service
	var clk *clock.Clock
	var before int64
	if on {
		clk = clock.NewManual()
		svc = maintenance.New(maintenance.Deps{
			Dev:         e.dev,
			MappedSlots: e.pmap.MappedSlots,
			Repair: func(id page.ID) error {
				// Cold pages are unpinned; not-resident just means no
				// cached copy to drop.
				if err := e.pool.Evict(id); err != nil && !errors.Is(err, buffer.ErrNotResident) {
					return err
				}
				h, err := e.pool.Fetch(id)
				if err != nil {
					return err
				}
				h.Release()
				return nil
			},
			Clock: clk,
		})
		svc.Start()
		defer svc.Stop()
		for before == 0 {
			clk.Advance(tick)
			before = svc.Stats().PagesScrubbed
		}
	}

	b.ResetTimer()
	start := time.Now()
	var stepped time.Duration
	for n := 0; n < b.N; n++ {
		h, err := e.pool.Fetch(ids[n%hot])
		if err != nil {
			b.Fatal(err)
		}
		h.Release()
		if on && n%1024 == 1023 {
			elapsed := time.Since(start)
			clk.Advance(elapsed - stepped)
			stepped = elapsed
		}
	}
	b.StopTimer()
	if !on {
		return 0
	}
	scrubbed := svc.Stats().PagesScrubbed - before
	if scrubbed == 0 && stepped >= tick {
		b.Fatalf("campaign scrubbed nothing over %v of the timed loop", stepped)
	}
	return float64(scrubbed)
}
