package maintenance

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/buffer"
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
	pool *buffer.Pool
}

func newEnv(t *testing.T, capacity, slots int) *env {
	t.Helper()
	e := &env{
		dev:  storage.NewDevice(storage.Config{PageSize: 512, Slots: slots, Profile: iosim.Instant}),
		pmap: pagemap.New(slots),
		log:  wal.NewManager(iosim.Instant),
	}
	e.pool = buffer.NewPool(buffer.Config{
		Capacity: capacity, Device: e.dev, Map: e.pmap, Log: e.log,
		Hooks: buffer.Hooks{
			Recover: func(id page.ID, _ *page.Page) (*page.Page, bool, error) {
				pg := page.New(id, page.TypeRaw, 512)
				if err := pg.SetPayload([]byte(fmt.Sprintf("recovered-%d", id))); err != nil {
					return nil, false, err
				}
				return pg, false, nil
			},
		},
	})
	return e
}

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
	lsn := e.log.Append(&wal.Record{Type: wal.TypeFormat, Txn: 1, PageID: id})
	h.Page().SetLSN(lsn)
	h.MarkDirty(lsn)
	h.Unlock()
	h.Release()
	return id
}

// repair routes a latent failure the way the engine does: drop any buffered
// copy, then re-read through the validating path (detect + recover).
func (e *env) repair(id page.ID) error {
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

func (e *env) deps() Deps {
	return Deps{
		Pool:        e.pool,
		Dev:         e.dev,
		MappedSlots: e.pmap.MappedSlots,
		Repair:      e.repair,
	}
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestWatermarkKickDrainsDirtyPages(t *testing.T) {
	e := newEnv(t, 64, 256)
	svc := New(Config{
		FlushInterval:      time.Hour, // age trigger out of the picture
		DirtyHighWatermark: 0.125,     // 8 frames
		FlushBatchPages:    4,
	}, e.deps())
	// All 16 pages are dirty before the flushers start, so the one kick
	// finds the pool above the watermark and drain runs until no page is
	// dirty. Dirtying them under running flushers raced: a drain that
	// overtook the dirtying left the later pages below the watermark, to
	// wait for the hour-long age tick.
	for i := 0; i < 16; i++ {
		e.newPage(t, fmt.Sprintf("page-%d", i))
	}
	svc.Start()
	defer svc.Stop()
	svc.NotifyDirty()
	waitFor(t, 5*time.Second, "watermark drain", func() bool {
		return e.pool.DirtyCount() == 0
	})
	s := svc.Stats()
	if s.PagesFlushed != 16 {
		t.Errorf("PagesFlushed = %d, want 16", s.PagesFlushed)
	}
	if s.FlushBatches < 4 {
		t.Errorf("FlushBatches = %d, want >= 4 (batch cap 4)", s.FlushBatches)
	}
	// Grouped appends: the wal must have seen batched PRI logging... at
	// this layer no write-complete hook is installed, so just confirm the
	// pages are durable.
	for i := 1; i <= 16; i++ {
		if _, ok := e.pmap.Lookup(page.ID(i)); !ok {
			t.Errorf("page %d never reached the device", i)
		}
	}
}

func TestAgeTriggerFlushesWithoutKick(t *testing.T) {
	e := newEnv(t, 64, 256)
	svc := New(Config{
		FlushInterval:      5 * time.Millisecond,
		DirtyHighWatermark: 1.0, // watermark unreachable
	}, e.deps())
	svc.Start()
	defer svc.Stop()

	e.newPage(t, "lonely-dirty-page")
	waitFor(t, 5*time.Second, "age-triggered flush", func() bool {
		return e.pool.DirtyCount() == 0
	})
}

func TestScrubCampaignDetectsAndRepairsLatentErrors(t *testing.T) {
	e := newEnv(t, 64, 128)
	var ids []page.ID
	for i := 0; i < 24; i++ {
		ids = append(ids, e.newPage(t, fmt.Sprintf("cold-%d", i)))
	}
	if err := e.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Latent damage on three cold pages: evict so no cached copy masks it.
	damaged := []page.ID{ids[2], ids[11], ids[19]}
	for _, id := range damaged {
		if err := e.pool.Evict(id); err != nil {
			t.Fatal(err)
		}
		slot, ok := e.pmap.Lookup(id)
		if !ok {
			t.Fatalf("page %d has no slot", id)
		}
		if err := e.dev.CorruptStored(slot); err != nil {
			t.Fatal(err)
		}
	}

	svc := New(Config{
		ScrubPagesPerSecond: 100000,
		ScrubBatchPages:     16,
		FlushInterval:       5 * time.Millisecond,
	}, e.deps())
	svc.Start()
	defer svc.Stop()

	waitFor(t, 10*time.Second, "campaign repairs", func() bool {
		return svc.Stats().Repaired >= int64(len(damaged))
	})
	s := svc.Stats()
	if s.LatentFound < int64(len(damaged)) {
		t.Errorf("LatentFound = %d, want >= %d", s.LatentFound, len(damaged))
	}
	if s.Escalated != 0 {
		t.Errorf("Escalated = %d, want 0", s.Escalated)
	}
	// The cursor keeps cycling: a full sweep completes shortly after.
	waitFor(t, 10*time.Second, "a complete sweep", func() bool {
		return svc.Stats().Sweeps >= 1
	})
	// Wait for write-back of the recovered pages, then verify the device
	// is clean end to end.
	waitFor(t, 5*time.Second, "recovered pages flushed", func() bool {
		return e.pool.DirtyCount() == 0
	})
	mapped := e.pmap.MappedSlots()
	res := e.dev.Scrub(func(slot storage.PhysID) bool {
		_, ok := mapped[slot]
		return !ok
	})
	if n := len(res.Failures()); n != 0 {
		t.Errorf("device still has %d bad mapped slots after campaign", n)
	}
	for _, id := range damaged {
		h, err := e.pool.Fetch(id)
		if err != nil {
			t.Errorf("repaired page %d unreadable: %v", id, err)
			continue
		}
		h.Release()
	}
}

func TestStopIsDeterministicAndIdempotent(t *testing.T) {
	e := newEnv(t, 32, 64)
	before := runtime.NumGoroutine()
	svc := New(Config{ScrubPagesPerSecond: 50000, FlushInterval: time.Millisecond}, e.deps())
	svc.Start()
	for i := 0; i < 8; i++ {
		e.newPage(t, fmt.Sprintf("p%d", i))
		svc.NotifyDirty()
	}
	svc.Stop()
	svc.Stop() // idempotent
	// Every goroutine joined: the count returns to (at most) the baseline,
	// allowing runtime noise a moment to settle.
	waitFor(t, 5*time.Second, "goroutines to exit", func() bool {
		return runtime.NumGoroutine() <= before
	})
	// Kicks after Stop must not panic or leak.
	svc.NotifyDirty()
	svc.Kick()
}

func TestStopBeforeStart(t *testing.T) {
	e := newEnv(t, 8, 16)
	svc := New(Config{}, e.deps())
	svc.Stop()
	svc.Start() // must not launch anything after Stop
	svc.Stop()
}

// TestAdaptiveScrubRateBacksOffUnderPressure drives scrubTick directly (the
// tick loop's only caller is the scrub goroutine, so a stopped service is
// deterministic): while the pool's dirty count sits at or above the
// flushers' high watermark the campaign halves its effective rate by
// sitting out alternate ticks, and restores the full rate — and full tick
// cadence — the moment pressure clears.
func TestAdaptiveScrubRateBacksOffUnderPressure(t *testing.T) {
	e := newEnv(t, 8, 64)
	var ids []page.ID
	for i := 0; i < 8; i++ {
		ids = append(ids, e.newPage(t, fmt.Sprintf("adaptive-%d", i)))
	}
	if err := e.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	svc := New(Config{
		ScrubPagesPerSecond: 1000, ScrubBatchPages: 4, DirtyHighWatermark: 0.5,
	}, e.deps())
	if got := svc.Stats().EffectiveScrubRate; got != 1000 {
		t.Fatalf("initial effective rate = %d, want 1000", got)
	}

	// Clean pool: every tick scans at the full rate.
	svc.scrubTick()
	base := svc.Stats()
	if base.ScrubTicks != 1 || base.PagesScrubbed == 0 {
		t.Fatalf("clean tick made no progress: %+v", base)
	}
	if base.EffectiveScrubRate != 1000 {
		t.Fatalf("clean effective rate = %d, want 1000", base.EffectiveScrubRate)
	}

	// Dirty half the pool (the watermark is 0.5 * capacity 8 = 4 frames):
	// the campaign must halve its rate, sitting out every other tick.
	for _, id := range ids[:4] {
		h, err := e.pool.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		h.Lock()
		lsn := e.log.Append(&wal.Record{Type: wal.TypeUpdate, Txn: 1, PageID: id})
		h.Page().SetLSN(lsn)
		h.MarkDirty(lsn)
		h.Unlock()
		h.Release()
	}
	svc.scrubTick() // sat out
	svc.scrubTick() // scans
	s2 := svc.Stats()
	if s2.EffectiveScrubRate != 500 {
		t.Fatalf("pressured effective rate = %d, want 500", s2.EffectiveScrubRate)
	}
	if got := s2.ScrubTicks - base.ScrubTicks; got != 1 {
		t.Fatalf("two pressured ticks scanned %d times, want 1", got)
	}

	// Pressure clears: full rate and cadence restored immediately.
	if err := e.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	svc.scrubTick()
	svc.scrubTick()
	s3 := svc.Stats()
	if s3.EffectiveScrubRate != 1000 {
		t.Fatalf("restored effective rate = %d, want 1000", s3.EffectiveScrubRate)
	}
	if got := s3.ScrubTicks - s2.ScrubTicks; got != 2 {
		t.Fatalf("two clean ticks scanned %d times, want 2", got)
	}
}
