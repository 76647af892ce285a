package maintenance

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/clock"
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

// TestWatermarkKickDrainsDirtyPages: the flusher's one trigger is the
// dirty count reaching a quarter of the pool, and the drain it starts runs
// until no page is dirty, 64 pages a batch.
func TestWatermarkKickDrainsDirtyPages(t *testing.T) {
	e := newEnv(t, 512, 256)
	svc := New(e.deps())
	if svc.high != 128 {
		t.Fatalf("watermark = %d frames, want 128", svc.high)
	}
	// The pages are dirtied before the flusher starts, so its one drain
	// finds every one of them.
	for i := 0; i < svc.high-1; i++ {
		e.newPage(t, fmt.Sprintf("page-%d", i))
	}
	svc.NotifyDirty()
	if len(svc.kick) != 0 {
		t.Fatalf("kicked at %d dirty pages, below the watermark", e.pool.DirtyCount())
	}
	for i := svc.high - 1; i < 160; i++ {
		e.newPage(t, fmt.Sprintf("page-%d", i))
	}
	svc.NotifyDirty()
	if len(svc.kick) != 1 {
		t.Fatalf("no kick at %d dirty pages", e.pool.DirtyCount())
	}
	svc.Start()
	defer svc.Stop()
	waitFor(t, 5*time.Second, "watermark drain", func() bool {
		return e.pool.DirtyCount() == 0
	})
	s := svc.Stats()
	if s.PagesFlushed != 160 {
		t.Errorf("PagesFlushed = %d, want 160", s.PagesFlushed)
	}
	if s.FlushBatches < 3 {
		t.Errorf("FlushBatches = %d, want >= 3 (batch cap 64)", s.FlushBatches)
	}
	for i := 1; i <= 160; i++ {
		if _, ok := e.pmap.Lookup(page.ID(i)); !ok {
			t.Errorf("page %d never reached the device", i)
		}
	}
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

	// One tick of a sweep, driven by hand (a started campaign waits a
	// sweep period first: TestSweepStartsAtMostOncePerPeriod).
	svc := New(e.deps())
	svc.scrubTick(time.Now())
	s := svc.Stats()
	if s.LatentFound != int64(len(damaged)) || s.Repaired != int64(len(damaged)) {
		t.Errorf("LatentFound = %d, Repaired = %d, want %d", s.LatentFound, s.Repaired, len(damaged))
	}
	if s.Escalated != 0 {
		t.Errorf("Escalated = %d, want 0", s.Escalated)
	}
	// The sweep covers the 24 written slots, not the 128-slot capacity: it
	// completes within the tick that found the damage.
	if s.Sweeps != 1 || s.PagesScrubbed != 24 {
		t.Errorf("Sweeps = %d, PagesScrubbed = %d after one tick, want 1 and 24", s.Sweeps, s.PagesScrubbed)
	}
	// Write the recovered pages back, then verify the device is clean end
	// to end.
	if err := e.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
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

// TestSweepStartsAtMostOncePerPeriod: a started campaign ticks but reads
// nothing in its first sweep period; its first tick past the period sweeps
// a 24-page device whole, the ticks of the rest of the next period read
// nothing, and damage done meanwhile is found by the sweep that starts once
// that period is over.
func TestSweepStartsAtMostOncePerPeriod(t *testing.T) {
	e := newEnv(t, 64, 128)
	var ids []page.ID
	for i := 0; i < 24; i++ {
		ids = append(ids, e.newPage(t, fmt.Sprintf("cold-%d", i)))
	}
	if err := e.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	clk := clock.NewManual()
	deps := e.deps()
	deps.Clock = clk
	svc := New(deps)
	svc.Start()
	defer svc.Stop()
	// n ticks from the start of one period to the first tick at or past
	// its end.
	n := int64((sweepPeriod + scrubInterval - 1) / scrubInterval)
	clk.Advance(time.Duration(n-1) * scrubInterval)
	if s := svc.Stats(); s.ScrubTicks != n-1 || s.PagesScrubbed != 0 {
		t.Fatalf("first period: %+v, want %d ticks and nothing scrubbed", s, n-1)
	}
	clk.Advance(scrubInterval)
	if s := svc.Stats(); s.Sweeps != 1 || s.PagesScrubbed != 24 {
		t.Fatalf("first tick past the period: %+v, want one sweep of 24 pages", s)
	}
	if err := e.pool.Evict(ids[5]); err != nil {
		t.Fatal(err)
	}
	slot, _ := e.pmap.Lookup(ids[5])
	if err := e.dev.CorruptStored(slot); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Duration(n-1) * scrubInterval)
	if s := svc.Stats(); s.ScrubTicks != 2*n-1 || s.Sweeps != 1 || s.PagesScrubbed != 24 || s.LatentFound != 0 {
		t.Fatalf("within the second period: %+v, want nothing beyond the first sweep", s)
	}
	clk.Advance(scrubInterval)
	if s := svc.Stats(); s.Sweeps != 2 || s.PagesScrubbed != 48 || s.Repaired != 1 {
		t.Fatalf("at the second period's end: %+v, want a second sweep repairing one page", s)
	}
}

// TestLatentErrorFoundWithinTheBound: the campaign repairs a latent error
// on a written slot within the bound ARCHITECTURE.md states, 10 s plus one
// sweep of the written extent at 2000 pages/s (64 slots a 32 ms tick).
// Faults land on random written slots at random clock times: before the
// first sweep, during sweeps and between them.
func TestLatentErrorFoundWithinTheBound(t *testing.T) {
	e := newEnv(t, 64, 1024)
	var ids []page.ID
	for i := 0; i < 640; i++ {
		ids = append(ids, e.newPage(t, fmt.Sprintf("cold-%d", i)))
	}
	if err := e.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	extent := 0
	for slot := range e.pmap.MappedSlots() {
		extent = max(extent, int(slot)+1)
	}
	bound := 10*time.Second + time.Duration((extent+63)/64)*32*time.Millisecond

	clk := clock.NewManual()
	t0 := clk.Now()
	found := make(map[page.ID]time.Duration) // written by the campaign's goroutine
	deps := e.deps()
	deps.Clock = clk
	deps.Repair = func(id page.ID) error {
		found[id] = clk.Now().Sub(t0)
		return e.repair(id)
	}
	svc := New(deps)
	svc.Start()
	defer svc.Stop()

	rng := rand.New(rand.NewSource(1))
	at := make([]time.Duration, 16)
	for i := range at {
		at[i] = time.Duration(rng.Int63n(int64(45 * time.Second)))
	}
	slices.Sort(at)
	injected := make(map[page.ID]time.Duration)
	for _, when := range at {
		clk.Advance(when - clk.Now().Sub(t0))
		// A page the campaign repaired has no slot until it is written
		// back; one still damaged is not damaged twice.
		var id page.ID
		var slot storage.PhysID
		for ok := false; !ok; {
			id = ids[rng.Intn(len(ids))]
			_, pending := injected[id]
			slot, ok = e.pmap.Lookup(id)
			ok = ok && !pending
		}
		if err := e.pool.Evict(id); err != nil && !errors.Is(err, buffer.ErrNotResident) {
			t.Fatal(err)
		}
		if err := e.dev.CorruptStored(slot); err != nil {
			t.Fatal(err)
		}
		injected[id] = when
	}
	clk.Advance(bound)
	var longest time.Duration
	for id, when := range injected {
		got, ok := found[id]
		longest = max(longest, got-when)
		switch {
		case !ok:
			t.Errorf("page %d damaged at %v: never repaired", id, when)
		case got-when > bound:
			t.Errorf("page %d damaged at %v: repaired at %v, %v later, bound %v", id, when, got, got-when, bound)
		}
	}
	t.Logf("%d faults over %d written slots, longest wait %v, bound %v", len(injected), extent, longest, bound)
	if s := svc.Stats(); s.Repaired != int64(len(injected)) || s.Escalated != 0 {
		t.Errorf("campaign stats %+v, want %d repaired and none escalated", s, len(injected))
	}
}

func TestStopIsDeterministicAndIdempotent(t *testing.T) {
	e := newEnv(t, 32, 64)
	before := runtime.NumGoroutine()
	svc := New(e.deps())
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
}

func TestStopBeforeStart(t *testing.T) {
	e := newEnv(t, 8, 16)
	svc := New(e.deps())
	svc.Stop()
	svc.Start() // must not launch anything after Stop
	svc.Stop()
}
