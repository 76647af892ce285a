package spf

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/btree"
	"repro/internal/buffer"
	"repro/internal/page"
)

// TestConcurrentTreeOpsWithInjectedPageFaults is the -race stress for the
// latch-coupled B-tree over the full engine: concurrent Insert, Update,
// Delete, Get, and Scan traffic from many goroutines while an injector
// corrupts the stored images of both interior and leaf pages. Every fault
// must be detected by the validating read path mid-descent and repaired
// through single-page recovery while other descents proceed; at the end,
// every model key must read back correctly, every injected page must pass a
// validating re-fetch, the tree must verify clean, and no operation may
// have held more than two page latches.
func TestConcurrentTreeOpsWithInjectedPageFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	btree.ResetMaxLatchDepth()
	db, err := Open(Options{PageSize: 1024, DataSlots: 1 << 14, PoolFrames: 128, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := db.CreateIndex("stress")
	if err != nil {
		t.Fatal(err)
	}

	const (
		writers = 6
		keys    = 250 // per writer
		ops     = 1200
	)
	wkey := func(w, i int) []byte { return []byte(fmt.Sprintf("w%02d-%05d", w, i)) }

	tx := db.Begin()
	for w := 0; w < writers; w++ {
		for i := 0; i < keys; i += 2 {
			if err := ix.Insert(tx, wkey(w, i), []byte("seed")); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Commit(tx); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, writers+2)
	models := make([]map[string]string, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(900 + w)))
			model := make(map[string]string, keys)
			for i := 0; i < keys; i += 2 {
				model[string(wkey(w, i))] = "seed"
			}
			models[w] = model
			tx := db.Begin()
			for op := 0; op < ops; op++ {
				i := rng.Intn(keys)
				k := wkey(w, i)
				v := fmt.Sprintf("w%d-%d", w, op)
				switch rng.Intn(5) {
				case 0, 1: // upsert
					var uerr error
					if _, ok := model[string(k)]; ok {
						uerr = ix.Update(tx, k, []byte(v))
					} else {
						uerr = ix.Insert(tx, k, []byte(v))
					}
					if uerr != nil {
						errs <- fmt.Errorf("worker %d upsert %q: %w", w, k, uerr)
						return
					}
					model[string(k)] = v
				case 2: // delete
					if _, ok := model[string(k)]; ok {
						if err := ix.Delete(tx, k); err != nil {
							errs <- fmt.Errorf("worker %d delete %q: %w", w, k, err)
							return
						}
						delete(model, string(k))
					}
				default:
					got, err := ix.Get(k)
					want, ok := model[string(k)]
					if ok != (err == nil) {
						errs <- fmt.Errorf("worker %d get %q: %v, model present=%v", w, k, err, ok)
						return
					}
					if err == nil && string(got) != want {
						errs <- fmt.Errorf("worker %d get %q = %q, want %q", w, k, got, want)
						return
					}
				}
			}
			if err := db.Commit(tx); err != nil {
				errs <- fmt.Errorf("worker %d commit: %w", w, err)
			}
		}(w)
	}

	// A scanner checks global key order continuously.
	done := make(chan struct{})
	var scanWG sync.WaitGroup
	scanWG.Add(1)
	go func() {
		defer scanWG.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			var prev []byte
			err := ix.Scan(nil, nil, func(e Entry) bool {
				if prev != nil && bytes.Compare(prev, e.Key) >= 0 {
					return false
				}
				prev = e.Key
				return true
			})
			if err != nil {
				errs <- fmt.Errorf("scan: %w", err)
				return
			}
		}
	}()

	// The injector corrupts stored images of live B-tree pages — leaves
	// AND interior nodes — while traffic runs, explicitly targeting one of
	// each class per round so coverage cannot depend on luck. A page that
	// is pinned this instant is skipped (the next round finds another
	// victim). The injector keeps going until both classes have minimum
	// coverage, even if the workers drain first: the final revalidation
	// pass below still drives each late injection through detection and
	// repair.
	var injectedLeaves, injectedInterior []PageID
	injectorWG := make(chan struct{})
	go func() {
		defer close(injectorWG)
		rng := rand.New(rand.NewSource(4242))
		classify := func() (leaves, interior []PageID) {
			for _, id := range db.Pages() {
				h, err := db.pool.Fetch(id)
				if err != nil {
					continue // an earlier injection being repaired right now
				}
				h.RLock()
				role := ""
				if h.Page().Type() == page.TypeBTree {
					role, _ = btree.PageRole(h.Page().Payload())
				}
				h.RUnlock()
				h.Release()
				switch role {
				case "leaf":
					leaves = append(leaves, id)
				case "branch":
					interior = append(interior, id)
				}
			}
			return leaves, interior
		}
		inject := func(candidates []PageID) (PageID, bool) {
			if len(candidates) == 0 {
				return 0, false
			}
			id := candidates[rng.Intn(len(candidates))]
			if err := db.EvictPage(id); err != nil {
				return 0, false // pinned by a concurrent descent
			}
			if err := db.CorruptPage(id); err != nil {
				return 0, false
			}
			return id, true
		}
		for round := 0; round < 2000; round++ {
			trafficDone := false
			select {
			case <-done:
				trafficDone = true
			default:
			}
			if trafficDone && len(injectedLeaves) >= 5 && len(injectedInterior) >= 2 {
				return
			}
			leaves, interior := classify()
			if id, ok := inject(leaves); ok {
				injectedLeaves = append(injectedLeaves, id)
			}
			if id, ok := inject(interior); ok {
				injectedInterior = append(injectedInterior, id)
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()

	wg.Wait()
	close(done)
	scanWG.Wait()
	<-injectorWG
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	if len(injectedLeaves) == 0 || len(injectedInterior) == 0 {
		t.Fatalf("injector coverage too thin: %d leaf, %d interior faults",
			len(injectedLeaves), len(injectedInterior))
	}
	// Every injected page must come back clean through the validating read
	// path (repairing any corruption foreground traffic did not already
	// trip over and heal).
	for _, id := range append(append([]PageID(nil), injectedLeaves...), injectedInterior...) {
		for attempt := 0; ; attempt++ {
			err := db.EvictPage(id)
			if err == nil {
				break
			}
			if !errors.Is(err, buffer.ErrPinned) || attempt > 100 {
				t.Fatalf("evicting injected page %d: %v", id, err)
			}
			time.Sleep(time.Millisecond)
		}
		h, err := db.pool.Fetch(id)
		if err != nil {
			t.Fatalf("injected page %d not repaired: %v", id, err)
		}
		h.Release()
	}

	stats := db.Metrics()
	if stats.Pool.ValidationFailures == 0 {
		t.Error("no fault was ever detected on the read path")
	}
	if stats.Pool.Recoveries == 0 {
		t.Error("no single-page recovery ran")
	}
	if stats.Pool.Escalations != 0 {
		t.Errorf("%d single-page failures escalated to media failures", stats.Pool.Escalations)
	}

	for w := 0; w < writers; w++ {
		for k, want := range models[w] {
			got, err := ix.Get([]byte(k))
			if err != nil || string(got) != want {
				t.Fatalf("final get %q = %q, %v (want %q)", k, got, err, want)
			}
		}
	}
	viols, err := ix.Verify()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range viols {
		t.Errorf("invariant violation after stress: %s", v)
	}
	if d := btree.MaxLatchDepth(); d > 2 {
		t.Errorf("latch-depth high-water mark = %d, want <= 2", d)
	} else if d != 2 {
		t.Errorf("latch-depth high-water mark = %d, coupling never paired latches?", d)
	}
	t.Logf("injected: %d leaf + %d interior; detected=%d recovered=%d",
		len(injectedLeaves), len(injectedInterior),
		stats.Pool.ValidationFailures, stats.Pool.Recoveries)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}
