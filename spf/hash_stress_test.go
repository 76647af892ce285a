package spf

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/hashindex"
	"repro/internal/page"
)

// TestConcurrentHashOpsWithInjectedPageFaults is the fault-injection
// parity check for the hash engine: the same persistent-corruption
// campaign the B-tree stress runs, aimed at every hash page class —
// directory, primary buckets, and overflow pages — while concurrent
// Insert/Update/Delete/Get/Scan traffic flows. Every fault must be
// detected on the validating read path (checksum or hash cross-check) and
// repaired online through the shared restore scheduler; the criteria are
// zero escalations, every model key intact, and a clean VerifyAll. The
// point of the test is that no hashindex-specific recovery code exists to
// be exercised: detection and repair below the Engine seam are the same
// paths the B-tree uses.
func TestConcurrentHashOpsWithInjectedPageFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	db, err := Open(Options{PageSize: 1024, DataSlots: 1 << 14, PoolFrames: 128, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := db.CreateIndexKind("stress", KindHash)
	if err != nil {
		t.Fatal(err)
	}

	const (
		writers = 6
		keys    = 250 // per writer
		ops     = 1200
	)
	wkey := func(w, i int) []byte { return []byte(fmt.Sprintf("w%02d-%05d", w, i)) }
	// ~100-byte values push the chains past the directory's bucket
	// capacity at this page size, so overflow pages exist to corrupt.
	wval := func(s string) []byte {
		v := make([]byte, 100)
		copy(v, s)
		return v
	}

	tx := db.Begin()
	for w := 0; w < writers; w++ {
		for i := 0; i < keys; i += 2 {
			if err := ix.Insert(tx, wkey(w, i), wval("seed")); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Commit(tx); err != nil {
		t.Fatal(err)
	}
	if st, err := ix.HashStats(); err != nil || st.Overflowed == 0 {
		t.Fatalf("no overflow chains to target (stats %+v, %v)", st, err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, writers+2)
	models := make([]map[string]string, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(700 + w)))
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
						uerr = ix.Update(tx, k, wval(v))
					} else {
						uerr = ix.Insert(tx, k, wval(v))
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
					if err == nil && string(got[:len(want)]) != want {
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

	// A scanner sweeps the full key space continuously: bucket-order
	// enumeration descends through the directory and every chain, so it
	// keeps tripping over whatever the injector just damaged.
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
			if err := ix.Scan(nil, nil, func(Entry) bool { return true }); err != nil {
				errs <- fmt.Errorf("scan: %w", err)
				return
			}
		}
	}()

	// The injector corrupts stored images of live hash pages, explicitly
	// targeting each page class per round so coverage cannot depend on
	// luck: the directory (every descent crosses it), primary buckets,
	// and overflow pages (reached only by chain walks). A page pinned
	// this instant is skipped; the final revalidation pass below still
	// drives each late injection through detection and repair.
	var injDir, injBucket, injOverflow []PageID
	injectorWG := make(chan struct{})
	go func() {
		defer close(injectorWG)
		rng := rand.New(rand.NewSource(4242))
		classify := func() (dirs, buckets, overflow []PageID) {
			for _, id := range db.Pages() {
				h, err := db.pool.Fetch(id)
				if err != nil {
					continue // an earlier injection being repaired right now
				}
				h.RLock()
				typ := h.Page().Type()
				role := ""
				if typ == page.TypeHash {
					role, _ = hashindex.PageRole(h.Page().Payload())
				}
				h.RUnlock()
				h.Release()
				switch role {
				case "directory":
					dirs = append(dirs, id)
				case "bucket":
					buckets = append(buckets, id)
				case "overflow":
					overflow = append(overflow, id)
				}
			}
			return dirs, buckets, overflow
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
			if trafficDone && len(injDir) >= 2 && len(injBucket) >= 5 && len(injOverflow) >= 2 {
				return
			}
			dirs, buckets, overflow := classify()
			if id, ok := inject(dirs); ok {
				injDir = append(injDir, id)
			}
			if id, ok := inject(buckets); ok {
				injBucket = append(injBucket, id)
			}
			if id, ok := inject(overflow); ok {
				injOverflow = append(injOverflow, id)
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

	if len(injDir) == 0 || len(injBucket) == 0 || len(injOverflow) == 0 {
		t.Fatalf("injector coverage too thin: %d directory, %d bucket, %d overflow faults",
			len(injDir), len(injBucket), len(injOverflow))
	}
	// Every injected page must come back clean through the validating
	// read path (repairing any corruption foreground traffic did not
	// already trip over and heal).
	all := append(append(append([]PageID(nil), injDir...), injBucket...), injOverflow...)
	for _, id := range all {
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
	if stats.Recovery.Escalations != 0 {
		t.Errorf("%d recoveries escalated", stats.Recovery.Escalations)
	}

	for w := 0; w < writers; w++ {
		for k, want := range models[w] {
			got, err := ix.Get([]byte(k))
			if err != nil || string(got[:len(want)]) != want {
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
	t.Logf("injected: %d directory + %d bucket + %d overflow; detected=%d recovered=%d",
		len(injDir), len(injBucket), len(injOverflow),
		stats.Pool.ValidationFailures, stats.Pool.Recoveries)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}
