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
	"repro/internal/hashindex"
	"repro/internal/page"
)

// stressRole is one page class the injector targets, and how many faults
// it must have landed in that class before it may stop.
type stressRole struct {
	name string
	min  int
}

// stressCases are the engines TestConcurrentOpsWithInjectedPageFaults runs
// over; they differ only in value size, seeds, page classes, and the
// engine's own end checks.
var stressCases = []struct {
	kind     IndexKind
	valBytes int   // values are padded to this size; 0 leaves them as is
	seed     int64 // worker w draws from seed+w
	roles    []stressRole
	// loaded, if set, checks the index after the seed load.
	loaded func(t *testing.T, ix *Index)
	// ordered makes the scanner check global key order.
	ordered bool
	// done, if set, runs the engine's end checks once traffic has drained.
	done func(t *testing.T)
}{
	{
		kind: KindBTree, seed: 900, ordered: true,
		roles: []stressRole{{"leaf", 5}, {"branch", 2}},
		done: func(t *testing.T) {
			if d := btree.MaxLatchDepth(); d > 2 {
				t.Errorf("latch-depth high-water mark = %d, want <= 2", d)
			} else if d != 2 {
				t.Errorf("latch-depth high-water mark = %d, coupling never paired latches?", d)
			}
		},
	},
	{
		// ~100-byte values push the chains past the directory's bucket
		// capacity at this page size, so overflow pages exist to corrupt.
		kind: KindHash, valBytes: 100, seed: 700,
		roles: []stressRole{{"directory", 2}, {"bucket", 5}, {"overflow", 2}},
		loaded: func(t *testing.T, ix *Index) {
			if st, err := ix.HashStats(); err != nil || st.Overflowed == 0 {
				t.Fatalf("no overflow chains to target (stats %+v, %v)", st, err)
			}
		},
	},
}

// stressPageRole names the engine page class of pg ("" for other pages).
func stressPageRole(pg *page.Page) string {
	var role string
	switch pg.Type() {
	case page.TypeBTree:
		role, _ = btree.PageRole(pg.Payload())
	case page.TypeHash:
		role, _ = hashindex.PageRole(pg.Payload())
	}
	return role
}

// TestConcurrentOpsWithInjectedPageFaults is the -race stress of each
// engine over the full database: concurrent Insert, Update, Delete, Get,
// and Scan traffic from many goroutines while an injector corrupts the
// stored images of every page class the engine has — B-tree leaves and
// interior nodes; the hash directory, primary buckets, and overflow pages.
// Every fault must be detected by the validating read path mid-descent
// (checksum or the engine's cross-check) and repaired through single-page
// recovery while other descents proceed. At the end every model key must
// read back, every injected page must pass a validating re-fetch, nothing
// may have escalated, and the index must verify clean. No engine-specific
// recovery code exists to be exercised: detection and repair below the
// Engine seam are the same paths for both. The B-tree also checks global
// key order throughout and that no operation held more than two latches.
func TestConcurrentOpsWithInjectedPageFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	for _, tc := range stressCases {
		t.Run(tc.kind.String(), func(t *testing.T) {
			btree.ResetMaxLatchDepth()
			db, err := Open(Options{PageSize: 1024, DataSlots: 1 << 14, PoolFrames: 128, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			ix, err := db.CreateIndexKind("stress", tc.kind)
			if err != nil {
				t.Fatal(err)
			}

			const (
				writers = 6
				keys    = 250 // per writer
				ops     = 1200
			)
			wkey := func(w, i int) []byte { return []byte(fmt.Sprintf("w%02d-%05d", w, i)) }
			wval := func(s string) []byte {
				v := make([]byte, max(tc.valBytes, len(s)))
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
			if tc.loaded != nil {
				tc.loaded(t, ix)
			}

			var wg sync.WaitGroup
			errs := make(chan error, writers+2)
			models := make([]map[string]string, writers)
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(tc.seed + int64(w)))
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
							if err == nil && !bytes.Equal(got, wval(want)) {
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

			// A scanner sweeps the full key space continuously — through the
			// directory and every chain, or across the leaves — so it keeps
			// tripping over whatever the injector just damaged.
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
					var disorder error
					err := ix.Scan(nil, nil, func(e Entry) bool {
						if tc.ordered && prev != nil && bytes.Compare(prev, e.Key) >= 0 {
							disorder = fmt.Errorf("key %q after %q", e.Key, prev)
							return false
						}
						prev = append(prev[:0], e.Key...)
						return true
					})
					if err == nil {
						err = disorder
					}
					if err != nil {
						errs <- fmt.Errorf("scan: %w", err)
						return
					}
				}
			}()

			// The injector corrupts stored images of live index pages while
			// traffic runs, explicitly targeting each page class per round so
			// coverage cannot depend on luck. A page pinned this instant is
			// skipped (the next round finds another victim). The injector
			// keeps going until every class has its minimum coverage, even if
			// the workers drain first: the final revalidation pass below still
			// drives each late injection through detection and repair.
			injected := make([][]PageID, len(tc.roles))
			injectorWG := make(chan struct{})
			go func() {
				defer close(injectorWG)
				rng := rand.New(rand.NewSource(4242))
				classify := func() [][]PageID {
					byRole := make([][]PageID, len(tc.roles))
					for _, id := range db.Pages() {
						h, err := db.pool.Fetch(id)
						if err != nil {
							continue // an earlier injection being repaired right now
						}
						h.RLock()
						role := stressPageRole(h.Page())
						h.RUnlock()
						h.Release()
						for r := range tc.roles {
							if tc.roles[r].name == role {
								byRole[r] = append(byRole[r], id)
							}
						}
					}
					return byRole
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
				covered := func() bool {
					for r, role := range tc.roles {
						if len(injected[r]) < role.min {
							return false
						}
					}
					return true
				}
				for round := 0; round < 2000; round++ {
					trafficDone := false
					select {
					case <-done:
						trafficDone = true
					default:
					}
					if trafficDone && covered() {
						return
					}
					for r, candidates := range classify() {
						if id, ok := inject(candidates); ok {
							injected[r] = append(injected[r], id)
						}
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

			var all []PageID
			coverage := ""
			for r, role := range tc.roles {
				if len(injected[r]) == 0 {
					t.Fatalf("injector coverage too thin: no %s faults", role.name)
				}
				all = append(all, injected[r]...)
				coverage += fmt.Sprintf(" %d %s", len(injected[r]), role.name)
			}
			// Every injected page must come back clean through the validating
			// read path (repairing any corruption foreground traffic did not
			// already trip over and heal).
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
					if err != nil || !bytes.Equal(got, wval(want)) {
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
			if tc.done != nil {
				tc.done(t)
			}
			t.Logf("injected:%s; detected=%d recovered=%d",
				coverage, stats.Pool.ValidationFailures, stats.Pool.Recoveries)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
