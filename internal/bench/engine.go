package bench

// The driver for E34 engine point ops, run for every spf.IndexKind over
// the identical seeded workload. The point of the comparison is the seam,
// not the race: the two engines organize keys differently (ordered Foster
// B-tree vs linear hashing), but everything below the Engine interface —
// checksums, the page recovery index, per-page log chains — is shared.

import (
	"math/rand"
	"testing"

	"repro/internal/workload"
	"repro/spf"
)

const (
	// engineKeys is the preloaded key population — enough to grow a
	// multi-level B-tree and drive the hash index through many split
	// rounds at the 4 KiB bench page size.
	engineKeys     = 10000
	engineValueLen = 64
)

// engineSetup opens a fully resident database and preloads one index of
// the given kind with the shared workload.Key population.
func engineSetup(b *testing.B, kind spf.IndexKind) (*spf.DB, *spf.Index) {
	b.Helper()
	db, err := spf.Open(spf.Options{PageSize: 4096, DataSlots: 1 << 16, PoolFrames: 8192})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := db.CreateIndexKind("bench", kind); err != nil {
		b.Fatal(err)
	}
	ix, err := db.Index("bench")
	if err != nil {
		b.Fatal(err)
	}
	val := make([]byte, engineValueLen)
	for i := range val {
		val[i] = byte('a' + i%26)
	}
	const batch = 1000
	for lo := 0; lo < engineKeys; lo += batch {
		tx := db.Begin()
		for i := lo; i < lo+batch; i++ {
			if err := ix.Insert(tx, workload.Key(i), val); err != nil {
				b.Fatal(err)
			}
		}
		if err := db.Commit(tx); err != nil {
			b.Fatal(err)
		}
	}
	return db, ix
}

// pointOps measures per-op cost through the Engine seam on a resident
// index: the read shape is pure point lookups (GetTo into a reused
// buffer), the mixed shape commits one single-op update transaction per
// five ops — the §5.1.5 accounting shape, where the log force dominates.
// Keys are drawn uniformly from the shared population with a fixed seed,
// so both engines replay the identical request stream.
func pointOps(b *testing.B, kind spf.IndexKind, mixed bool) float64 {
	db, ix := engineSetup(b, kind)
	defer db.Close()

	rng := rand.New(rand.NewSource(42))
	buf := make([]byte, 0, engineValueLen)
	newVal := make([]byte, engineValueLen)
	for i := range newVal {
		newVal[i] = byte('A' + i%26)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := workload.Key(rng.Intn(engineKeys))
		if mixed && i%5 == 4 {
			tx := db.Begin()
			if err := ix.Update(tx, key, newVal); err != nil {
				b.Fatal(err)
			}
			if err := db.Commit(tx); err != nil {
				b.Fatal(err)
			}
			continue
		}
		out, err := ix.GetTo(buf, key)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) != engineValueLen {
			b.Fatalf("got %d-byte value, want %d", len(out), engineValueLen)
		}
	}
	b.StopTimer()
	return 0
}

// insertOps measures one insert of a key the index does not hold, rolled
// back: on the hash index, the insert's descent and its compensation's
// each latch the key's whole bucket chain. The rollback keeps the index at
// its preloaded shape, so no op splits or links a page and the allocs/op
// stay exact.
func insertOps(b *testing.B, kind spf.IndexKind) float64 {
	db, ix := engineSetup(b, kind)
	defer db.Close()

	rng := rand.New(rand.NewSource(42))
	val := make([]byte, engineValueLen)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := db.Begin()
		if err := ix.Insert(tx, workload.Key(engineKeys+rng.Intn(engineKeys)), val); err != nil {
			b.Fatal(err)
		}
		if err := tx.Abort(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	return 0
}
