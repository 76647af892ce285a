package spf

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// TestEngineDifferentialModel drives both storage engines and a plain
// in-memory map through one seeded operation stream, then checks
// key-for-key agreement after the two recovery paths: crash → Restart and
// FailDevice → RecoverMedia. Any divergence — between the engines, or
// between either engine and the model — is a bug in an engine's logging,
// its redo/undo, or the shared recovery machinery; the map cannot be
// wrong. Run under -race this doubles as an engine-seam race check, since
// both engines share the pool, WAL, and restore scheduler.
func TestEngineDifferentialModel(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runDifferential(t, seed)
		})
	}
}

// keySpace bounds the differential key universe; every key index in
// [0, keySpace) is checked explicitly after each recovery, so absence is
// verified as strictly as presence.
const keySpace = 500

func runDifferential(t *testing.T, seed int64) {
	opts := testOptions()
	opts.Seed = seed
	db := openTestDB(t, opts)
	bt, err := db.CreateIndexKind("bt", KindBTree)
	if err != nil {
		t.Fatal(err)
	}
	hx, err := db.CreateIndexKind("hx", KindHash)
	if err != nil {
		t.Fatal(err)
	}
	if bt.Kind() != KindBTree || hx.Kind() != KindHash {
		t.Fatalf("kinds: bt=%v hx=%v", bt.Kind(), hx.Kind())
	}

	// model holds the committed truth; pending overlays it inside one
	// transaction (nil value = deleted). Every op applies to both engines
	// in the same transaction, so the two indexes always commit or roll
	// back together.
	model := make(map[string][]byte)
	rng := rand.New(rand.NewSource(seed))
	lookup := func(pending map[string][]byte, key string) ([]byte, bool) {
		if v, ok := pending[key]; ok {
			return v, v != nil
		}
		v, ok := model[key]
		return v, ok
	}
	mutate := func(rounds int) {
		t.Helper()
		for round := 0; round < rounds; round++ {
			tx := db.Begin()
			pending := make(map[string][]byte)
			for op := 0; op < 6; op++ {
				i := rng.Intn(keySpace)
				key := string(k(i))
				cur, exists := lookup(pending, key)
				switch {
				case !exists:
					val := []byte(fmt.Sprintf("v-%d-%d", seed, rng.Int63()))
					if err := bt.Insert(tx, k(i), val); err != nil {
						t.Fatalf("btree insert %q: %v", key, err)
					}
					if err := hx.Insert(tx, k(i), val); err != nil {
						t.Fatalf("hash insert %q: %v", key, err)
					}
					pending[key] = val
				case rng.Intn(4) == 0:
					if err := bt.Delete(tx, k(i)); err != nil {
						t.Fatalf("btree delete %q: %v", key, err)
					}
					if err := hx.Delete(tx, k(i)); err != nil {
						t.Fatalf("hash delete %q: %v", key, err)
					}
					pending[key] = nil
				default:
					val := append([]byte(nil), cur...)
					val = append(val, byte('a'+rng.Intn(26)))
					if err := bt.Update(tx, k(i), val); err != nil {
						t.Fatalf("btree update %q: %v", key, err)
					}
					if err := hx.Update(tx, k(i), val); err != nil {
						t.Fatalf("hash update %q: %v", key, err)
					}
					pending[key] = val
				}
			}
			// Every few rounds the transaction aborts instead: both
			// engines must roll the whole batch back and the model learns
			// nothing.
			if rng.Intn(8) == 0 {
				if err := tx.Abort(); err != nil {
					t.Fatalf("abort: %v", err)
				}
				continue
			}
			if err := db.Commit(tx); err != nil {
				t.Fatalf("commit: %v", err)
			}
			for key, val := range pending {
				if val == nil {
					delete(model, key)
				} else {
					model[key] = val
				}
			}
		}
	}

	// agree checks both engines against the model key-for-key — present
	// keys byte-equal, absent keys ErrNotFound — and that each engine's
	// full scan enumerates exactly the model's live key set.
	agree := func(db *DB, phase string) {
		t.Helper()
		bt, err := db.Index("bt")
		if err != nil {
			t.Fatal(err)
		}
		hx, err := db.Index("hx")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < keySpace; i++ {
			key := string(k(i))
			want, ok := model[key]
			for _, eng := range []struct {
				name string
				ix   *Index
			}{{"btree", bt}, {"hash", hx}} {
				got, err := eng.ix.Get(k(i))
				if ok {
					if err != nil || !bytes.Equal(got, want) {
						t.Fatalf("%s: %s key %q = %q, %v; model has %q",
							phase, eng.name, key, got, err, want)
					}
				} else if !errors.Is(err, ErrNotFound) {
					t.Fatalf("%s: %s key %q should be absent, got %q, %v",
						phase, eng.name, key, got, err)
				}
			}
		}
		wantKeys := make([]string, 0, len(model))
		for key := range model {
			wantKeys = append(wantKeys, key)
		}
		sort.Strings(wantKeys)
		for _, eng := range []struct {
			name string
			ix   *Index
		}{{"btree", bt}, {"hash", hx}} {
			var gotKeys []string
			if err := eng.ix.Scan(nil, nil, func(e Entry) bool {
				gotKeys = append(gotKeys, string(e.Key))
				return true
			}); err != nil {
				t.Fatalf("%s: %s scan: %v", phase, eng.name, err)
			}
			sort.Strings(gotKeys)
			if len(gotKeys) != len(wantKeys) {
				t.Fatalf("%s: %s scan found %d keys, model has %d",
					phase, eng.name, len(gotKeys), len(wantKeys))
			}
			for i := range gotKeys {
				if gotKeys[i] != wantKeys[i] {
					t.Fatalf("%s: %s scan key[%d] = %q, model %q",
						phase, eng.name, i, gotKeys[i], wantKeys[i])
				}
			}
			if viols, err := eng.ix.Verify(); err != nil || len(viols) != 0 {
				t.Fatalf("%s: %s verify: %v %v", phase, eng.name, viols, err)
			}
		}
	}

	mutate(60)
	agree(db, "pre-crash")

	// Crash with dirty state in flight, then Restart: both engines'
	// committed history must replay through the shared redo path.
	db.Crash()
	ndb, _, err := db.Restart()
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	ndb.DrainRestore()
	agree(ndb, "post-restart")
	db = ndb

	// Re-resolve the handles, commit more work, back the database up,
	// then more work still — so media recovery restores from the backup
	// AND replays post-backup log for both engines.
	bt, err = db.Index("bt")
	if err != nil {
		t.Fatal(err)
	}
	hx, err = db.Index("hx")
	if err != nil {
		t.Fatal(err)
	}
	mutate(20)
	if _, _, err := db.BackupNow(); err != nil {
		t.Fatal(err)
	}
	mutate(20)

	db.FailDevice()
	mdb, rep, err := db.RecoverMedia()
	if err != nil {
		t.Fatalf("recover media: %v", err)
	}
	if rep.Media.PagesRestored == 0 {
		t.Error("media recovery restored no pages")
	}
	mdb.DrainRestore()
	agree(mdb, "post-media-recovery")
	if err := mdb.Close(); err != nil {
		t.Fatal(err)
	}
}
