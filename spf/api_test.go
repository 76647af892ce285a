package spf

import (
	"errors"
	"fmt"
	"testing"
)

// TestErrorTaxonomy pins the exported sentinel errors a server front end
// maps to wire status codes: lifecycle errors (ErrClosed, ErrCrashed),
// benign misses (ErrNotFound), and detection failures (ErrDetected) must
// all be distinguishable with errors.Is — never by string matching.
func TestErrorTaxonomy(t *testing.T) {
	db, err := Open(Options{PageSize: 1024, DataSlots: 1 << 12, PoolFrames: 256})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := db.CreateIndex("t")
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	if err := ix.Insert(tx, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(tx); err != nil {
		t.Fatal(err)
	}

	// A miss is ErrNotFound — and ErrNotFound aliases ErrKeyNotFound, so
	// existing callers keep working.
	if _, err := ix.Get([]byte("absent")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("miss: got %v, want ErrNotFound", err)
	}
	if !errors.Is(ErrNotFound, ErrKeyNotFound) || !errors.Is(ErrKeyNotFound, ErrNotFound) {
		t.Fatal("ErrNotFound and ErrKeyNotFound must alias")
	}
	// The miss is NOT a detection or repair failure.
	if _, err := ix.Get([]byte("absent")); errors.Is(err, ErrDetected) || errors.Is(err, ErrPageFailed) {
		t.Fatalf("miss classified as corruption: %v", err)
	}

	// Crash dominates: operations report ErrCrashed until Restart.
	db.Crash()
	if _, err := db.Fetch(1); !errors.Is(err, ErrCrashed) {
		t.Fatalf("after Crash: got %v, want ErrCrashed", err)
	}
	ndb, _, err := db.Restart()
	if err != nil {
		t.Fatal(err)
	}

	// Close gates every public entry point with ErrClosed.
	if err := ndb.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ndb.Fetch(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Fetch after Close: got %v, want ErrClosed", err)
	}
	if _, err := ndb.Checkpoint(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Checkpoint after Close: got %v, want ErrClosed", err)
	}
	if _, _, err := ndb.BackupNow(); !errors.Is(err, ErrClosed) {
		t.Fatalf("BackupNow after Close: got %v, want ErrClosed", err)
	}
	if _, err := ndb.CreateIndex("u"); !errors.Is(err, ErrClosed) {
		t.Fatalf("CreateIndex after Close: got %v, want ErrClosed", err)
	}
	// Close stays idempotent.
	if err := ndb.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsSnapshot checks that DB.Metrics gathers every subsystem and
// that the historical accessors are views of the same snapshot.
func TestMetricsSnapshot(t *testing.T) {
	db, err := Open(Options{
		PageSize: 1024, DataSlots: 1 << 12, PoolFrames: 256,
		Maintenance: MaintenanceOptions{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ix, err := db.CreateIndex("users")
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	for i := 0; i < 500; i++ {
		k := []byte(fmt.Sprintf("user%06d", i))
		if err := ix.Insert(tx, k, []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Commit(tx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if _, err := ix.Get([]byte(fmt.Sprintf("user%06d", i))); err != nil {
			t.Fatal(err)
		}
	}

	m := db.Metrics()
	if m.Txns.UserCommitted == 0 || m.Log.Appends == 0 || m.Pool.Hits == 0 {
		t.Fatalf("snapshot missing core activity: %+v", m)
	}
	if m.Pages == 0 || m.PRI.Pages == 0 {
		t.Fatalf("snapshot missing sizing: pages=%d pri=%+v", m.Pages, m.PRI)
	}
	if m.Crashed || m.Closed {
		t.Fatalf("healthy DB reports crashed=%v closed=%v", m.Crashed, m.Closed)
	}
	if len(m.Indexes) != 1 || m.Indexes[0].Name != "users" {
		t.Fatalf("index metrics: %+v", m.Indexes)
	}
	im := m.Indexes[0]
	if im.Splits == 0 {
		t.Fatalf("500 inserts split nothing: %+v", im)
	}
	if im.OptimisticHits == 0 {
		t.Fatalf("resident reads produced no optimistic hits: %+v", im)
	}

	// An index's own view is its slice of the DB snapshot.
	if pm := ix.Metrics(); pm.Splits != im.Splits || pm.Root != im.Root || pm.Kind != im.Kind {
		t.Fatalf("Index.Metrics %+v disagrees with DB.Metrics %+v", pm, im)
	}

	// Lifecycle flags surface in the snapshot after Close.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if m := db.Metrics(); !m.Closed {
		t.Fatal("Metrics after Close must report Closed")
	}
}

// TestIndexGetToZeroAlloc pins the server's hot read path: a resident GET
// through Index.GetTo with a reused destination buffer must not allocate.
func TestIndexGetToZeroAlloc(t *testing.T) {
	db, err := Open(Options{PageSize: 1024, DataSlots: 1 << 12, PoolFrames: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ix, err := db.CreateIndex("t")
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	for i := 0; i < 256; i++ {
		k := []byte(fmt.Sprintf("key%06d", i))
		if err := ix.Insert(tx, k, []byte("value-payload-0123456789")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Commit(tx); err != nil {
		t.Fatal(err)
	}

	key := []byte("key000123")
	buf := make([]byte, 0, 64)
	// Warm the descent (frozen branch copies, frame residency).
	for i := 0; i < 10; i++ {
		if _, err := ix.GetTo(buf[:0], key); err != nil {
			t.Fatal(err)
		}
	}
	var got []byte
	allocs := testing.AllocsPerRun(200, func() {
		v, err := ix.GetTo(buf[:0], key)
		if err != nil {
			t.Fatal(err)
		}
		got = v
	})
	if allocs != 0 {
		t.Fatalf("resident GetTo allocates %.1f/op, want 0", allocs)
	}
	if string(got) != "value-payload-0123456789" {
		t.Fatalf("wrong value %q", got)
	}

	// Get without a buffer still works (one alloc for the value is fine).
	if v, err := ix.Get(key); err != nil || string(v) != "value-payload-0123456789" {
		t.Fatalf("Get: %q, %v", v, err)
	}
}
