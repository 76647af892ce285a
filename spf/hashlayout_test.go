package spf

import (
	"fmt"
	"runtime"
	"testing"
)

// TestHashLayoutIndependentOfWriteBack: a hash table's layout is a function
// of the keys loaded, not of when background write-back held its
// directory. A 100 000-key load at the default geometry, on one P, lays out
// the same pages, bucket splits and overflow pages with maintenance on, in
// each of three runs, as with it off. A split round that finds the
// directory latched stays owed instead of being given up.
func TestHashLayoutIndependentOfWriteBack(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 100 000 keys four times")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	layout := func(maintenance bool) string {
		var opts Options
		opts.Maintenance.Enabled = maintenance
		db := openTestDB(t, opts)
		defer db.Close()
		ix, err := db.CreateIndexKind("t", KindHash)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100_000; i += 1000 {
			tx := db.Begin()
			for j := i; j < i+1000; j++ {
				if err := ix.Insert(tx, []byte(fmt.Sprintf("key-%08d", j)), []byte(fmt.Sprintf("val-%016d", j))); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Commit(tx); err != nil {
				t.Fatal(err)
			}
		}
		s, err := ix.HashStats()
		if err != nil {
			t.Fatal(err)
		}
		m := ix.Metrics()
		return fmt.Sprintf("%d pages, %d bucket splits, %d overflow pages", s.Pages, m.BucketSplits, m.OverflowPages)
	}
	want := layout(false)
	for run := 0; run < 3; run++ {
		if got := layout(true); got != want {
			t.Fatalf("run %d with maintenance: %s, without: %s", run, got, want)
		}
	}
	t.Log(want)
}
