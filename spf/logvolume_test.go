package spf

import (
	"fmt"
	"testing"
)

// TestLoadLogVolume bounds the whole log a load writes, per engine: 100 000
// keys of 12 bytes with 20-byte values, 1 000 inserts a commit, 4 KiB pages
// and a pool of 8 192 frames that holds the whole index. User inserts are
// 9.6 MB of it. The bounds hold only while structural records carry their
// redo alone — with the undo half they logged before (a split's
// pre-image, a page set's old payload), the same load wrote 13.71 MB and
// 24.20 MB.
func TestLoadLogVolume(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 100 000 keys per engine")
	}
	for _, c := range []struct {
		kind  IndexKind
		bound int64
	}{{KindBTree, 10_300_000}, {KindHash, 17_500_000}} {
		t.Run(c.kind.String(), func(t *testing.T) {
			opts := testOptions()
			opts.PageSize = 4096
			opts.PoolFrames = 8192
			db := openTestDB(t, opts)
			defer db.Close()
			ix, err := db.CreateIndexKind("t", c.kind)
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
			got := db.LogManager().Stats().BytesAppended
			t.Logf("%v: %d log bytes", c.kind, got)
			if got > c.bound {
				t.Fatalf("the load logged %d bytes, bound %d", got, c.bound)
			}
		})
	}
}
