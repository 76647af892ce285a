package bench

// Drivers for E20 group commit and the log-lifecycle replays E32/E33.

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/archive"
	"repro/internal/iosim"
	"repro/internal/page"
	"repro/internal/wal"
)

// groupCommit drives b.N commits from the given number of concurrent
// goroutines, each appending a commit record and forcing it through
// ForceForCommit, and returns the coalescing factor, commits per flush.
func groupCommit(b *testing.B, committers int) float64 {
	m := wal.NewManager(iosim.Instant)
	var ops atomic.Int64
	ops.Store(int64(b.N))
	var wg sync.WaitGroup
	b.ResetTimer()
	for c := 0; c < committers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for ops.Add(-1) >= 0 {
				lsn := m.Append(&wal.Record{Type: wal.TypeCommit, Txn: wal.TxnID(c)})
				if err := m.ForceForCommit(lsn); err != nil {
					b.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	b.StopTimer()
	flushes := m.Stats().Flushes
	if flushes == 0 {
		return 0
	}
	return float64(b.N) / float64(flushes)
}

// Shape of the lifecycle replay benchmarks (E32/E33): many per-page
// chains written round-robin, so consecutive records of one page sit a
// full round apart in the live log — the live replay of any single chain
// is a pointer chase scattered across the whole log, while the archived
// replay of the same chain reads one sorted, page-partitioned run span
// sequentially.
const (
	// chainPages is the number of interleaved per-page chains.
	chainPages = 128
	// chainDepth is the history depth of every chain — the number of
	// records a single-page replay applies.
	chainDepth = 256

	chainPayload = 120
)

// buildChainLog writes chainPages interleaved chains of chainDepth
// records each and flushes, returning the manager and every chain's head:
// heads[p] is the newest record of page p+1.
func buildChainLog() (*wal.Manager, []page.LSN) {
	m := wal.NewManager(iosim.Instant)
	payload := make([]byte, chainPayload)
	prev := make([]page.LSN, chainPages)
	for d := 0; d < chainDepth; d++ {
		typ := wal.TypeUpdate
		if d == 0 {
			typ = wal.TypeFormat
		}
		for p := 0; p < chainPages; p++ {
			prev[p] = m.Append(&wal.Record{
				Type: typ, Txn: 1,
				PageID:      page.ID(p + 1),
				PagePrevLSN: prev[p],
				Payload:     payload,
			})
		}
	}
	m.FlushAll()
	return m, prev
}

// archiveAndRecycle drains the whole flushed log through the real
// archiver pipeline (sealed segments → sorted runs), wires the archive
// fallback into the manager, and recycles every live segment — after it
// returns, every chain replay is served from archived runs.
func archiveAndRecycle(b *testing.B, m *wal.Manager) {
	b.Helper()
	st := archive.NewStore(iosim.Instant, wal.FirstLSN())
	ar := archive.New(m, st, archive.Config{SegmentBytes: 256 << 10})
	ar.SetCheckpointHorizon(m.FlushedLSN())
	if err := ar.Step(true); err != nil {
		b.Fatal(err)
	}
	m.SetArchive(st.NewReader(1))
	if m.TruncatedLSN() != m.FlushedLSN() {
		b.Fatalf("recycle stopped at %d, flushed %d", m.TruncatedLSN(), m.FlushedLSN())
	}
}

// chainReplay measures one page's full-chain replay (WalkPageChain, the
// single-page-recovery read path): archived=false chases prev pointers
// through the live log, archived=true reads the page's span of the sorted
// archive runs after every live segment has been recycled.
func chainReplay(b *testing.B, archived bool) float64 {
	m, heads := buildChainLog()
	if archived {
		archiveAndRecycle(b, m)
	}
	target := chainPages / 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, err := m.WalkPageChain(heads[target], 0, page.ID(target+1))
		if err != nil {
			b.Fatal(err)
		}
		if len(recs) != chainDepth {
			b.Fatalf("chain replayed %d records, want %d", len(recs), chainDepth)
		}
	}
	return 0
}

// mediaRestoreReplay measures replaying every page's chain, the work a
// device-failure restore does for its whole page set.
func mediaRestoreReplay(b *testing.B, archived bool) float64 {
	m, heads := buildChainLog()
	if archived {
		archiveAndRecycle(b, m)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total := 0
		for p, head := range heads {
			recs, err := m.WalkPageChain(head, 0, page.ID(p+1))
			if err != nil {
				b.Fatal(err)
			}
			total += len(recs)
		}
		if total != chainPages*chainDepth {
			b.Fatalf("restore replayed %d records, want %d", total, chainPages*chainDepth)
		}
	}
	return 0
}
