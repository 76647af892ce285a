package bench

// Drivers for E20 lone commit and the log-lifecycle replays E32/E33.

import (
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/iosim"
	"repro/internal/page"
	"repro/internal/wal"
)

// loneCommitBound is E20's ceiling on one lone commit: about 100x the
// 170–240 ns a commit force costs, and 1/50 of the >=1 ms that a timer or a
// goroutine hand-off on the commit path would add.
const loneCommitBound = 20 * time.Microsecond

// loneCommit drives b.N commits from one goroutine, each appending a
// commit record and forcing it through ForceForCommit, and returns the
// commits per flush.
func loneCommit(b *testing.B) float64 {
	m := wal.NewManager(iosim.Instant)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lsn := m.Append(&wal.Record{Type: wal.TypeCommit})
		if err := m.ForceForCommit(lsn); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	return float64(b.N) / float64(m.Stats().Flushes)
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
	m.SetArchive(st.NewReader())
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
