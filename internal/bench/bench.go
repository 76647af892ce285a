// Package bench is the single declaration of the engine micro-benchmarks:
// Table lists every tracked benchmark once, with the GOMAXPROCS it runs
// at, its allocs/op where that count is deterministic, and the shape
// criterion of its group. `go test -bench Micro .` (bench_test.go) and
// `spfbench -bench`, the CI gate, both iterate Table. The gate holds only
// what holds on any host: the declared allocation counts, exactly, and
// each group's criterion, which relates rows of the same run. No row is
// compared against a number recorded on another machine.
//
// What is measured here is what the repo benchmark (benchmark/,
// BENCHMARK.json) cannot see from outside the process: a before/after pair
// whose "before" exists only as a shim (global-mutex tree, write-through
// flush, full redo), a scaling claim that needs more than the one CPU the
// repo benchmark is pinned to, or an exact allocation count. A claim that
// a BENCHMARK.json metric carries is not repeated here.
package bench

import (
	"fmt"
	"runtime"
	"testing"

	"repro/spf"
)

// Row is one tracked benchmark.
type Row struct {
	// Name is the sub-benchmark name under the group's.
	Name string
	// Procs is the GOMAXPROCS the row is measured at, set by Measure
	// whatever the machine or -cpu says: a parallel claim (Procs 8) needs
	// its workers however few cores the runner has.
	Procs int
	// Allocs is the row's allocs/op where that count is deterministic —
	// one goroutine's steady-state loop, or readers of a static structure,
	// with no background work inside the timed region. The gate fails on
	// any other count, above or below, so a change that adds or removes an
	// allocation edits this declaration. Nil when the count varies from
	// run to run; the row then carries only its group's criterion.
	Allocs *int64
	// Run is the benchmark body. It fails b on a setup error or when the
	// row's own shape is wrong, and returns the group's extra metric (0
	// when the group has none).
	Run func(b *testing.B) float64
}

// allocs declares a row's allocs/op; zero is a count like any other.
func allocs(n int64) *int64 { return &n }

// minAllocsN is how many iterations a run needs before its allocs/op is
// judged: below it, the few allocations a body makes once after
// ResetTimer (a worker's buffer, a lazily grown slice) can still move the
// quotient.
const minAllocsN = 100

// CheckAllocs holds one run of the row, n iterations at allocsPerOp, to
// the row's declared count. A row without one, or a run too short to
// judge, passes.
func (r Row) CheckAllocs(n int, allocsPerOp int64) error {
	if r.Allocs == nil || n < minAllocsN || allocsPerOp == *r.Allocs {
		return nil
	}
	return fmt.Errorf("%d allocs/op, declared %d", allocsPerOp, *r.Allocs)
}

// Group is the rows of one experiment and the criterion that relates them.
type Group struct {
	// Name is "E<nn><What>", the ids ARCHITECTURE.md and ROADMAP.md cite.
	Name string
	// Claim is the shape criterion in one line, for `spfbench -list`.
	Claim string
	// Metric names what Row.Run returns; empty when rows return nothing.
	Metric string
	Rows   []Row
	// Check enforces the cross-row criterion on what the rows measured.
	// Rows that did not run (a -bench filter) are absent from the map and
	// rows that ran too few iterations to mean anything (-benchtime=1x)
	// show it in Result.N: Check skips what it cannot judge. Nil when the
	// rows' own checks are the whole criterion.
	Check func(rows map[string]Result) error
}

// Result is what one row measured.
type Result struct {
	N       int
	NsPerOp float64
	Metric  float64
}

// Measure runs the row's body on b at the row's GOMAXPROCS.
func (r Row) Measure(b *testing.B) Result {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(r.Procs))
	b.ReportAllocs()
	m := r.Run(b)
	b.StopTimer()
	return Result{N: b.N, NsPerOp: float64(b.Elapsed().Nanoseconds()) / float64(b.N), Metric: m}
}

// both returns the two named rows when each ran at least minN iterations.
func both(rows map[string]Result, a, b string, minN int) (Result, Result, bool) {
	ra, rb := rows[a], rows[b]
	return ra, rb, ra.N >= minN && rb.N >= minN
}

// noSlowerThan is the shape of the before/after pairs whose claim is "the
// new path costs no more": after may exceed before by half again, the
// margin that absorbs runner noise at a median of three.
func noSlowerThan(rows map[string]Result, after, before string) error {
	a, b, ok := both(rows, after, before, 2)
	if ok && 2*a.NsPerOp > 3*b.NsPerOp {
		return fmt.Errorf("%s %.0f ns/op slower than %s %.0f ns/op beyond noise", after, a.NsPerOp, before, b.NsPerOp)
	}
	return nil
}

// Table is every tracked micro-benchmark. E1–E16 are the paper's figures
// (internal/experiments.Table); the numbers missing from E17–E35 were
// retired when a BENCHMARK.json metric, another row or the model-based
// checker (spf/checker_test.go) took over their claim. ARCHITECTURE.md
// lists each beside what holds it now.
var Table = []Group{
	{
		// The cost of one commit force. A lone committer leads its own log
		// flush, so it pays exactly one flush per commit, and its ns/op
		// (170–240 on a 2-vCPU host) is what catches a timer or a goroutine
		// hand-off coming back onto the commit path: either costs >=1 ms on
		// an idle P. loneCommitBound sits far from both, so the check needs
		// no number from another run. How concurrent committers share
		// flushes is pinned deterministically by wal.TestGroupCommitCoalesces.
		Name: "E20GroupCommitThroughput", Metric: "commits/flush",
		Claim: "a lone committer forces exactly once per commit, in under 20 µs",
		Rows: []Row{
			{Name: "committers=1", Procs: 1, Run: loneCommit},
		},
		Check: func(rows map[string]Result) error {
			g := rows["committers=1"]
			if g.N >= 1 && g.Metric != 1 {
				return fmt.Errorf("a lone committer made %.2f commits/flush, want exactly 1", g.Metric)
			}
			if g.N >= 100 && g.NsPerOp > float64(loneCommitBound) {
				return fmt.Errorf("a lone commit took %.0f ns, bound %v: something waits on the commit path", g.NsPerOp, loneCommitBound)
			}
			return nil
		},
	},
	{
		// Dirty-page flush throughput on a hot update workload. sync is the
		// old foreground discipline — every update pays a synchronous
		// write-back (device write + per-page PRI log append) inline; async
		// marks dirty and lets the maintenance flusher drain batches
		// (grouped PRI appends, re-dirty coalescing). Both end fully
		// durable. writes/update is the write amplification each pays.
		Name: "E21AsyncWriteBack", Metric: "writes/update",
		Claim: "async write-back >=2x the write-through throughput, at under half its device writes",
		Rows: []Row{
			{Name: "sync", Procs: 1, Allocs: allocs(4), Run: func(b *testing.B) float64 { return writeBack(b, false) }},
			{Name: "async", Procs: 1, Run: func(b *testing.B) float64 { return writeBack(b, true) }},
		},
		Check: func(rows map[string]Result) error {
			s, a, ok := both(rows, "sync", "async", 4096)
			if ok && s.NsPerOp < 2*a.NsPerOp {
				return fmt.Errorf("async update %.0f ns not >=2x faster than sync %.0f ns", a.NsPerOp, s.NsPerOp)
			}
			return nil
		},
	},
	{
		// What the continuous scrub campaign costs foreground traffic: b.N
		// buffer-hit fetches with the campaign off and scanning 50k pages/s
		// with live repairs. The off/on ns/op delta is the overhead; off is
		// also the pool's hit path alone, held to 0 allocs/op.
		Name: "E22ScrubCampaignOverhead", Metric: "pages-scrubbed",
		Claim: "the campaign makes progress under foreground load; the hit path allocates nothing",
		Rows: []Row{
			{Name: "off", Procs: 1, Allocs: allocs(0), Run: func(b *testing.B) float64 { return scrubOverhead(b, 0) }},
			{Name: "on", Procs: 1, Run: func(b *testing.B) float64 { return scrubOverhead(b, 50000) }},
		},
	},
	{
		// Concurrent B-tree throughput under a mixed Get/Insert/Update/
		// Delete workload, three ways: the latch-coupled tree with the
		// optimistic descent (no latch above the leaf, frame versions
		// validated after every step), the same tree with the shared-latch
		// crab on every level, and a tree-global-mutex shim reproducing the
		// seed's serialization. In the disjoint shape each worker owns its
		// write range and reads roam a working set larger than the pool, so
		// descents stall on a real buffer-miss latency: under the global
		// mutex every stall serializes all workers, latch-coupled descents
		// overlap them. The contended shape hammers one small resident
		// range, where writers bump frame versions constantly: the
		// adversarial shape for optimistic readers, whose failed version
		// check wastes two atomic loads and re-runs the crab, never spins
		// and never blocks a writer.
		Name:  "E23ParallelTreeOps",
		Claim: "disjoint: latch-coupled >=2x the global-mutex baseline; under writers the optimistic descent costs no more than the latched one",
		Rows: []Row{
			{Name: "disjoint/optimistic", Procs: 8, Run: parallelOps(false, false, true)},
			{Name: "disjoint/latched", Procs: 8, Run: parallelOps(false, false, false)},
			{Name: "disjoint/global-mutex", Procs: 8, Run: parallelOps(false, true, true)},
			{Name: "contended/optimistic", Procs: 8, Run: parallelOps(true, false, true)},
			{Name: "contended/latched", Procs: 8, Run: parallelOps(true, false, false)},
		},
		Check: func(rows map[string]Result) error {
			l, m, ok := both(rows, "disjoint/optimistic", "disjoint/global-mutex", 1000)
			if ok && m.NsPerOp < 2*l.NsPerOp {
				return fmt.Errorf("latch-coupled %.0f ns/op not >=2x better than global mutex %.0f ns/op", l.NsPerOp, m.NsPerOp)
			}
			if err := noSlowerThan(rows, "contended/optimistic", "contended/latched"); err != nil {
				return err
			}
			return noSlowerThan(rows, "disjoint/optimistic", "disjoint/latched")
		},
	},
	{
		// Time from a system failure until the first read observes its
		// acked data again. instant prepares redo in O(active pages),
		// returns from Restart before redo completes and pays only the read
		// page's own chain replay; the baseline (Options.DisablePageLSNCheck)
		// scans the log forward and replays every dirty page first. One
		// iteration is one crash-and-restart cycle, so one is enough to
		// judge. The factor was 5 while replaying this database took 48 ms
		// against 2 ms; the in-place page layout cut replay to 6.5 ms, both
		// sides now share a floor of 1.2–1.6 ms (log analysis and the
		// post-restart checkpoint), and the measured ratio is 4.2–5.7x.
		Name: "E26RestartFirstReadLatency", Metric: "first-read-ns",
		Claim: "instant restart's first read >=3x sooner than after full redo",
		Rows: []Row{
			{Name: "instant", Procs: 1, Run: func(b *testing.B) float64 { return firstReadLatency(b, false) }},
			{Name: "full-redo-baseline", Procs: 1, Run: func(b *testing.B) float64 { return firstReadLatency(b, true) }},
		},
		Check: func(rows map[string]Result) error {
			i, f, ok := both(rows, "instant", "full-redo-baseline", 1)
			if ok && f.Metric < 3*i.Metric {
				return fmt.Errorf("instant first read %.0f us not >=3x better than full redo %.0f us", i.Metric/1e3, f.Metric/1e3)
			}
			return nil
		},
	},
	{
		// Bulk redo drain scaling: the needs-redo backlog an instant
		// restart enqueues is partitioned by page, so adding workers
		// divides the drain time. One iteration drains 256 tickets.
		Name: "E27ParallelRedoDrain", Metric: "drain-ns",
		Claim: "4 workers drain >=2x faster than 1",
		Rows: []Row{
			{Name: "workers=1", Procs: 1, Run: func(b *testing.B) float64 { return parallelRedoDrain(b, 1) }},
			{Name: "workers=4", Procs: 1, Run: func(b *testing.B) float64 { return parallelRedoDrain(b, 4) }},
		},
		Check: func(rows map[string]Result) error {
			w1, w4, ok := both(rows, "workers=1", "workers=4", 1)
			if ok && w1.Metric < 2*w4.Metric {
				return fmt.Errorf("4-worker drain %.0f ms not >=2x faster than 1-worker %.0f ms", w4.Metric/1e6, w1.Metric/1e6)
			}
			return nil
		},
	},
	{
		// Point reads against a fully resident, static three-level tree —
		// the regime the decoded-skeleton cache and optimistic latch
		// coupling target. optimistic descends with no latch on branch
		// levels (routes through the frame-cached skeleton, validates the
		// frame version after every step) and takes only the leaf's shared
		// latch; latched forces the shared-latch crab on every level, kept
		// measurable as the before-side. Measured 1.3–1.4x apart on two
		// cores (the gap is the two latch acquisitions per level and widens
		// with real cores), so the criterion is the order, not a factor.
		Name: "E28ResidentReadThroughput", Metric: "optimistic-hit-fraction",
		Claim: "optimistic no slower than latched, 0 allocs/op, fallbacks <1% of hits on a static tree",
		Rows: []Row{
			{Name: "zipfian/optimistic", Procs: 8, Allocs: allocs(0), Run: func(b *testing.B) float64 { return residentReads(b, true, true) }},
			{Name: "zipfian/latched", Procs: 8, Allocs: allocs(0), Run: func(b *testing.B) float64 { return residentReads(b, true, false) }},
			{Name: "uniform/optimistic", Procs: 8, Allocs: allocs(0), Run: func(b *testing.B) float64 { return residentReads(b, false, true) }},
			{Name: "uniform/latched", Procs: 8, Allocs: allocs(0), Run: func(b *testing.B) float64 { return residentReads(b, false, false) }},
		},
		Check: func(rows map[string]Result) error {
			if err := noSlowerThan(rows, "zipfian/optimistic", "zipfian/latched"); err != nil {
				return err
			}
			return noSlowerThan(rows, "uniform/optimistic", "uniform/latched")
		},
	},
	{
		// One page's full-chain replay — the single-page-recovery read path
		// — at equal history depth before and after the log lifecycle moves
		// that history. The baseline chases prev-LSN pointers through the
		// live log, each hop a full interleave round away; archived-runs
		// reads the page's span of a sorted, page-partitioned run after
		// every live segment was recycled. Repair latency must not degrade
		// when history ages out of RAM.
		Name:  "E32ArchivedChainReplay",
		Claim: "archived replay no slower than the live seek path",
		Rows: []Row{
			{Name: "archived-runs", Procs: 1, Allocs: allocs(32), Run: func(b *testing.B) float64 { return chainReplay(b, true) }},
			{Name: "live-seek-baseline", Procs: 1, Allocs: allocs(521), Run: func(b *testing.B) float64 { return chainReplay(b, false) }},
		},
		Check: func(rows map[string]Result) error {
			return noSlowerThan(rows, "archived-runs", "live-seek-baseline")
		},
	},
	{
		// Media-restore preparation — every page's chain replayed — at
		// equal history depth. This is where the sorted layout pays most:
		// the live variant re-seeks the interleaved log once per page, the
		// archived variant reads each page's history as one sequential span.
		Name:  "E33MediaRestoreReplay",
		Claim: "archived all-chains replay no slower than live",
		Rows: []Row{
			// Each page's chain decodes in place, one record slab per run
			// span: 4 096 allocs per op, the same in every run, so the count
			// is held. The live baseline still allocates per record (~66 700)
			// and the runtime's own occasional allocation moves that
			// quotient by one, so it is not.
			{Name: "archived-runs", Procs: 1, Allocs: allocs(4096), Run: func(b *testing.B) float64 { return mediaRestoreReplay(b, true) }},
			{Name: "live-seek-baseline", Procs: 1, Run: func(b *testing.B) float64 { return mediaRestoreReplay(b, false) }},
		},
		Check: func(rows map[string]Result) error {
			return noSlowerThan(rows, "archived-runs", "live-seek-baseline")
		},
	},
	{
		// Per-op cost through the Engine seam for both index kinds on the
		// identical seeded request stream: pure point reads into a reused
		// buffer, and a mixed shape committing one single-op update
		// transaction per five ops. Both engines run over the same shared
		// stack (checksummed pages, WAL, buffer pool), differing only in
		// how they organize keys; the exact allocs/op are the criterion.
		Name:  "E34EnginePointOps",
		Claim: "allocs/op per engine and shape exactly as declared",
		Rows: []Row{
			{Name: "btree/read", Procs: 1, Allocs: allocs(2), Run: func(b *testing.B) float64 { return pointOps(b, spf.KindBTree, false) }},
			{Name: "btree/mixed", Procs: 1, Allocs: allocs(3), Run: func(b *testing.B) float64 { return pointOps(b, spf.KindBTree, true) }},
			{Name: "hash/read", Procs: 1, Allocs: allocs(2), Run: func(b *testing.B) float64 { return pointOps(b, spf.KindHash, false) }},
			{Name: "hash/mixed", Procs: 1, Allocs: allocs(4), Run: func(b *testing.B) float64 { return pointOps(b, spf.KindHash, true) }},
		},
	},
}
