// Command benchmark is the repository's benchmark: it builds each
// workload's database in-process, stands internal/server up on a loopback
// socket over it, drives it through server.Client, checks every reply,
// and prints every metric by name with its unit. BENCHMARK.json at the
// repository root names the workloads and metrics; README.md in this
// directory defines them.
//
// Usage (run.sh builds the program and runs it on one CPU; it is what
// BENCHMARK.json names):
//
//	bash benchmark/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1]
//	                      [-trace-file FILE] [-out FILE] [-check-repeat]
//
// With -workload the last line of standard output is one JSON object:
// the end-to-end metrics with -trace 0 (the default), the per-layer
// metrics with -trace 1. Without -workload every workload runs both ways.
// The exit code is non-zero when any operation failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
)

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	seed     int64
	// seconds is the length of the measured window. Wire workloads
	// measure ten slices of seconds/10 (after a warm-up of seconds/10);
	// round and cycle workloads run a number of rounds fixed by seconds,
	// so their counts repeat exactly.
	seconds float64
	// traced selects the traced run: the same measured window, then
	// alternating entry points under the span recorder, then the probes;
	// its result line carries the per-layer metrics.
	traced bool
	// scale shrinks the data and the round sizes (the smoke test runs at
	// 1/50); 1 is the benchmark proper.
	scale float64
}

// value is one reported metric: the number, the quartiles of the samples
// behind it where there are several (slices, rounds, cycles), and the
// sample count.
type value struct {
	v, q1, q3 float64
	n         int64
}

// budgetRow splits the mean round trip of one operation into named
// parts that sum to it.
type budgetRow struct {
	op      string
	totalUs float64
	parts   []budgetPart
	n       int64
}

type budgetPart struct {
	name string
	us   float64
}

type stepRow struct {
	name           string
	meanUs, selfUs float64
	n              int64
}

// result is what one run produced.
type result struct {
	cfg       runConfig
	vals      map[string]value
	attempted int64
	failed    int64
	failures  []string
	// stream is the hash of the first streamPrefix generated operations
	// of every client; the same seed must give the same hash.
	stream uint64
	budget []budgetRow
	steps  []stepRow
	spans  *recorder
}

func (r *result) set(name string, v float64, n int64) {
	r.vals[name] = value{v: v, q1: v, q3: v, n: n}
}

// setMedian reports the median of xs — one value per slice, round or
// cycle — with the quartiles as its spread. n is the number of operations
// (or calls) behind xs.
func (r *result) setMedian(name string, xs []float64, n int64) {
	q1, med, q3 := quartiles(xs)
	r.vals[name] = value{v: med, q1: q1, q3: q3, n: n}
}

// setRounds is setMedian for a quantity taken once per round or cycle.
func (r *result) setRounds(name string, xs []float64) {
	r.setMedian(name, xs, int64(len(xs)))
}

// setLatency reports, in µs, the median over slices of each slice's
// q-quantile of wire operations of one kind (q = 1: the slowest). A tail
// percentile needs 1000 samples behind it: where a slice has fewer, the
// slices are pooled and the tail follows tailQuantile on the pooled count.
func (r *result) setLatency(name string, ss []sliceStats, kind opKind, q float64) {
	var pooled hist
	var xs []float64
	perSliceOK := true
	for i := range ss {
		h := &ss[i].lat[viaWire][kind]
		if h.n == 0 {
			continue
		}
		pooled.merge(h)
		xs = append(xs, h.quantile(q)/1e3)
		if q > 0.5 && q < 1 && h.n < 1000 {
			perSliceOK = false
		}
	}
	if perSliceOK {
		r.setMedian(name, xs, pooled.n)
	} else {
		r.set(name, pooled.quantile(tailQuantile(pooled.n))/1e3, pooled.n)
	}
}

// finish folds the run's accounting into the result.
func (r *result) finish(e *env) {
	r.attempted = e.attempted.Load()
	r.failed = e.fails.n.Load()
	r.failures = e.fails.msgs
	r.spans = e.rec
}

// names lists the metrics this run's result line must carry, in
// BENCHMARK.json order.
func (r *result) names() []metricDef {
	if r.cfg.traced {
		return perLayer
	}
	return endToEnd
}

// jsonLine renders the contract's result object.
func (r *result) jsonLine() string {
	type m struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool         `json:"correct"`
		Attempted int64        `json:"attempted"`
		Failed    int64        `json:"failed"`
		Metrics   map[string]m `json:"metrics"`
	}{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]m{}}
	for _, d := range r.names() {
		out.Metrics[d.Name] = m{Value: r.vals[d.Name].v, Unit: d.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(b)
}

// print writes the human-readable report.
func (r *result) print() {
	mode := "untraced"
	if r.cfg.traced {
		mode = "traced"
	}
	fmt.Printf("== %s seed=%d seconds=%g %s clients=%d GOMAXPROCS=%d\n",
		r.cfg.workload, r.cfg.seed, r.cfg.seconds, mode, clientCount(), runtime.GOMAXPROCS(0))
	// An untraced run also prints the user-visible metrics of its own
	// workload that BENCHMARK.json has to list under per_layer.
	for _, d := range slices.Concat(endToEnd, perLayer) {
		v, ok := r.vals[d.Name]
		if !ok {
			continue
		}
		spread := ""
		if v.q1 != v.q3 {
			spread = fmt.Sprintf("  quartiles %.4g..%.4g", v.q1, v.q3)
		}
		fmt.Printf("%-34s %14.6g %-6s n=%d%s\n", d.Name, v.v, d.Unit, v.n, spread)
	}
	for _, b := range r.budget {
		fmt.Printf("budget %-12s mean %9.2f us =", b.op, b.totalUs)
		for i, p := range b.parts {
			if i > 0 {
				fmt.Print(" +")
			}
			fmt.Printf(" %s %.2f", p.name, p.us)
		}
		fmt.Printf("  (n=%d)\n", b.n)
	}
	for _, s := range r.steps {
		fmt.Printf("span %-14s mean %9.2f us  self %9.2f us  (n=%d)\n", s.name, s.meanUs, s.selfUs, s.n)
	}
	fmt.Printf("attempted %d  failed %d\n", r.attempted, r.failed)
	for _, f := range r.failures {
		fmt.Printf("FAILED: %s\n", f)
	}
}

// workloadNames is the order of BENCHMARK.json.
var workloadNames = []string{"wire-get-resident", "wire-get-hash", "wire-mixed-cold", "repair-online", "recovery-cycle"}

// runWorkload runs one workload once.
func runWorkload(cfg runConfig) (*result, error) {
	res := &result{cfg: cfg, vals: map[string]value{}}
	e := &env{cfg: cfg, fails: &failures{}}
	var err error
	switch cfg.workload {
	case "repair-online":
		e.spec = repairSpec.scaled(cfg.scale)
		err = runRepair(e, res)
	case "recovery-cycle":
		e.spec = cycleSpec.scaled(cfg.scale)
		err = runCycle(e, res)
	default:
		spec, ok := wireSpecs[cfg.workload]
		if !ok {
			return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames, ", "))
		}
		e.spec = spec.db.scaled(cfg.scale)
		err = runWire(e, spec, res)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	res.finish(e)
	return res, nil
}

func main() {
	var (
		workload    = flag.String("workload", "", "workload to run (default: all, untraced and traced)")
		seed        = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds     = flag.Float64("seconds", 12, "length of the measured window")
		trace       = flag.Int("trace", -1, "0: end-to-end metrics; 1: traced run, per-layer metrics; default both")
		traceFile   = flag.String("trace-file", "", "write the traced runs' spans to FILE as JSON lines")
		outFile     = flag.String("out", "", "also write every result line to FILE")
		checkRepeat = flag.Bool("check-repeat", false, "run two full sets back to back and fail if a bounded metric differs by more than its bound")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: benchmark [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-trace-file FILE] [-out FILE] [-check-repeat]")
		os.Exit(2)
	}
	names := workloadNames
	if *workload != "" {
		names = []string{*workload}
	}
	modes := []bool{false, true}
	switch {
	case *checkRepeat:
		modes = []bool{false} // bounds apply to untraced runs
	case *trace == 0 || *trace == 1:
		modes = []bool{*trace == 1}
	case *workload != "":
		modes = []bool{false}
	}

	var lines []string
	failed := false
	runSet := func(order []string) map[string]*result {
		set := map[string]*result{}
		for _, name := range order {
			for _, traced := range modes {
				res, err := runWorkload(runConfig{workload: name, seed: *seed, seconds: *seconds, traced: traced, scale: 1})
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					os.Exit(1)
				}
				res.print()
				if traced && *traceFile != "" && res.spans != nil {
					if err := res.spans.writeJSONL(traceFileFor(*traceFile, name, len(names) > 1)); err != nil {
						fmt.Fprintln(os.Stderr, "benchmark: writing trace:", err)
						os.Exit(1)
					}
				}
				res.spans = nil // a recorder is tens of MB; the next run's heap_mb must not see it
				line := res.jsonLine()
				lines = append(lines, line)
				failed = failed || res.failed > 0
				if !traced {
					set[name] = res
				}
				fmt.Println(line)
			}
		}
		return set
	}

	first := runSet(names)
	if *checkRepeat {
		// The second set runs the workloads in the opposite order.
		rev := slices.Clone(names)
		slices.Reverse(rev)
		second := runSet(rev)
		if !compareSets(first, second) {
			failed = true
		}
		// Keep the contract: the last line is a result object.
		fmt.Println(lines[len(lines)-1])
	}
	if *outFile != "" {
		if err := os.WriteFile(*outFile, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	}
	if failed {
		os.Exit(1)
	}
}

func traceFileFor(path, workload string, many bool) string {
	if !many {
		return path
	}
	return path + "." + workload
}

// compareSets prints both sets' medians and quartiles for every bounded
// metric × workload of the untraced runs and reports whether each pair
// agrees within the bound.
func compareSets(a, b map[string]*result) bool {
	ok := true
	fmt.Println("== check-repeat: set 1 vs set 2, median [quartiles], bounded metrics")
	for _, name := range workloadNames {
		ra, rb := a[name], b[name]
		if ra == nil || rb == nil {
			continue
		}
		for _, d := range slices.Concat(endToEnd, perLayer) {
			va, measured := ra.vals[d.Name]
			vb := rb.vals[d.Name]
			if d.Bound == 0 || !measured {
				continue
			}
			lo, hi := va.v, vb.v
			if lo > hi {
				lo, hi = hi, lo
			}
			verdict := "ok"
			if lo <= 0 || (hi-lo)/lo > d.Bound {
				verdict = "DIFFERS"
				ok = false
			}
			fmt.Printf("%-18s %-26s %12.5g [%.5g..%.5g]  %12.5g [%.5g..%.5g]  %+6.1f%% (bound %g%%) %s\n",
				name, d.Name, va.v, va.q1, va.q3, vb.v, vb.q1, vb.q3,
				100*ratio(vb.v-va.v, va.v), 100*d.Bound, verdict)
		}
	}
	return ok
}
