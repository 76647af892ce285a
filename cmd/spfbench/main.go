// Command spfbench runs what internal/experiments.Table and
// internal/bench.Table declare: the paper's figures as text tables, and
// the engine micro-benchmarks as the CI regression gate.
//
// Usage:
//
//	spfbench                   # run experiments E1–E16, print their tables
//	spfbench E1 E10            # run selected experiments
//	spfbench -list             # print both tables: ids, titles, rows, criteria
//	spfbench -benchjson FILE   # run every micro-benchmark row three times at
//	                           # the GOMAXPROCS its row fixes, write the
//	                           # median run of each to FILE, and enforce
//	                           # each group's shape criterion
//	spfbench -benchcompare FILE
//	                           # compare a -benchjson FILE against the
//	                           # committed BENCH.json: exit nonzero on a
//	                           # row slower than 1.5x its baseline, on more
//	                           # allocs/op than baseline where the row's
//	                           # count is deterministic, on a GOMAXPROCS
//	                           # mismatch, or on a row missing either side
//
// To re-record the baseline after an intended change, run -benchjson
// BENCH.json on a quiet machine and commit the file.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/experiments"
)

const (
	// baselinePath is the one committed baseline, relative to the repo
	// root the gate runs in.
	baselinePath = "BENCH.json"
	// samples per row; the median run is the one recorded and compared,
	// which is what lets slowdownBound be tight.
	samples = 3
	// slowdownBound is the ns/op factor over baseline that fails the
	// gate: tight enough to catch a 30% slip twice over, loose enough for
	// the run-to-run spread of a median of three on a shared runner.
	slowdownBound = 1.5
)

// measureRow runs one row `samples` times under a pprof label — so any
// profile of a spfbench run (-blockprofile, or an external CPU profile)
// attributes its samples to the benchmark that caused them; with the
// //go:noinline latch wrappers in internal/btree (latchBranch vs
// latchLeaf) a block profile decomposes latch contention per descent level
// — and returns the median run by ns/op.
func measureRow(g bench.Group, row bench.Row) (bench.Entry, error) {
	name := g.Name + "/" + row.Name
	runs := make([]bench.Entry, samples)
	for i := range runs {
		var res bench.Result
		var br testing.BenchmarkResult
		pprof.Do(context.Background(), pprof.Labels("bench", name), func(context.Context) {
			br = testing.Benchmark(func(b *testing.B) { res = row.Measure(b) })
		})
		if br.N == 0 {
			// testing.Benchmark discards the failure message.
			return bench.Entry{}, fmt.Errorf(
				"%s failed inside its benchmark function; `go test -run '^$' -bench 'Micro/%s' .` prints why", name, name)
		}
		runs[i] = bench.Entry{
			Name: name, NsPerOp: res.NsPerOp, AllocsPerOp: br.AllocsPerOp(),
			Ops: br.N, GoMaxProcs: row.Procs,
		}
		if g.Metric != "" {
			runs[i].Metric, runs[i].MetricName = res.Metric, g.Metric
		}
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].NsPerOp < runs[j].NsPerOp })
	return runs[samples/2], nil
}

// runBenchJSON measures every row of bench.Table, writes the entries to
// path, and reports every row that failed and every group whose shape
// criterion does not hold. The file is written either way, so a failing CI
// run still uploads what it measured.
func runBenchJSON(path string) error {
	var entries []bench.Entry
	var failures []string
	for _, g := range bench.Table {
		measured := map[string]bench.Result{}
		for _, row := range g.Rows {
			e, err := measureRow(g, row)
			if err != nil {
				failures = append(failures, err.Error())
				continue
			}
			fmt.Printf("%-50s %12.1f ns/op %6d allocs/op  GOMAXPROCS=%d\n", e.Name, e.NsPerOp, e.AllocsPerOp, e.GoMaxProcs)
			entries = append(entries, e)
			measured[row.Name] = bench.Result{N: e.Ops, NsPerOp: e.NsPerOp, Metric: e.Metric}
		}
		if g.Check != nil {
			if err := g.Check(measured); err != nil {
				failures = append(failures, fmt.Sprintf("%s: %v (criterion: %s)", g.Name, err, g.Claim))
			}
		}
	}
	data, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return reportFailures("benchmark run", failures)
}

// runBenchCompare is the CI regression gate over a fresh -benchjson file.
func runBenchCompare(freshPath string) error {
	fresh, err := bench.LoadEntries(freshPath)
	if err != nil {
		return err
	}
	baseline, err := bench.LoadEntries(baselinePath)
	if err != nil {
		return err
	}
	exact := map[string]bool{}
	for _, g := range bench.Table {
		for _, r := range g.Rows {
			exact[g.Name+"/"+r.Name] = r.ExactAllocs
		}
	}
	freshByName := make(map[string]bench.Entry, len(fresh))
	for _, e := range fresh {
		freshByName[e.Name] = e
	}
	var failures []string
	compared := map[string]bool{}
	for _, base := range baseline {
		compared[base.Name] = true
		got, ok := freshByName[base.Name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: in %s but missing from the fresh run", base.Name, baselinePath))
			continue
		}
		if got.GoMaxProcs != base.GoMaxProcs {
			failures = append(failures, fmt.Sprintf("%s: measured at GOMAXPROCS %d, baseline recorded at %d: not comparable",
				base.Name, got.GoMaxProcs, base.GoMaxProcs))
			continue
		}
		ratio := got.NsPerOp / base.NsPerOp
		status := "ok"
		if ratio > slowdownBound {
			status = "REGRESSION"
			failures = append(failures, fmt.Sprintf("%s: %.1f ns/op vs baseline %.1f (%.2fx > %.1fx)",
				base.Name, got.NsPerOp, base.NsPerOp, ratio, slowdownBound))
		}
		if exact[base.Name] && got.AllocsPerOp > base.AllocsPerOp {
			status = "ALLOCS"
			failures = append(failures, fmt.Sprintf("%s: %d allocs/op vs baseline %d (deterministic row: exact gate)",
				base.Name, got.AllocsPerOp, base.AllocsPerOp))
		}
		fmt.Printf("%-50s base=%12.1f fresh=%12.1f ratio=%5.2fx allocs %d->%d  %s\n",
			base.Name, base.NsPerOp, got.NsPerOp, ratio, base.AllocsPerOp, got.AllocsPerOp, status)
	}
	for _, e := range fresh {
		if !compared[e.Name] {
			failures = append(failures, fmt.Sprintf("%s: measured but has no baseline in %s", e.Name, baselinePath))
		}
	}
	if err := reportFailures("bench regression gate", failures); err != nil {
		return err
	}
	fmt.Printf("\nbench regression gate passed (median of %d, bound %.1fx)\n", samples, slowdownBound)
	return nil
}

func reportFailures(what string, failures []string) error {
	if len(failures) == 0 {
		return nil
	}
	fmt.Fprintf(os.Stderr, "\n%s failed:\n", what)
	for _, f := range failures {
		fmt.Fprintf(os.Stderr, "  - %s\n", f)
	}
	return fmt.Errorf("%d failure(s)", len(failures))
}

func printTables() {
	for _, e := range experiments.Table {
		fmt.Printf("%-5s %s\n", e.ID, e.Title)
	}
	for _, g := range bench.Table {
		fmt.Printf("\n%s — %s\n", g.Name, g.Claim)
		for _, r := range g.Rows {
			allocs := ""
			if r.ExactAllocs {
				allocs = "  allocs/op exact"
			}
			fmt.Printf("  %-28s GOMAXPROCS=%d%s\n", r.Name, r.Procs, allocs)
		}
	}
}

func main() {
	list := flag.Bool("list", false, "print the experiment and micro-benchmark tables and exit")
	benchJSON := flag.String("benchjson", "", "run the micro-benchmarks and write their entries to this JSON file")
	benchCompare := flag.String("benchcompare", "", "compare this -benchjson file against the committed "+baselinePath+" (CI regression gate)")
	blockProfile := flag.String("blockprofile", "", "write a goroutine blocking profile of the whole run to this file; with the noinline latch wrappers (btree latchBranch/latchLeaf) and the per-benchmark pprof labels, latch contention is attributable per descent level")
	flag.Parse()
	if *blockProfile != "" {
		runtime.SetBlockProfileRate(1)
		defer func() {
			f, err := os.Create(*blockProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "blockprofile: %v\n", err)
				return
			}
			defer f.Close()
			if err := pprof.Lookup("block").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "blockprofile: %v\n", err)
				return
			}
			fmt.Printf("wrote blocking profile to %s\n", *blockProfile)
		}()
	}
	switch {
	case *list:
		printTables()
		return
	case *benchJSON != "":
		if err := runBenchJSON(*benchJSON); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		return
	case *benchCompare != "":
		if err := runBenchCompare(*benchCompare); err != nil {
			fmt.Fprintf(os.Stderr, "benchcompare: %v\n", err)
			os.Exit(1)
		}
		return
	}
	want := map[string]bool{}
	for _, a := range flag.Args() {
		want[strings.ToUpper(a)] = true
	}
	all, failed := len(want) == 0, 0
	for _, e := range experiments.Table {
		if !all && !want[e.ID] {
			continue
		}
		delete(want, e.ID)
		fmt.Printf("== %s: %s ==\n", e.ID, e.Title)
		pprof.Do(context.Background(), pprof.Labels("experiment", e.ID), func(context.Context) {
			t, err := e.Run()
			if t != nil {
				fmt.Print(t.String())
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
				failed++
			}
		})
	}
	for id := range want {
		fmt.Fprintf(os.Stderr, "%s: no such experiment (spfbench -list)\n", id)
		failed++
	}
	if failed > 0 {
		os.Exit(1)
	}
}
