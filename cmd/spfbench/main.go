// Command spfbench runs what internal/experiments.Table and
// internal/bench.Table declare: the paper's figures as text tables, and
// the engine micro-benchmarks as the CI regression gate.
//
// Usage:
//
//	spfbench             # run experiments E1–E16, print their tables
//	spfbench E1 E10      # run selected experiments
//	spfbench -list       # print both tables: ids, titles, rows, criteria
//	spfbench -bench      # run every micro-benchmark row three times at the
//	                     # GOMAXPROCS its row fixes, print the median run of
//	                     # each, and exit nonzero on a row whose allocs/op
//	                     # is not the count its row declares or a group
//	                     # whose shape criterion does not hold
//
// The gate compares rows of one run with each other, never with a number
// recorded elsewhere, so it means the same on any host.
package main

import (
	"context"
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

// samples per row; the median run by ns/op is the one the group's
// criterion judges.
const samples = 3

// measureRow runs one row `samples` times under a pprof label — so any
// profile of a spfbench run (-blockprofile, or an external CPU profile)
// attributes its samples to the benchmark that caused them; with the
// //go:noinline latch wrappers in internal/btree (latchBranch vs
// latchLeaf) a block profile decomposes latch contention per descent level
// — holds every run to the row's declared allocs/op, and returns the
// median run by ns/op with its allocs/op.
func measureRow(name string, row bench.Row) (bench.Result, int64, error) {
	type run struct {
		res    bench.Result
		allocs int64
	}
	runs := make([]run, samples)
	for i := range runs {
		var res bench.Result
		var br testing.BenchmarkResult
		pprof.Do(context.Background(), pprof.Labels("bench", name), func(context.Context) {
			br = testing.Benchmark(func(b *testing.B) { res = row.Measure(b) })
		})
		if br.N == 0 {
			// testing.Benchmark discards the failure message.
			return bench.Result{}, 0, fmt.Errorf(
				"%s failed inside its benchmark function; `go test -run '^$' -bench 'Micro/%s' .` prints why", name, name)
		}
		if err := row.CheckAllocs(br.N, br.AllocsPerOp()); err != nil {
			return bench.Result{}, 0, fmt.Errorf("%s: run %d of %d: %v", name, i+1, samples, err)
		}
		runs[i] = run{res, br.AllocsPerOp()}
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].res.NsPerOp < runs[j].res.NsPerOp })
	return runs[samples/2].res, runs[samples/2].allocs, nil
}

// runBench measures every row of bench.Table and reports every row that
// failed or broke its declared allocs/op, and every group whose shape
// criterion does not hold.
func runBench() error {
	var failures []string
	for _, g := range bench.Table {
		measured := map[string]bench.Result{}
		for _, row := range g.Rows {
			name := g.Name + "/" + row.Name
			res, allocs, err := measureRow(name, row)
			if err != nil {
				failures = append(failures, err.Error())
				continue
			}
			metric := ""
			if g.Metric != "" {
				metric = fmt.Sprintf("  %.4g %s", res.Metric, g.Metric)
			}
			fmt.Printf("%-50s %12.1f ns/op %6d allocs/op  GOMAXPROCS=%d%s\n", name, res.NsPerOp, allocs, row.Procs, metric)
			measured[row.Name] = res
		}
		if g.Check != nil {
			if err := g.Check(measured); err != nil {
				failures = append(failures, fmt.Sprintf("%s: %v (criterion: %s)", g.Name, err, g.Claim))
			}
		}
	}
	if err := reportFailures("micro-benchmark gate", failures); err != nil {
		return err
	}
	fmt.Printf("\nmicro-benchmark gate passed (median of %d)\n", samples)
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
			if r.Allocs != nil {
				allocs = fmt.Sprintf("  %d allocs/op", *r.Allocs)
			}
			fmt.Printf("  %-28s GOMAXPROCS=%d%s\n", r.Name, r.Procs, allocs)
		}
	}
}

func main() {
	list := flag.Bool("list", false, "print the experiment and micro-benchmark tables and exit")
	runGate := flag.Bool("bench", false, "run the micro-benchmarks and enforce their declared allocs/op and shape criteria (CI regression gate)")
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
	case *runGate:
		if err := runBench(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
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
