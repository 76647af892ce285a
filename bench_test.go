package repro

// Two loops over the two tables that declare everything measured in this
// repository from inside the process: internal/experiments.Table (E1–E16,
// one row per figure or table of the paper) and internal/bench.Table (the
// engine micro-benchmarks kept from E17–E35). Each row checks the shape of
// its own result — who wins, by what rough factor, where the crossovers
// fall — and each micro-benchmark group checks the criterion that relates
// its rows, once the rows ran long enough to judge. Run with:
//
//	go test -run '^$' -bench . .                       # everything
//	go test -run '^$' -bench 'Micro/E28' -benchmem .   # one group
//
// cmd/spfbench runs the same rows as a CLI and as the CI regression gate.

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/experiments"
)

func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.Table {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t, err := e.Run()
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.Log("\n" + t.String())
				}
			}
		})
	}
}

func BenchmarkMicro(b *testing.B) {
	for _, g := range bench.Table {
		b.Run(g.Name, func(b *testing.B) {
			measured := map[string]bench.Result{}
			for _, row := range g.Rows {
				b.Run(row.Name, func(b *testing.B) {
					// The framework calls this with growing b.N; the last
					// call's result is the one that stays in the map.
					res := row.Measure(b)
					if g.Metric != "" {
						b.ReportMetric(res.Metric, g.Metric)
					}
					measured[row.Name] = res
				})
			}
			if g.Check != nil {
				if err := g.Check(measured); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestTablesAgreeWithBaseline keeps the tables and the committed baseline
// one set: a benchmark added without a baseline, a baseline left behind by
// a deleted or renamed benchmark, or a row recorded at another GOMAXPROCS
// than the one its row fixes fails here, not only in the CI gate.
func TestTablesAgreeWithBaseline(t *testing.T) {
	rows := map[string]int{}
	for _, g := range bench.Table {
		for _, r := range g.Rows {
			name := g.Name + "/" + r.Name
			if _, dup := rows[name]; dup {
				t.Errorf("%s declared twice in bench.Table", name)
			}
			rows[name] = r.Procs
		}
	}
	entries, err := bench.LoadEntries("BENCH.json")
	if err != nil {
		t.Fatal(err)
	}
	recorded := map[string]bool{}
	for _, e := range entries {
		procs, ok := rows[e.Name]
		switch {
		case recorded[e.Name]:
			t.Errorf("%s recorded twice in BENCH.json", e.Name)
		case !ok:
			t.Errorf("%s is in BENCH.json but not in bench.Table", e.Name)
		case e.GoMaxProcs != procs:
			t.Errorf("%s recorded at GOMAXPROCS %d, its row fixes %d", e.Name, e.GoMaxProcs, procs)
		}
		recorded[e.Name] = true
	}
	for name := range rows {
		if !recorded[name] {
			t.Errorf("%s is in bench.Table but has no baseline in BENCH.json (re-record with spfbench -benchjson)", name)
		}
	}

	seen := map[string]bool{}
	for _, e := range experiments.Table {
		if seen[e.ID] {
			t.Errorf("%s declared twice in experiments.Table", e.ID)
		}
		seen[e.ID] = true
	}
	for i := 1; i <= 16; i++ {
		if id := fmt.Sprintf("E%d", i); !seen[id] {
			t.Errorf("%s missing from experiments.Table", id)
		}
	}
	if len(seen) != 16 {
		t.Errorf("experiments.Table has %d distinct ids, want E1..E16", len(seen))
	}
}
