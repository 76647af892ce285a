package repro

// Two loops over the two tables that declare everything measured in this
// repository from inside the process: internal/experiments.Table (E1–E16,
// one row per figure or table of the paper) and internal/bench.Table (the
// engine micro-benchmarks kept from E17–E34). Each row checks the shape of
// its own result — who wins, by what rough factor, where the crossovers
// fall — and each micro-benchmark group checks the criterion that relates
// its rows, once the rows ran long enough to judge. Run with:
//
//	go test -run '^$' -bench . .                       # everything
//	go test -run '^$' -bench 'Micro/E28' -benchmem .   # one group
//
// cmd/spfbench runs the same rows as a CLI and, with -bench, as the CI
// regression gate, which also holds each row to its declared allocs/op.

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

// TestTablesDeclareEachRowOnce keeps both tables one set of names: no
// micro-benchmark row is declared twice, and experiments.Table lists
// E1–E16 once each.
func TestTablesDeclareEachRowOnce(t *testing.T) {
	rows := map[string]bool{}
	for _, g := range bench.Table {
		for _, r := range g.Rows {
			name := g.Name + "/" + r.Name
			if rows[name] {
				t.Errorf("%s declared twice in bench.Table", name)
			}
			rows[name] = true
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
