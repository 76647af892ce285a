package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

const smokeScale = 1.0 / 50

// tracedRuns keeps each workload's first traced smoke run, so that the
// determinism test compares a second run against it instead of running two.
var tracedRuns = map[string]*result{}

func smokeRun(t *testing.T, workload string, traced bool) *result {
	t.Helper()
	res, err := runWorkload(runConfig{workload: workload, seed: 7, seconds: 10 * smokeScale, traced: traced, scale: smokeScale})
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 {
		t.Fatalf("%s traced=%v: %d failed operations: %v", workload, traced, res.failed, res.failures)
	}
	if res.attempted == 0 {
		t.Fatalf("%s traced=%v: nothing attempted", workload, traced)
	}
	if _, seen := tracedRuns[workload]; traced && !seen {
		tracedRuns[workload] = res
	}
	return res
}

// ownMetrics are the user-visible metrics that exist on one workload only.
var ownMetrics = map[string][]string{
	"wire-mixed-cold": {"write_p50_us", "write_p99_us", "scan_p50_us", "log_bytes_per_user_byte"},
	"repair-online":   {"repair_read_p50_us", "repair_read_p99_us"},
	"recovery-cycle":  {"restart_first_read_ms", "restart_drain_ms", "restore_first_read_ms", "restore_drain_ms"},
}

// TestSmoke runs every workload at 1/50 scale, untraced and traced, and
// checks what must hold at any scale: no operation fails, every metric
// BENCHMARK.json lists is emitted and nothing else, the end-to-end
// metrics are non-zero, and each budget's parts sum to its mean.
func TestSmoke(t *testing.T) {
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) > 16 || len(spec.PerLayer) > 128 {
		t.Fatalf("%d end-to-end (max 16), %d per-layer (max 128) metrics", len(spec.EndToEnd), len(spec.PerLayer))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	sameDefs := func(kind string, listed []struct{ Name, Unit, Better string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark defines %d", kind, len(listed), len(defs))
		}
		for i, d := range defs {
			if l := listed[i]; l.Name != d.Name || l.Unit != d.Unit || l.Better != d.Better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the benchmark %s/%s/%s", kind, i, l, d.Name, d.Unit, d.Better)
			}
			if !nameRE.MatchString(d.Name) {
				t.Errorf("metric name %q is not made of letters, digits, _ . -", d.Name)
			}
		}
	}
	sameDefs("end_to_end", spec.EndToEnd, endToEnd)
	sameDefs("per_layer", spec.PerLayer, perLayer)
	for _, d := range perLayer {
		// A layer's metrics carry the layer's (module's) name as prefix.
		if prefix, _, dotted := strings.Cut(d.Name, "."); d.Moves == "" || (dotted && prefix != d.Layer) || (!dotted && d.Layer != "end-to-end") {
			t.Errorf("per-layer metric %s: layer %q, moves %q", d.Name, d.Layer, d.Moves)
		}
	}
	listed := map[string]bool{}
	for _, d := range slices.Concat(endToEnd, perLayer) {
		listed[d.Name] = true
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloadNames))
	}

	for i, w := range workloadNames {
		if spec.Workloads[i].Name != w {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q", i, spec.Workloads[i].Name, w)
		}
		for _, traced := range []bool{false, true} {
			res := smokeRun(t, w, traced)
			for _, d := range res.names() {
				if _, ok := res.vals[d.Name]; !traced && !ok {
					t.Errorf("%s: end-to-end metric %s not emitted", w, d.Name)
				}
				if v := res.vals[d.Name].v; !traced && !(v > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w, d.Name, v)
				}
			}
			// Untraced and traced runs both measure the workload's own
			// user-visible metrics, over the same window.
			for _, name := range ownMetrics[w] {
				if v := res.vals[name].v; !(v > 0) {
					t.Errorf("%s traced=%v: %s = %v, must be positive", w, traced, name, v)
				}
			}
			for name := range res.vals {
				if !listed[name] {
					t.Errorf("%s traced=%v: emitted %s, which BENCHMARK.json does not list", w, traced, name)
				}
			}
			var got struct {
				Correct   bool
				Attempted int64
				Failed    int64
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(res.jsonLine()), &got); err != nil {
				t.Fatal(err)
			}
			if !got.Correct || got.Attempted < 1 || got.Failed != 0 || len(got.Metrics) != len(res.names()) {
				t.Errorf("%s traced=%v: result line %+v", w, traced, got)
			}
			if traced && len(res.budget) == 0 && w != "recovery-cycle" {
				t.Errorf("%s: traced run produced no budget", w)
			}
			for _, b := range res.budget {
				sum := 0.0
				for _, p := range b.parts {
					sum += p.us
				}
				if math.Abs(sum-b.totalUs) > 1e-6*math.Abs(b.totalUs) {
					t.Errorf("%s: budget of %s: parts sum to %v, mean is %v", w, b.op, sum, b.totalUs)
				}
			}
		}
	}
}

// TestSameSeedSameInputs checks that a seed fixes the generated operation
// stream on every workload, and, on the single-client workloads, the
// counts that depend only on it.
func TestSameSeedSameInputs(t *testing.T) {
	exact := map[string][]string{
		"repair-online":  {"core.records_per_repair", "core.log_reads_per_repair", "buffer.validation_failures", "storage.retired_slots"},
		"recovery-cycle": {"backup.pages_written", "backup.pages_skipped", "txn.updates_per_commit"},
	}
	for _, w := range workloadNames {
		a := tracedRuns[w]
		if a == nil {
			a = smokeRun(t, w, true)
		}
		b := smokeRun(t, w, true)
		if a.stream == 0 || a.stream != b.stream {
			t.Errorf("%s: op stream hashes %x and %x", w, a.stream, b.stream)
		}
		for _, name := range exact[w] {
			if a.vals[name].v != b.vals[name].v || a.vals[name].v == 0 {
				t.Errorf("%s: %s = %v then %v, want equal and non-zero", w, name, a.vals[name].v, b.vals[name].v)
			}
		}
	}
}

func TestHistQuantiles(t *testing.T) {
	var h hist
	for i := 1; i <= 100000; i++ {
		h.add(time.Duration(i) * 37)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		want := q * 100000 * 37
		if got := h.quantile(q); math.Abs(got-want) > 0.01*want {
			t.Errorf("q%v = %v, want %v within 1%%", q, got, want)
		}
	}
	if got, want := h.meanNs(), 37*100001/2.0; math.Abs(got-want) > 1e-9*want {
		t.Errorf("mean = %v, want %v", got, want)
	}
}

func TestRecorderSelfTime(t *testing.T) {
	r := newRecorder()
	// parent [0,100] with children [10,40] and [30,60] (overlapping) and
	// [80,120] (running past the parent): covered 10..60 and 80..100.
	r.spans = []span{
		{req: 1, id: 1, name: 0, start: 0, end: 100},
		{req: 1, id: 2, parent: 1, name: 1, start: 10, end: 40},
		{req: 1, id: 3, parent: 1, name: 1, start: 30, end: 60},
		{req: 1, id: 4, parent: 1, name: 1, start: 80, end: 120},
	}
	r.names = []string{"parent", "child"}
	st := r.stats()
	if p := st["parent"]; p.n != 1 || p.totalNs != 100 || p.selfN != 30 {
		t.Errorf("parent: %+v, want total 100 self 30", p)
	}
	if c := st["child"]; c.n != 3 || c.totalNs != 100 || c.selfN != 100 {
		t.Errorf("child: %+v, want total 100 self 100", c)
	}
}
