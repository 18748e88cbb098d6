package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"sort"
	"testing"
	"time"
)

// TestPercentileMatchesSort pins percentile against its definition
// evaluated by brute force: the smallest sample with at least p·n
// samples at or below it.
func TestPercentileMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 120; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(40)) // ties on purpose
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for _, p := range []float64{0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1} {
			want := math.Inf(1)
			for _, x := range xs {
				below := 0
				for _, y := range xs {
					if y <= x {
						below++
					}
				}
				if float64(below) >= p*float64(n) && x < want {
					want = x
				}
			}
			if got := percentile(sorted, p); got != want {
				t.Fatalf("n=%d p=%v: percentile %v, want %v", n, p, got, want)
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := len(names), len(workloads); got != want {
		t.Fatalf("BENCHMARK.json lists %d workloads, program has %d", got, want)
	}
	for _, n := range names {
		if _, ok := findWorkload(n); !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the program", n)
		}
	}
	same := func(what string, spec []struct{ Name, Unit string }, prog []metricName) {
		if len(spec) != len(prog) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", what, len(spec), len(prog))
			return
		}
		for i, m := range spec {
			if m.Name != prog[i].name || m.Unit != prog[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", what, i, m.Name, m.Unit, prog[i].name, prog[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndMetrics)
	same("per_layer", spec.PerLayer, perLayerMetrics)
}

// TestWorkloadsSelfTest runs every workload at tiny sizes, untraced and
// traced: every answer checks, every named metric is printed with its
// unit, and the end-to-end ones are positive.
func TestWorkloadsSelfTest(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				cfg := config{workload: w.name, seed: 7, seconds: 1.2, traced: traced,
					outDir: t.TempDir(), sc: tinyScale, setups: 2}
				var stdout, log bytes.Buffer
				res, err := run(cfg, &stdout, &log)
				if err != nil {
					t.Fatalf("traced=%v: %v\n%s", traced, err, log.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("traced=%v: correct=%v attempted=%d failed=%d\n%s",
						traced, res.Correct, res.Attempted, res.Failed, stdout.String())
				}
				want := endToEndMetrics
				if traced {
					want = perLayerMetrics
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics, want %d", traced, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.name]
					switch {
					case !ok:
						t.Errorf("traced=%v: metric %s missing", traced, m.name)
					case got.Unit != m.unit:
						t.Errorf("%s: unit %q, want %q", m.name, got.Unit, m.unit)
					case !traced && !(got.Value > 0):
						t.Errorf("%s = %v, want > 0", m.name, got.Value)
					}
				}
			}
		})
	}
}

// TestSelfTimesWithinRoot checks the traced run's span trees: every
// replayed op carries the program's span tree, and the self times of
// each tree sum to no more than its root span.
func TestSelfTimesWithinRoot(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			e, err := w.setup(7, tinyScale)
			if err != nil {
				t.Fatal(err)
			}
			defer e.close()
			tr := &tracer{poly: e.poly}
			closedLoop(e, 300*time.Millisecond, tr.replay)
			if tr.failed != 0 {
				t.Fatalf("%d replays failed: %v", tr.failed, tr.errs)
			}
			replayed := 0
			for _, root := range tr.trees {
				if q := root.child("QueryCtx"); q != nil && q.child("query") != nil {
					replayed++
				}
				var sum time.Duration
				walkSelf(root, func(_ string, _ *span, self time.Duration) { sum += self })
				if sum > root.dur {
					t.Fatalf("self times sum to %v, root span is %v", sum, root.dur)
				}
			}
			if replayed == 0 {
				t.Fatalf("no op of %d carried the program's span tree", len(tr.trees))
			}
		})
	}
}

// TestWalkSelfSharesConcurrentChildren pins the self-time rule on a
// tree whose children overlap: they share the parent's time.
func TestWalkSelfSharesConcurrentChildren(t *testing.T) {
	root := newSpan("wire", 10)
	root.add(newSpan("encode", 8))
	dec := root.add(newSpan("decode", 12))
	dec.add(newSpan("load", 2))
	got := map[string]time.Duration{}
	walkSelf(root, func(path string, _ *span, self time.Duration) { got[path] = self })
	want := map[string]time.Duration{"wire": 0, "wire/encode": 4, "wire/decode": 5, "wire/decode/load": 1}
	for p, w := range want {
		if got[p] != w {
			t.Errorf("%s: self %v, want %v", p, got[p], w)
		}
	}
}

// TestQuietKeepsUndisturbed pins the window rule: every measurement at
// or under quietShare is kept, and never fewer than the least-disturbed
// quarter.
func TestQuietKeepsUndisturbed(t *testing.T) {
	for _, c := range []struct {
		share []float64
		want  []bool
	}{
		{[]float64{0, 0.5, 0.01, 0.9}, []bool{true, false, true, false}},
		{[]float64{0.3, 0.2, 0.4, 0.6, 0.5, 0.9, 0.7, 0.8}, []bool{true, true, false, false, false, false, false, false}},
		{[]float64{0.2}, []bool{true}},
		{nil, []bool{}},
	} {
		got := quiet(c.share)
		if len(got) != len(c.want) {
			t.Fatalf("quiet(%v) = %v, want %v", c.share, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("quiet(%v) = %v, want %v", c.share, got, c.want)
			}
		}
	}
}
