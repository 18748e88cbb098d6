// Command polybench is the polystore's benchmark: it sets up one named
// workload in-process — a federation served by internal/server over
// TCP — drives it with closed-loop internal/server/client connections,
// checks every answer against a reference computed in-process at
// set-up, and prints the metrics by name with their units. The last
// line of standard output is the result object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate traced run gives the per-layer ones (see README.md).
//
//	go run . --workload mimic-analytics --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	outDir   string
	sc       scale
	// setups is how many times the workload is set up; setup_s is the
	// median of the quiet ones, and the last set-up is the one measured.
	setups int
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+workloadNames())
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs derive from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "seconds of measured load")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced run and prints per-layer metrics")
	flag.StringVar(&cfg.outDir, "out-dir", ".bench_build", "directory the traced run writes its span table to")
	flag.Parse()
	cfg.traced = traceFlag == 1
	cfg.sc = fullScale
	cfg.setups = 7
	if cfg.traced {
		cfg.setups = 1
	}
	res, err := run(cfg, os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "polybench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "polybench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// run sets up the workload, measures it and returns the result; meta
// (run metadata, one JSON line) goes to stdout ahead of the result and
// progress notes to log.
func run(cfg config, stdout, log io.Writer) (*result, error) {
	w, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, workloadNames())
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	e, setups, err := setUp(w, cfg)
	if err != nil {
		return nil, err
	}
	defer e.close()

	meta := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"traced":     cfg.traced,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"clients":    clients,
		"sizes":      e.sizes,
		"setup_runs": setups,
	}
	d := time.Duration(cfg.seconds * float64(time.Second))
	var res *result
	if cfg.traced {
		res, err = measureTraced(e, cfg, d, meta, log)
	} else {
		res, err = measureUntraced(e, d, setups, meta)
	}
	if err != nil {
		return nil, err
	}
	if e.final != nil {
		if err := e.final(); err != nil {
			res.Correct = false
			meta["final_check"] = err.Error()
		}
	}
	meta["error_rate"] = ratio(float64(res.Failed), float64(res.Attempted))
	line, err := json.Marshal(map[string]any{"meta": meta})
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(stdout, string(line))
	return res, nil
}

// setupRun is one set-up: its duration, from the start of loading to
// the moment the first timed operation may start, and the share of the
// machine's CPU capacity that went to anything else meanwhile (see
// interferenceShare).
type setupRun struct {
	Seconds      float64 `json:"s"`
	Interference float64 `json:"interference"`
}

// setupSeconds is the median duration of the quiet set-ups.
func setupSeconds(runs []setupRun) float64 {
	share := make([]float64, len(runs))
	for i, r := range runs {
		share[i] = r.Interference
	}
	var kept []float64
	for i, k := range quiet(share) {
		if k {
			kept = append(kept, runs[i].Seconds)
		}
	}
	return median(kept)
}

// setUp builds the workload cfg.setups times — loading, serving,
// computing the reference answers and warming up — and keeps the last.
func setUp(w workload, cfg config) (*env, []setupRun, error) {
	var e *env
	var runs []setupRun
	for i := 0; i < cfg.setups; i++ {
		if e != nil {
			e.close()
			e = nil
			runtime.GC()
		}
		start, cpu0, sys0 := time.Now(), cpuTime(), readSysCPU()
		var err error
		e, err = w.setup(cfg.seed, cfg.sc)
		if err == nil {
			err = warmUp(e)
		}
		if err != nil {
			if e != nil {
				e.close()
			}
			return nil, nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		wall := time.Since(start)
		runs = append(runs, setupRun{wall.Seconds(), interferenceShare(wall, cpuTime()-cpu0, sys0, readSysCPU())})
	}
	return e, runs, nil
}

// opCounts reports per op kind and per shape how many operations ran.
func opCounts(r loopResult) map[string]int {
	out := map[string]int{}
	for _, s := range r.samples {
		out[s.o.kind.String()+"/"+s.o.shape]++
	}
	return out
}

func measureUntraced(e *env, d time.Duration, setups []setupRun, meta map[string]any) (*result, error) {
	r := closedLoop(e, d, nil)
	attempted, failed := r.count()
	reads, writes := r.latencies(readOp), r.latencies(writeOp)
	if len(reads) == 0 || len(writes) == 0 {
		return nil, fmt.Errorf("run completed %d reads and %d writes; both kinds are needed", len(reads), len(writes))
	}
	meta["ops"] = opCounts(r)
	meta["percentile_samples"] = map[string]int{"read": len(reads), "write": len(writes)}
	meta["failures"] = r.firstErrors(5)
	meta["windows"] = r.windowMeta()
	qps, cpuMs := r.windowed()
	if len(qps) == 0 || len(cpuMs) == 0 {
		return nil, fmt.Errorf("run too short: --seconds must cover at least one %v window", window)
	}
	// The samples are the benchmark's, not the program's: drop them
	// before the heap is measured.
	r = loopResult{}
	heap := liveHeapMB()
	v := map[string]float64{
		"ok_qps":        median(qps),
		"read_p50_ms":   percentile(reads, 0.50),
		"read_p95_ms":   percentile(reads, 0.95),
		"write_p50_ms":  percentile(writes, 0.50),
		"write_p95_ms":  percentile(writes, 0.95),
		"cpu_ms_per_op": median(cpuMs),
		"live_heap_mb":  heap,
		"setup_s":       setupSeconds(setups),
	}
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: withUnits(v, endToEndMetrics)}, nil
}

// endToEndMetrics names every end-to-end metric with its unit.
var endToEndMetrics = []metricName{
	{"ok_qps", "1/s"},
	{"read_p50_ms", "ms"},
	{"read_p95_ms", "ms"},
	{"write_p50_ms", "ms"},
	{"write_p95_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"live_heap_mb", "MiB"},
	{"setup_s", "s"},
}

type metricName struct{ name, unit string }

func withUnits(v map[string]float64, names []metricName) map[string]metric {
	out := map[string]metric{}
	for _, n := range names {
		out[n.name] = metric{v[n.name], n.unit}
	}
	return out
}

// measureTraced is the per-layer run: half the time untraced (runtime
// counters, and the untraced read p50 the tracing overhead is taken
// against), half traced (every op replayed in-process under the
// program's tracer), then the serial layer probes.
func measureTraced(e *env, cfg config, d time.Duration, meta map[string]any, log io.Writer) (*result, error) {
	rt0 := readRuntime()
	plain := closedLoop(e, d/2, nil)
	rt1 := readRuntime()

	tr := &tracer{poly: e.poly}
	traced := closedLoop(e, d/2, tr.replay)

	m := map[string]float64{}
	layerMetrics(tr.trees, m)
	ctx := context.Background()
	if err := probeRTT(ctx, e, cfg.sc.probeReps, m); err != nil {
		return nil, fmt.Errorf("layer probe: %w", err)
	}
	if e.probe != nil {
		if err := e.probe(ctx, m); err != nil {
			return nil, fmt.Errorf("layer probe: %w", err)
		}
	}
	n := float64(len(plain.samples))
	m["go.allocs_per_op"] = ratio(float64(rt1.allocObjects-rt0.allocObjects), n)
	m["go.alloc_bytes_per_op"] = ratio(float64(rt1.allocBytes-rt0.allocBytes), n)
	m["go.gc_cpu_fraction"] = ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU)
	// The traced phase's client requests, timed exactly as untraced.
	tracedReads := traced.latencies(readOp)
	m["trace.read_p50_overhead_ms"] = percentile(tracedReads, 0.5) - percentile(plain.latencies(readOp), 0.5)

	a1, f1 := plain.count()
	a2, f2 := traced.count()
	attempted, failed := a1+a2, f1+f2+tr.failed
	meta["ops"] = map[string]any{"untraced": opCounts(plain), "traced": opCounts(traced)}
	meta["failures"] = append(append(plain.firstErrors(5), traced.firstErrors(5)...), tr.errs...)

	table := selfTable(tr.trees)
	if err := writeSpanTable(cfg, table); err != nil {
		fmt.Fprintln(log, "polybench: span table not written:", err)
	}
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: withUnits(m, perLayerMetrics)}, nil
}

// writeSpanTable writes the traced run's self-time table by span path.
func writeSpanTable(cfg config, table map[string]*pathStat) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	type row struct {
		Path string `json:"path"`
		*pathStat
	}
	rows := make([]row, 0, len(table))
	for p, st := range table {
		rows = append(rows, row{p, st})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].SelfMs != rows[j].SelfMs {
			return rows[i].SelfMs > rows[j].SelfMs
		}
		return rows[i].Path < rows[j].Path
	})
	b, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("polybench-spans-%s-seed%d.json", cfg.workload, cfg.seed)
	return os.WriteFile(filepath.Join(cfg.outDir, name), append(b, '\n'), 0o644)
}
