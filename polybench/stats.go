package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of sorted:
// the smallest sample with at least p·n samples at or below it. It is
// exact — computed from the raw samples, never from histogram buckets.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// sortedMs converts durations to sorted milliseconds.
func sortedMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	sort.Float64s(out)
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when the layer did no work (b == 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sysCPU is the machine's CPU time so far, summed over its CPUs: busy
// is time spent running anything, this process included; steal is time
// the hypervisor ran other machines while a CPU of this one wanted to
// run. ok is false where /proc/stat cannot be read.
type sysCPU struct {
	busy, steal time.Duration
	ok          bool
}

// clockTick is the unit of /proc/stat, USER_HZ, which Linux fixes at
// 100 per second on every architecture Go supports.
const clockTick = 10 * time.Millisecond

func readSysCPU() sysCPU {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return sysCPU{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return sysCPU{}
	}
	var v [8]int64
	for i := range v {
		if v[i], err = strconv.ParseInt(f[i+1], 10, 64); err != nil {
			return sysCPU{}
		}
	}
	busy := v[0] + v[1] + v[2] + v[5] + v[6]
	return sysCPU{busy: time.Duration(busy) * clockTick, steal: time.Duration(v[7]) * clockTick, ok: true}
}

// runtimeSample is a snapshot of the Go runtime counters the benchmark
// turns into per-operation allocation and GC-share figures.
type runtimeSample struct {
	allocObjects, allocBytes uint64
	gcCPU, totalCPU          float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	ss := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	u := func(i int) uint64 {
		if ss[i].Value.Kind() == metrics.KindUint64 {
			return ss[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if ss[i].Value.Kind() == metrics.KindFloat64 {
			return ss[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocObjects: u(0), allocBytes: u(1), gcCPU: f(2), totalCPU: f(3)}
}

// liveHeapMB forces a collection and reports the heap still reachable:
// data the workload holds plus anything leaked (temps, cast copies).
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
