package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/server/client"
)

// opKind splits operations for the read_* and write_* latency metrics.
// A write is an operation that mutates an engine or moves rows between
// engines: an INSERT/UPDATE/DELETE, a query with a CAST (which stages a
// copy in the target engine), or a query the shard coordinator answers
// by gathering partitions into a local table. A read is any other query.
type opKind int

const (
	readOp opKind = iota
	writeOp
)

func (k opKind) String() string {
	if k == writeOp {
		return "write"
	}
	return "read"
}

// op is one request a client sends, with the means to check its answer.
type op struct {
	shape string // query shape, for per-shape counts
	kind  opKind
	query string
	// dml marks a statement that changes state: it is never replayed
	// in-process by the traced run.
	dml bool
	// check accepts the answer: it matches the reference computed
	// in-process at set-up, or the status a statement must report.
	check func(*engine.Relation) error
	// probe names the engine call the traced run's serial probes make
	// with the query's body: "sql", "afl", "search", "load-array" or none.
	probe string
}

// env is one set-up workload: a polystore served over TCP, the client
// connections that drive it, and per client the stream of operations
// it sends. Each call of next returns a unit the client runs whole
// before it looks at the clock again — one query for a reader, an
// insert/update/delete cycle for the mimic-write writer, so the table
// ends every run at the size it started.
type env struct {
	poly    *core.Polystore
	srv     *server.Server
	addr    string
	clients []*client.Client
	next    []func() []*op
	// shapes lists every distinct op the clients send; warm-up and the
	// traced run's serial probes use them.
	shapes []*op
	sizes  map[string]int
	// probe measures the workload's layer-specific per-layer metrics
	// serially, on the quiet system, after the traced closed loop.
	probe func(ctx context.Context, m map[string]float64) error
	// final checks state the workload must leave unchanged.
	final   func() error
	closers []func()
}

func (e *env) close() {
	for _, c := range e.clients {
		_ = c.Close()
	}
	e.clients = nil
	if e.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = e.srv.Shutdown(ctx)
		cancel()
		e.srv = nil
	}
	for i := len(e.closers) - 1; i >= 0; i-- {
		e.closers[i]()
	}
	e.closers = nil
}

// serve starts the benchmark's in-process server on e.poly and dials
// one connection per client.
func (e *env) serve(clients int) error {
	s, err := server.Serve(e.poly, "127.0.0.1:0", server.Config{})
	if err != nil {
		return err
	}
	e.srv = s
	e.addr = s.Addr().String()
	for i := 0; i < clients; i++ {
		c, err := client.Dial(e.addr)
		if err != nil {
			return err
		}
		e.clients = append(e.clients, c)
	}
	return nil
}

// warmUpOps is how many requests each client sends to warm up.
const warmUpOps = 4

// opTimeout bounds one request; a request that exceeds it fails.
const opTimeout = 30 * time.Second

// sample is one completed operation.
type sample struct {
	o   *op
	end time.Duration // completion, from the start of the loop
	dur time.Duration
	err error
}

// window is the unit the run is cut into. Throughput and CPU per
// operation are taken per window and reported as the median window;
// latency percentiles pool the raw samples of the windows kept.
const window = 500 * time.Millisecond

// loopResult is what one closed-loop phase measured.
type loopResult struct {
	samples []sample
	elapsed time.Duration
	// cpuAt[i] is the process CPU time and sysAt[i] the machine's CPU
	// counters i windows after the start.
	cpuAt []time.Duration
	sysAt []sysCPU
}

// interference returns, per whole window, the share of the machine's
// CPU capacity that went to anything but this process: other processes,
// and time the hypervisor ran other machines while this one's CPUs
// wanted to run (steal). ok is false where the machine's counters
// cannot be read.
func (r loopResult) interference() (share []float64, ok bool) {
	n := len(r.cpuAt) - 1
	for i := 0; i < n; i++ {
		if !r.sysAt[i].ok || !r.sysAt[i+1].ok {
			return nil, false
		}
		share = append(share, interferenceShare(window, r.cpuAt[i+1]-r.cpuAt[i], r.sysAt[i], r.sysAt[i+1]))
	}
	return share, true
}

// interferenceShare is the share of the machine's CPU capacity over
// wall that went to anything but this process, which used cpu of it,
// between the machine counters from and to. Steal counts whole: a
// kernel without paravirtual steal accounting charges time stolen from
// a running thread to that thread's CPU time, so cpu may include it.
func interferenceShare(wall, cpu time.Duration, from, to sysCPU) float64 {
	if !from.ok || !to.ok || wall <= 0 {
		return 0
	}
	other := max(0, to.busy-from.busy-cpu) + to.steal - from.steal
	return float64(other) / (float64(runtime.NumCPU()) * float64(wall))
}

// kept marks the windows the metrics are taken over: those the
// machine gave to this process (see quiet). Where the counters cannot
// be read every window is kept.
func (r loopResult) kept() []bool {
	n := len(r.cpuAt) - 1
	if n < 1 {
		return nil
	}
	share, ok := r.interference()
	if !ok {
		share = make([]float64, n)
	}
	return quiet(share)
}

// quietShare is the most interference a quiet window or set-up may
// have: 5% of the machine's CPU capacity.
const quietShare = 0.05

// quiet marks the measurements, each with its interference share, that
// the benchmark reports on: those at or under quietShare, but at least
// the least-disturbed quarter. The benchmark shares its cores with
// other tenants of the host; a window in which one of them took a core
// measures that tenant, not the program.
func quiet(share []float64) []bool {
	keep := make([]bool, len(share))
	order := make([]int, len(share))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return share[order[a]] < share[order[b]] })
	for rank, i := range order {
		if share[i] <= quietShare || rank < (len(share)+3)/4 {
			keep[i] = true
		}
	}
	return keep
}

// windowMeta describes the windows for the run metadata: how many the
// run had and kept, and the median interference over all and kept ones.
func (r loopResult) windowMeta() map[string]any {
	keep := r.kept()
	share, ok := r.interference()
	nKept := 0
	var all, kept []float64
	for i, k := range keep {
		if k {
			nKept++
		}
		if ok {
			all = append(all, share[i])
			if k {
				kept = append(kept, share[i])
			}
		}
	}
	m := map[string]any{"seconds": window.Seconds(), "total": len(keep), "kept": nKept}
	if ok {
		m["interference_all"] = median(all)
		m["interference_kept"] = median(kept)
	}
	return m
}

// inKept reports whether a sample completed in a kept window.
func inKept(keep []bool, s sample) bool {
	i := int(s.end / window)
	return i < len(keep) && keep[i]
}

// windowed returns, per kept window, the correct operations per second
// and the CPU milliseconds per operation attempted.
func (r loopResult) windowed() (qps, cpuMs []float64) {
	keep := r.kept()
	n := len(keep)
	ok := make([]int, n)
	all := make([]int, n)
	for _, s := range r.samples {
		if i := int(s.end / window); i < n {
			all[i]++
			if s.err == nil {
				ok[i]++
			}
		}
	}
	for i := 0; i < n; i++ {
		if !keep[i] {
			continue
		}
		qps = append(qps, float64(ok[i])/window.Seconds())
		if all[i] > 0 {
			cpuMs = append(cpuMs, ms(r.cpuAt[i+1]-r.cpuAt[i])/float64(all[i]))
		}
	}
	return qps, cpuMs
}

func (r loopResult) count() (attempted, failed int) {
	for _, s := range r.samples {
		attempted++
		if s.err != nil {
			failed++
		}
	}
	return
}

// latencies returns the sorted milliseconds of successful ops of kind k
// that completed in a kept window.
func (r loopResult) latencies(k opKind) []float64 {
	keep := r.kept()
	var ds []time.Duration
	for _, s := range r.samples {
		if s.err == nil && s.o.kind == k && inKept(keep, s) {
			ds = append(ds, s.dur)
		}
	}
	return sortedMs(ds)
}

// firstErrors returns up to n distinct failure messages, for the log.
func (r loopResult) firstErrors(n int) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range r.samples {
		if s.err == nil || len(out) >= n {
			continue
		}
		msg := fmt.Sprintf("%s: %v", s.o.shape, s.err)
		if !seen[msg] {
			seen[msg] = true
			out = append(out, msg)
		}
	}
	return out
}

// afterOp runs after each completed client request; the traced run
// uses it to replay the op in-process. It must be safe for concurrent
// use by all clients.
type afterOp func(o *op, s *sample)

// closedLoop runs every client of e for d: each sends its next request
// only after the previous answer arrived and was checked. A client
// whose connection breaks redials and goes on; the broken request
// counts as failed.
func closedLoop(e *env, d time.Duration, after afterOp) loopResult {
	per := make([][]sample, len(e.clients))
	start := time.Now()
	deadline := start.Add(d)
	cpuAt := []time.Duration{cpuTime()}
	sysAt := []sysCPU{readSysCPU()}
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		t := time.NewTicker(window)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				cpuAt = append(cpuAt, cpuTime())
				sysAt = append(sysAt, readSysCPU())
			case <-stop:
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for ci := range e.clients {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := e.clients[ci]
			for time.Now().Before(deadline) {
				for _, o := range e.next[ci]() {
					s := runOp(c, o)
					s.end = time.Since(start)
					if s.err != nil && isTransport(s.err) {
						if nc, err := client.Dial(e.addr); err == nil {
							_ = c.Close()
							c = nc
						}
					}
					if after != nil {
						after(o, &s)
					}
					per[ci] = append(per[ci], s)
				}
			}
			e.clients[ci] = c
		}(ci)
	}
	wg.Wait()
	close(stop)
	<-sampled
	res := loopResult{elapsed: time.Since(start), cpuAt: cpuAt, sysAt: sysAt}
	for _, ss := range per {
		res.samples = append(res.samples, ss...)
	}
	return res
}

func runOp(c *client.Client, o *op) sample {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	start := time.Now()
	rel, err := c.Query(ctx, o.query)
	s := sample{o: o, dur: time.Since(start), err: err}
	if err == nil {
		if cerr := o.check(rel); cerr != nil {
			s.err = fmt.Errorf("%w: %v", errWrongAnswer, cerr)
		}
	}
	return s
}

// isTransport reports a failure of the connection rather than of the
// request: the server did not answer with a typed error.
func isTransport(err error) bool {
	var qe *client.QueryError
	return !errors.As(err, &qe) && !errors.Is(err, errWrongAnswer)
}

var errWrongAnswer = errors.New("wrong answer")

// warmUp runs every client through its stream until each has sent
// warmUpOps requests, so connections and the server's paths are hot
// before timing starts; set-up has already answered every query once
// in-process, which filled the engines' caches. A warm-up failure
// aborts the run: a workload that fails before timing would only
// measure its failures.
func warmUp(e *env) error {
	n := warmUpOps
	errs := make([]error, len(e.clients))
	var wg sync.WaitGroup
	for ci := range e.clients {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for sent := 0; sent < n; {
				for _, o := range e.next[ci]() {
					s := runOp(e.clients[ci], o)
					if s.err != nil {
						errs[ci] = fmt.Errorf("warm-up %s: %w", o.shape, s.err)
						return
					}
					sent++
				}
			}
		}(ci)
	}
	wg.Wait()
	return errors.Join(errs...)
}
