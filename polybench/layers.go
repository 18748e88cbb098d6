package main

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/trace"
)

// perLayerMetrics names every per-layer metric with its unit. A layer a
// workload never reaches reports 0 on it: no time, no rows, no bytes.
var perLayerMetrics = []metricName{
	{"server.rtt_overhead_us", "us"},
	{"server.resp_bytes_per_op", "bytes"},
	{"core.parse_us", "us"},
	{"core.plan_us", "us"},
	{"core.execute.relational_ms", "ms"},
	{"core.execute.array_ms", "ms"},
	{"core.execute.text_ms", "ms"},
	{"core.cast_ms", "ms"},
	{"core.cast.dump_ms", "ms"},
	{"core.cast.wire_ms", "ms"},
	{"core.cast.load_ms", "ms"},
	{"core.cast.commit_ms", "ms"},
	{"core.cast.bytes_per_row", "bytes"},
	{"core.cast.moved_over_scanned", "ratio"},
	{"core.cast.retries_per_op", "count"},
	{"relational.select_ns_per_row", "ns"},
	{"relational.write_us", "us"},
	{"relational.cold_read_penalty_ms", "ms"},
	{"relational.write_wait_ms", "ms"},
	{"array.ns_per_cell", "ns"},
	{"array.load_ns_per_row", "ns"},
	{"kvstore.search_us", "us"},
	{"engine.encode_ns_per_row", "ns"},
	{"engine.decode_ns_per_row", "ns"},
	{"shard.scatter_overhead_ms", "ms"},
	{"shard.slowest_shard_ms", "ms"},
	{"shard.rows_returned_over_shipped", "ratio"},
	{"go.allocs_per_op", "count"},
	{"go.alloc_bytes_per_op", "bytes"},
	{"go.gc_cpu_fraction", "ratio"},
	{"trace.read_p50_overhead_ms", "ms"},
}

// span is one timed region of a traced operation. The benchmark records
// its own spans around calls into each layer and grafts under them the
// span tree QueryCtx emits on a trace.New context.
type span struct {
	name     string
	dur      time.Duration
	ints     map[string]int64
	strs     map[string]string
	children []*span
}

func newSpan(name string, dur time.Duration) *span {
	return &span{name: name, dur: dur, ints: map[string]int64{}, strs: map[string]string{}}
}

// fromTrace copies a finished program span tree.
func fromTrace(sp *trace.Span) *span {
	s := newSpan(sp.Name(), sp.Duration())
	for _, a := range sp.Attrs() {
		if a.IsInt {
			s.ints[a.Key] = a.Int
		} else {
			s.strs[a.Key] = a.Str
		}
	}
	for _, c := range sp.Children() {
		s.children = append(s.children, fromTrace(c))
	}
	return s
}

func (s *span) add(c *span) *span {
	s.children = append(s.children, c)
	return c
}

// find returns every span named name in s's subtree, depth-first.
func (s *span) find(name string) []*span {
	var out []*span
	var walk func(*span)
	walk = func(x *span) {
		if x.name == name {
			out = append(out, x)
		}
		for _, c := range x.children {
			walk(c)
		}
	}
	walk(s)
	return out
}

// child returns s's first direct child named name, or nil.
func (s *span) child(name string) *span {
	for _, c := range s.children {
		if c.name == name {
			return c
		}
	}
	return nil
}

// walkSelf visits every span of the tree with its self time: its
// duration minus the time its children cover. Program spans carry no
// start times, so children are taken to run one after another; where
// they sum to more than their parent they ran concurrently (a cast's
// encode and decode), and the parent's time is shared among them in
// proportion. Self times of a tree therefore sum to its root's duration.
func walkSelf(s *span, fn func(path string, s *span, self time.Duration)) {
	var walk func(x *span, path string, share float64)
	walk = func(x *span, path string, share float64) {
		var kids time.Duration
		for _, c := range x.children {
			kids += c.dur
		}
		self := x.dur - kids
		if self < 0 {
			self = 0
		}
		fn(path, x, time.Duration(share*float64(self)))
		if kids > x.dur {
			share *= float64(x.dur) / float64(kids)
		}
		for _, c := range x.children {
			walk(c, path+"/"+c.name, share)
		}
	}
	walk(s, s.name, 1)
}

func selfOf(s *span) time.Duration {
	var self time.Duration
	walkSelf(s, func(_ string, x *span, d time.Duration) {
		if x == s {
			self = d
		}
	})
	return self
}

// tracer collects one span tree per traced operation. Trees stay in
// memory until the run ends.
type tracer struct {
	mu     sync.Mutex
	poly   *core.Polystore
	trees  []*span
	failed int
	errs   []string
}

// replay is the traced run's afterOp: around the client request just
// made it records the same query answered in-process by QueryCtx (with
// the program's own span tree underneath), the result's encoding with
// engine.WriteBinary and its decoding with engine.ReadBinary. A state-
// changing statement is not replayed.
func (t *tracer) replay(o *op, s *sample) {
	root := newSpan("op", s.dur)
	root.add(newSpan("client.Query", s.dur))
	var err error
	if s.err == nil && !o.dml {
		err = t.inProcess(root, o)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.trees = append(t.trees, root)
	if err != nil {
		t.failed++
		if len(t.errs) < 5 {
			t.errs = append(t.errs, fmt.Sprintf("%s: %v", o.shape, err))
		}
	}
}

func (t *tracer) inProcess(root *span, o *op) error {
	ctx, tsp := trace.New(context.Background(), "QueryCtx")
	rel, err := t.poly.QueryCtx(ctx, o.query)
	tsp.End()
	q := root.add(fromTrace(tsp))
	root.dur += q.dur
	if err != nil {
		return err
	}
	q.ints["rows"] = int64(rel.Len())
	if err := o.check(rel); err != nil {
		return fmt.Errorf("in-process answer: %w", err)
	}
	var buf bytes.Buffer
	start := time.Now()
	err = rel.WriteBinary(&buf)
	enc := root.add(newSpan("engine.WriteBinary", time.Since(start)))
	if err != nil {
		return err
	}
	enc.ints["rows"] = int64(rel.Len())
	enc.ints["bytes"] = int64(buf.Len())
	start = time.Now()
	back, err := engine.ReadBinary(&buf)
	dec := root.add(newSpan("engine.ReadBinary", time.Since(start)))
	if err != nil {
		return err
	}
	dec.ints["rows"] = int64(back.Len())
	root.dur += enc.dur + dec.dur
	return nil
}

// pathStat is one row of the written-out self-time table.
type pathStat struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// selfTable sums span durations and self times by span path.
func selfTable(trees []*span) map[string]*pathStat {
	out := map[string]*pathStat{}
	for _, t := range trees {
		walkSelf(t, func(path string, s *span, self time.Duration) {
			ps := out[path]
			if ps == nil {
				ps = &pathStat{}
				out[path] = ps
			}
			ps.Count++
			ps.TotalMs += ms(s.dur)
			ps.SelfMs += ms(self)
		})
	}
	return out
}

// stages returns q's direct children named name, and those of its
// scatter span.
func stages(q *span, name string) []*span {
	var out []*span
	for _, parent := range []*span{q, q.child("scatter")} {
		if parent == nil {
			continue
		}
		for _, c := range parent.children {
			if c.name == name {
				out = append(out, c)
			}
		}
	}
	return out
}

// executeLayer maps a query's island to the engine whose kernels its
// execute stage runs.
func executeLayer(island string) string {
	switch island {
	case "RELATIONAL", "POSTGRES":
		return "relational"
	case "ARRAY", "SCIDB":
		return "array"
	case "ACCUMULO":
		return "text"
	}
	return ""
}

// layerMetrics derives the per-layer metrics the traced trees carry.
func layerMetrics(trees []*span, m map[string]float64) {
	var (
		replayed                           int
		parse, plan                        time.Duration
		respBytes, encRows, decRows        int64
		enc, dec                           time.Duration
		execN                              = map[string]int{}
		execSelf                           = map[string]time.Duration{}
		casts, ops                         int
		castDur                            time.Duration
		stage                              = map[string]time.Duration{}
		wireBytes, moved, scanned, retries int64
		arrLoad                            time.Duration
		arrRows                            int64
		scatters                           int
		slowest                            time.Duration
		shipped, returned                  int64
	)
	for _, t := range trees {
		ops++
		qc := t.child("QueryCtx")
		if qc == nil {
			continue
		}
		replayed++
		if e := t.child("engine.WriteBinary"); e != nil {
			enc += e.dur
			encRows += e.ints["rows"]
			respBytes += e.ints["bytes"]
		}
		if d := t.child("engine.ReadBinary"); d != nil {
			dec += d.dur
			decRows += d.ints["rows"]
		}
		// Nested island queries open their own "query" span inside the
		// outer one's plan, so each query's stages are its own children
		// (or, under scatter-gather, the scatter span's).
		for _, q := range qc.find("query") {
			for _, c := range stages(q, "parse") {
				parse += c.dur
			}
			for _, c := range stages(q, "plan") {
				plan += selfOf(c)
			}
			if layer := executeLayer(q.strs["island"]); layer != "" {
				execN[layer]++
				for _, c := range stages(q, "execute") {
					execSelf[layer] += selfOf(c)
				}
			}
		}
		for _, c := range qc.find("cast") {
			casts++
			castDur += c.dur
			for _, a := range c.children {
				for _, st := range a.children {
					stage[st.name] += st.dur
					if st.name == "load" && c.strs["to"] == string(core.EngineSciDB) {
						arrLoad += st.dur
						arrRows += c.ints["rows_moved"]
					}
				}
			}
			wireBytes += c.ints["wire_bytes"]
			moved += c.ints["rows_moved"]
			scanned += c.ints["rows_scanned"]
			retries += c.ints["retries"]
		}
		for _, sc := range qc.find("scatter") {
			scatters++
			var slow time.Duration
			for _, ep := range sc.find("ShardEndpoint.Query") {
				shipped += ep.ints["rows"]
				if ep.dur > slow {
					slow = ep.dur
				}
			}
			slowest += slow
			returned += qc.ints["rows"]
		}
	}
	perOp := func(d time.Duration, n int) float64 { return ratio(float64(d), float64(n)) }
	m["server.resp_bytes_per_op"] = ratio(float64(respBytes), float64(replayed))
	m["engine.encode_ns_per_row"] = ratio(float64(enc), float64(encRows))
	m["engine.decode_ns_per_row"] = ratio(float64(dec), float64(decRows))
	m["core.parse_us"] = perOp(parse, replayed) / 1e3
	m["core.plan_us"] = perOp(plan, replayed) / 1e3
	for _, layer := range []string{"relational", "array", "text"} {
		m["core.execute."+layer+"_ms"] = perOp(execSelf[layer], execN[layer]) / 1e6
	}
	m["core.cast_ms"] = perOp(castDur, casts) / 1e6
	for _, st := range []string{"dump", "wire", "load", "commit"} {
		m["core.cast."+st+"_ms"] = perOp(stage[st], casts) / 1e6
	}
	m["core.cast.bytes_per_row"] = ratio(float64(wireBytes), float64(moved))
	m["core.cast.moved_over_scanned"] = ratio(float64(moved), float64(scanned))
	m["core.cast.retries_per_op"] = ratio(float64(retries), float64(ops))
	m["array.load_ns_per_row"] = ratio(float64(arrLoad), float64(arrRows))
	m["shard.slowest_shard_ms"] = perOp(slowest, scatters) / 1e6
	m["shard.rows_returned_over_shipped"] = ratio(float64(returned), float64(shipped))
}

// --- serial probes ---------------------------------------------------

// probeEngines calls the engines directly with the bodies of the given
// shapes, one call at a time on the quiet system, so the engines' own
// scan counters attribute exactly: relational.Execute per row scanned,
// ArrayStore.Query per cell scanned, KV.Search per call, and
// Polystore.LoadCtx into the array engine per row loaded (a nested
// island query CAST to an array loads its answer without a cast span,
// so the traced trees cannot attribute that load).
func probeEngines(p *core.Polystore, shapes []*op, reps int, m map[string]float64) error {
	var relNs, relRows, arrNs, arrCells, kvNs, kvCalls, loadNs, loadRows float64
	for _, o := range shapes {
		for r := 0; r < reps; r++ {
			switch o.probe {
			case "load-array":
				d, rows, err := probeArrayLoad(p, o.query)
				if err != nil {
					return fmt.Errorf("probe %s: %w", o.shape, err)
				}
				loadNs += float64(d)
				loadRows += float64(rows)
			case "sql":
				before := p.Relational.Stats().RowsScanned
				start := time.Now()
				if _, err := p.Relational.Execute(body(o.query)); err != nil {
					return fmt.Errorf("probe %s: %w", o.shape, err)
				}
				relNs += float64(time.Since(start))
				relRows += float64(p.Relational.Stats().RowsScanned - before)
			case "afl":
				before := p.ArrayStore.Stats().CellsScanned
				start := time.Now()
				if _, err := p.ArrayStore.Query(body(o.query)); err != nil {
					return fmt.Errorf("probe %s: %w", o.shape, err)
				}
				arrNs += float64(time.Since(start))
				arrCells += float64(p.ArrayStore.Stats().CellsScanned - before)
			case "search":
				phrase, minCount, err := searchArgs(o.query)
				if err != nil {
					return err
				}
				start := time.Now()
				if _, err := p.KV.Search("notes", phrase, minCount); err != nil {
					return fmt.Errorf("probe %s: %w", o.shape, err)
				}
				kvNs += float64(time.Since(start))
				kvCalls++
			}
		}
	}
	m["relational.select_ns_per_row"] = ratio(relNs, relRows)
	m["array.ns_per_cell"] = ratio(arrNs, arrCells)
	m["kvstore.search_us"] = ratio(kvNs, kvCalls) / 1e3
	if loadRows > 0 {
		m["array.load_ns_per_row"] = ratio(loadNs, loadRows)
	}
	return nil
}

// probeArrayLoad answers the island query nested in q's
// CAST(<query>, array) and times loading the answer into the array
// engine, then drops the loaded copy.
func probeArrayLoad(p *core.Polystore, q string) (time.Duration, int, error) {
	i, j := strings.Index(q, "CAST("), strings.LastIndex(q, ", array)")
	if i < 0 || j < i {
		return 0, 0, fmt.Errorf("no CAST(<query>, array) in %s", q)
	}
	ctx := context.Background()
	rel, err := p.QueryCtx(ctx, q[i+len("CAST("):j])
	if err != nil {
		return 0, 0, err
	}
	const name = "polybench_probe_load"
	start := time.Now()
	err = p.LoadCtx(ctx, core.EngineSciDB, name, rel, core.CastOptions{})
	d := time.Since(start)
	if info, ok := p.Lookup(name); ok {
		p.Deregister(name)
		_ = p.ArrayStore.Remove(info.Physical)
	}
	return d, rel.Len(), err
}

// searchArgs parses TEXT(search(notes, 'phrase', n)).
func searchArgs(q string) (string, int, error) {
	parts := strings.Split(q, "'")
	if len(parts) != 3 {
		return "", 0, fmt.Errorf("not a search query: %s", q)
	}
	n, err := strconv.Atoi(strings.Trim(parts[2], " ,)"))
	return parts[1], n, err
}

// probeWrites measures the relational write path of mimic-write, one
// statement at a time: the cost of a write alone, what a write does to
// the next read (it invalidates the table's column cache), and how long
// a write waits behind a read that holds the table lock.
func probeWrites(p *core.Polystore, cycle func() []*op, reads []*op, reps int, m map[string]float64) error {
	exec := func(o *op) (time.Duration, error) {
		start := time.Now()
		rel, err := p.Relational.Execute(body(o.query))
		d := time.Since(start)
		if err == nil {
			err = o.check(rel)
		}
		if err != nil {
			return 0, fmt.Errorf("probe %s: %w", o.shape, err)
		}
		return d, nil
	}
	var writes []float64
	var cold, warm, alone, beside []float64
	for r := 0; r < reps; r++ {
		unit := cycle()
		read := reads[r%len(reads)]
		for i, w := range unit {
			d, err := exec(w)
			if err != nil {
				return err
			}
			writes = append(writes, float64(d))
			if i == 0 || i == len(unit)-1 {
				// Right after the insert and the delete: one cold read,
				// then the same read warm.
				for _, dst := range []*[]float64{&cold, &warm} {
					d, err := exec(read)
					if err != nil {
						return err
					}
					*dst = append(*dst, float64(d))
				}
			}
		}
		// The same insert/delete pair again, once alone and once
		// started while a read holds the table.
		for _, racing := range []bool{false, true} {
			unit := cycle()
			ins, del := unit[0], unit[len(unit)-1]
			var wg sync.WaitGroup
			var rerr error
			if racing {
				wg.Add(1)
				go func() {
					defer wg.Done()
					_, rerr = exec(reads[0])
				}()
				time.Sleep(200 * time.Microsecond)
			}
			d, err := exec(ins)
			wg.Wait()
			if err == nil {
				err = rerr
			}
			if err != nil {
				return err
			}
			if racing {
				beside = append(beside, float64(d))
			} else {
				alone = append(alone, float64(d))
			}
			if _, err := exec(del); err != nil {
				return err
			}
		}
	}
	m["relational.write_us"] = median(writes) / 1e3
	m["relational.cold_read_penalty_ms"] = (median(cold) - median(warm)) / 1e6
	m["relational.write_wait_ms"] = (median(beside) - median(alone)) / 1e6
	return nil
}

// probeRTT measures what the server adds to a query: client.Query over
// TCP minus QueryCtx in-process for the same query, medians over reps,
// averaged over up to 24 of the workload's reads (the cheapest queries,
// where the difference is not lost in the query's own variance), on the
// quiet system so neither side waits on the other client.
func probeRTT(ctx context.Context, e *env, reps int, m map[string]float64) error {
	var shapes []*op
	for _, o := range e.shapes {
		if o.kind == readOp {
			shapes = append(shapes, o)
		}
	}
	step := (len(shapes) + 23) / 24
	var sum float64
	var n int
	for i := 0; i < len(shapes); i += step {
		o := shapes[i]
		var remote, local []float64
		for r := 0; r < reps; r++ {
			s := runOp(e.clients[0], o)
			if s.err != nil {
				return fmt.Errorf("probe %s: %w", o.shape, s.err)
			}
			remote = append(remote, float64(s.dur))
			start := time.Now()
			if _, err := e.poly.QueryCtx(ctx, o.query); err != nil {
				return fmt.Errorf("probe %s: %w", o.shape, err)
			}
			local = append(local, float64(time.Since(start)))
		}
		sum += median(remote) - median(local)
		n++
	}
	m["server.rtt_overhead_us"] = ratio(sum, float64(n)) / 1e3
	return nil
}

// probeScatter measures what scatter-gather adds per query shape: the
// coordinator's QueryCtx minus an unsharded polystore's QueryCtx on the
// same data, medians over reps, averaged over shapes.
func probeScatter(ctx context.Context, coord, flat *core.Polystore, shapes []*op, reps int, m map[string]float64) error {
	timed := func(p *core.Polystore, q string) ([]float64, error) {
		var out []float64
		for r := 0; r < reps; r++ {
			start := time.Now()
			if _, err := p.QueryCtx(ctx, q); err != nil {
				return nil, err
			}
			out = append(out, float64(time.Since(start)))
		}
		return out, nil
	}
	seen := map[string]bool{}
	var overhead []float64
	for _, o := range shapes {
		if seen[o.shape] {
			continue
		}
		seen[o.shape] = true
		sharded, err := timed(coord, o.query)
		if err != nil {
			return err
		}
		local, err := timed(flat, o.query)
		if err != nil {
			return err
		}
		overhead = append(overhead, (median(sharded)-median(local))/1e6)
	}
	var sum float64
	for _, x := range overhead {
		sum += x
	}
	m["shard.scatter_overhead_ms"] = ratio(sum, float64(len(overhead)))
	return nil
}
