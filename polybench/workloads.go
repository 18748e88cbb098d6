package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/demo"
	"repro/internal/engine"
	"repro/internal/mimic"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/shard"
	"repro/internal/trace"
)

// clients is the closed-loop client count: one analyst or dashboard per
// core of the 2-core machine the benchmark was sized on.
const clients = 2

// scale sets the data sizes; the self-test runs every workload at
// tinyScale.
type scale struct {
	patients, labsPerPatient  int
	waveformSeconds, notesPer int
	castPatients              int // mimic-analytics: patients in the relation→array CAST
	shardRows                 int
	variants                  int // seeded input variants per query shape
	probeReps                 int // repetitions of each serial layer probe
}

var fullScale = scale{
	patients: 5000, labsPerPatient: 20, waveformSeconds: 40, notesPer: 4,
	castPatients: 500,
	shardRows:    20000,
	variants:     4,
	probeReps:    10,
}

var tinyScale = scale{
	patients: 40, labsPerPatient: 5, waveformSeconds: 2, notesPer: 2,
	castPatients: 10,
	shardRows:    2000,
	variants:     2,
	probeReps:    2,
}

type workload struct {
	name  string
	setup func(seed int64, sc scale) (*env, error)
}

var workloads = []workload{
	{"mimic-analytics", setupMimicAnalytics},
	{"mimic-write", setupMimicWrite},
	{"shard-scatter", setupShardScatter},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// roundRobin streams ops in order from start, one per unit. Clients
// start at different offsets so they do not send the same query in
// lock step.
func roundRobin(ops []*op, start int) func() []*op {
	i := start
	return func() []*op {
		o := ops[i%len(ops)]
		i++
		return []*op{o}
	}
}

// --- MIMIC II federation ---------------------------------------------

func loadMimic(seed int64, sc scale) (*demo.System, error) {
	return demo.Load(mimic.Config{
		Seed:            seed,
		Patients:        sc.patients,
		SampleRate:      125,
		WaveformSeconds: sc.waveformSeconds,
		NotesPerPatient: sc.notesPer,
		LabsPerPatient:  sc.labsPerPatient,
	})
}

func mimicSizes(p *core.Polystore) (map[string]int, error) {
	sizes := map[string]int{}
	for _, t := range []string{"patients", "labs", "prescriptions", "admissions"} {
		n, err := p.Relational.TableLen(t)
		if err != nil {
			return nil, err
		}
		sizes[t+"_rows"] = n
	}
	wf, err := p.ArrayStore.Get("waveforms")
	if err != nil {
		return nil, err
	}
	sizes["waveform_cells"] = int(wf.Count())
	notes, err := p.KV.Len("notes")
	if err != nil {
		return nil, err
	}
	sizes["notes"] = notes
	return sizes, nil
}

var labTests = []string{"lactate", "creatinine", "hemoglobin", "sodium", "potassium", "glucose"}

// shapeDef is one query shape; query renders one input variant of it.
// u is stratified: variant v of n draws u from [v/n, (v+1)/n), so every
// seed spreads a shape's constants — and the selectivity they set —
// evenly over their range, and seeds differ only within strata.
type shapeDef struct {
	name  string
	kind  opKind
	query func(u float64, rng *rand.Rand) string
	// probe names the engine call the serial layer probes make with
	// the query's body (see probeEngines); empty for none.
	probe string
}

// buildShapes renders variants of each shape, ordered variant-major so a
// round-robin client alternates shapes, with reference answers from p.
func buildShapes(p *core.Polystore, rng *rand.Rand, defs []shapeDef, variants int) ([]*op, error) {
	var ops []*op
	for v := 0; v < variants; v++ {
		for _, d := range defs {
			q := d.query((float64(v)+rng.Float64())/float64(variants), rng)
			want, err := p.QueryCtx(context.Background(), q)
			if err != nil {
				return nil, fmt.Errorf("reference %q: %w", q, err)
			}
			ops = append(ops, &op{shape: d.name, kind: d.kind, query: q, check: relationCheck(want), probe: d.probe})
		}
	}
	return ops, nil
}

// body strips the island wrapper: ISLAND(body) → body.
func body(q string) string {
	return q[strings.IndexByte(q, '(')+1 : len(q)-1]
}

// The mimic-analytics shapes: the paper's demo interfaces over the
// MIMIC II federation — relational GROUP BY and joins, array aggregate
// and filter, text search, and both CAST directions.
func mimicAnalyticsShapes(castMaxID int) []shapeDef {
	return []shapeDef{
		{name: "rel-groupby", kind: readOp, probe: "sql", query: func(u float64, r *rand.Rand) string {
			return fmt.Sprintf("RELATIONAL(SELECT test, COUNT(*) AS n, AVG(value) AS mean FROM labs WHERE value > %.2f GROUP BY test)", 1+4*u)
		}},
		{name: "rel-join-labs", kind: readOp, probe: "sql", query: func(u float64, r *rand.Rand) string {
			return fmt.Sprintf("RELATIONAL(SELECT p.race, COUNT(*) AS n, AVG(l.value) AS mean FROM labs l JOIN patients p ON l.patient_id = p.id WHERE l.test = '%s' GROUP BY p.race)", labTests[int(u*float64(len(labTests)))])
		}},
		{name: "rel-join-rx", kind: readOp, probe: "sql", query: func(u float64, r *rand.Rand) string {
			return fmt.Sprintf("RELATIONAL(SELECT x.drug, COUNT(*) AS n, AVG(p.age) AS age FROM prescriptions x JOIN patients p ON x.patient_id = p.id WHERE p.age > %d GROUP BY x.drug)", 20+int(u*50))
		}},
		{name: "array-aggregate", kind: readOp, probe: "afl", query: func(u float64, r *rand.Rand) string {
			return fmt.Sprintf("ARRAY(aggregate(waveforms, %s(v), patient))", []string{"avg", "max", "min", "sum"}[int(u*4)])
		}},
		{name: "array-filter", kind: readOp, probe: "afl", query: func(u float64, r *rand.Rand) string {
			return fmt.Sprintf("ARRAY(filter(waveforms, v > %.3f))", 1.2+0.2*u)
		}},
		{name: "text-search", kind: readOp, probe: "search", query: func(u float64, r *rand.Rand) string {
			phrases := []string{"very sick", "heart rhythm", "mild fever", "vitals stable"}
			return fmt.Sprintf("TEXT(search(notes, '%s', %d))", phrases[int(u*float64(len(phrases)))], 1+r.Intn(3))
		}},
		{name: "cast-wf-to-rel", kind: writeOp, query: func(u float64, r *rand.Rand) string {
			return fmt.Sprintf("RELATIONAL(SELECT patient, COUNT(*) AS n, MAX(v) AS peak FROM CAST(waveforms, relation) WHERE v > %.3f GROUP BY patient)", 0.8+0.4*u)
		}},
		{name: "cast-rel-to-array", kind: writeOp, probe: "load-array", query: func(u float64, r *rand.Rand) string {
			return fmt.Sprintf("ARRAY(aggregate(CAST(POSTGRES(SELECT lab_id, value FROM labs WHERE patient_id <= %d), array), %s(value)))",
				castMaxID, []string{"avg", "max", "sum"}[int(u*3)])
		}},
	}
}

func setupMimicAnalytics(seed int64, sc scale) (*env, error) {
	sys, err := loadMimic(seed, sc)
	if err != nil {
		return nil, err
	}
	p := sys.Poly
	e := &env{poly: p}
	if e.sizes, err = mimicSizes(p); err != nil {
		return nil, err
	}
	e.sizes["cast_rel_to_array_rows"] = sc.castPatients * sc.labsPerPatient
	defs := mimicAnalyticsShapes(sc.castPatients)
	rng := rand.New(rand.NewSource(seed))
	if e.shapes, err = buildShapes(p, rng, defs, sc.variants); err != nil {
		return nil, err
	}
	for ci := 0; ci < clients; ci++ {
		e.next = append(e.next, roundRobin(e.shapes, ci*len(e.shapes)/clients+ci))
	}
	e.probe = func(ctx context.Context, m map[string]float64) error {
		return probeEngines(p, e.shapes, sc.probeReps, m)
	}
	return e, e.serve(clients)
}

// --- mimic-write -----------------------------------------------------

// writeBase is the first lab_id the writer inserts: above every
// generated id, so reads that filter lab_id < writeBase keep a fixed
// answer while the writer churns the table beside them.
const writeBase = 10_000_000

// writeBatch is the number of rows per INSERT, and per DELETE.
const writeBatch = 10

// writer returns the writer client's stream: each unit inserts a batch
// of writeBatch fresh rows, updates two of them by primary key, and
// deletes the batch, so the table is the same size after every unit.
func writer(seed int64, patients int) func() []*op {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	cycle := 0
	return func() []*op {
		lo := writeBase + cycle*writeBatch
		cycle++
		rows := make([]string, writeBatch)
		for i := range rows {
			rows[i] = fmt.Sprintf("(%d, %d, '%s', %.3f)", lo+i, 1+rng.Intn(patients),
				labTests[rng.Intn(len(labTests))], 1+10*rng.Float64())
		}
		ins := &op{shape: "insert", kind: writeOp, dml: true, check: statusCheck(writeBatch),
			query: "POSTGRES(INSERT INTO labs VALUES " + strings.Join(rows, ", ") + ")"}
		unit := []*op{ins}
		for u := 0; u < 2; u++ {
			unit = append(unit, &op{shape: "update", kind: writeOp, dml: true, check: statusCheck(1),
				query: fmt.Sprintf("POSTGRES(UPDATE labs SET value = %.3f WHERE lab_id = %d)", 1+10*rng.Float64(), lo+rng.Intn(writeBatch))})
		}
		return append(unit, &op{shape: "delete", kind: writeOp, dml: true, check: statusCheck(writeBatch),
			query: fmt.Sprintf("POSTGRES(DELETE FROM labs WHERE lab_id >= %d)", lo)})
	}
}

func mimicWriteReads() []shapeDef {
	return []shapeDef{
		{name: "rel-groupby", kind: readOp, probe: "sql", query: func(u float64, r *rand.Rand) string {
			return fmt.Sprintf("RELATIONAL(SELECT test, COUNT(*) AS n, AVG(value) AS mean FROM labs WHERE lab_id < %d AND value > %.2f GROUP BY test)", writeBase, 1+4*u)
		}},
		{name: "rel-join-labs", kind: readOp, probe: "sql", query: func(u float64, r *rand.Rand) string {
			return fmt.Sprintf("RELATIONAL(SELECT p.race, COUNT(*) AS n, AVG(l.value) AS mean FROM labs l JOIN patients p ON l.patient_id = p.id WHERE l.lab_id < %d AND l.test = '%s' GROUP BY p.race)", writeBase, labTests[int(u*float64(len(labTests)))])
		}},
	}
}

func setupMimicWrite(seed int64, sc scale) (*env, error) {
	sys, err := loadMimic(seed, sc)
	if err != nil {
		return nil, err
	}
	p := sys.Poly
	e := &env{poly: p}
	if e.sizes, err = mimicSizes(p); err != nil {
		return nil, err
	}
	e.sizes["write_batch_rows"] = writeBatch
	defs := mimicWriteReads()
	rng := rand.New(rand.NewSource(seed))
	reads, err := buildShapes(p, rng, defs, sc.variants)
	if err != nil {
		return nil, err
	}
	w := writer(seed, sc.patients)
	e.shapes = append(w(), reads...)
	e.next = []func() []*op{w, roundRobin(reads, 0)}
	labs := e.sizes["labs_rows"]
	e.final = func() error {
		n, err := p.Relational.TableLen("labs")
		if err != nil {
			return err
		}
		if n != labs {
			return fmt.Errorf("labs has %d rows after the run, want %d", n, labs)
		}
		return nil
	}
	e.probe = func(ctx context.Context, m map[string]float64) error {
		if err := probeEngines(p, reads, sc.probeReps, m); err != nil {
			return err
		}
		return probeWrites(p, w, reads, sc.probeReps, m)
	}
	return e, e.serve(clients)
}

// --- shard-scatter ---------------------------------------------------

// shardTable is the partitioned table: a dense INT key, an 8-value
// group column and a uniform float measure, all from the seed.
func shardTable(seed int64, rows int) *engine.Relation {
	rng := rand.New(rand.NewSource(seed))
	rel := engine.NewRelation(engine.NewSchema(
		engine.Col("k", engine.TypeInt),
		engine.Col("g", engine.TypeString),
		engine.Col("v", engine.TypeFloat)))
	for i := 0; i < rows; i++ {
		_ = rel.Append(engine.Tuple{
			engine.NewInt(int64(i)),
			engine.NewString(fmt.Sprintf("g%d", rng.Intn(8))),
			engine.NewFloat(rng.Float64()),
		})
	}
	return rel
}

// shardShapes: two shapes the coordinator pushes down to the shards
// (filtered COUNT; GROUP BY COUNT/SUM) and one it must gather (AVG).
func shardShapes() []shapeDef {
	return []shapeDef{
		{name: "scatter-count", kind: readOp, probe: "sql", query: func(u float64, r *rand.Rand) string {
			return fmt.Sprintf("RELATIONAL(SELECT COUNT(*) AS n FROM big WHERE v > %.3f)", u)
		}},
		{name: "scatter-groupby-sum", kind: readOp, probe: "sql", query: func(u float64, r *rand.Rand) string {
			return fmt.Sprintf("RELATIONAL(SELECT g, COUNT(*) AS n, SUM(v) AS s FROM big WHERE v > %.3f GROUP BY g)", u)
		}},
		{name: "gather-groupby-avg", kind: writeOp, query: func(u float64, r *rand.Rand) string {
			return fmt.Sprintf("RELATIONAL(SELECT g, AVG(v) AS a FROM big WHERE v > %.3f GROUP BY g)", u)
		}},
	}
}

// timedEndpoint records a span around every core.ShardEndpoint.Query
// the coordinator makes, with the rows the shard shipped. Untraced
// contexts pass straight through.
type timedEndpoint struct{ ep core.ShardEndpoint }

func (t timedEndpoint) Query(ctx context.Context, q string) (*engine.Relation, error) {
	ctx, sp := trace.Start(ctx, "ShardEndpoint.Query")
	defer sp.End()
	rel, err := t.ep.Query(ctx, q)
	if rel != nil {
		sp.SetInt("rows", int64(rel.Len()))
	}
	return rel, err
}

func setupShardScatter(seed int64, sc scale) (*env, error) {
	rel := shardTable(seed, sc.shardRows)
	// The unsharded polystore answers every reference and is the
	// baseline for shard.scatter_overhead_ms.
	flat := core.New()
	if err := flat.Load(core.EnginePostgres, "big", rel, core.CastOptions{}); err != nil {
		return nil, err
	}
	const nShards = 2
	spec := shard.HashSpec("k", nShards)
	parts, err := shard.Split(rel, spec)
	if err != nil {
		return nil, err
	}
	coord := core.New()
	e := &env{poly: coord, sizes: map[string]int{"rows": sc.shardRows, "shards": nShards}}
	var nodes []*core.Polystore
	var eps []core.ShardEndpoint
	for i, part := range parts {
		sp := core.New()
		if err := sp.Load(core.EnginePostgres, "big", part, core.CastOptions{}); err != nil {
			e.close()
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		s, err := server.Serve(sp, "127.0.0.1:0", server.Config{})
		if err != nil {
			e.close()
			return nil, err
		}
		ep := client.NewEndpoint(s.Addr().String())
		e.closers = append(e.closers, func() {
			_ = ep.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			_ = s.Shutdown(ctx)
			cancel()
		})
		nodes = append(nodes, sp)
		eps = append(eps, timedEndpoint{ep})
		e.sizes[fmt.Sprintf("shard%d_rows", i)] = part.Len()
	}
	coord.SetShardEndpoints(eps...)
	if err := coord.RegisterSharded("big", spec, rel.Schema, 0, 1); err != nil {
		e.close()
		return nil, err
	}
	defs := shardShapes()
	rng := rand.New(rand.NewSource(seed))
	if e.shapes, err = buildShapes(flat, rng, defs, sc.variants); err != nil {
		e.close()
		return nil, err
	}
	// Client 0 sends the pushed-down shapes, client 1 the gathered one:
	// a gather takes ~30 pushed queries' time, so with both clients
	// mixing, a read's latency would depend on whether it happened to
	// overlap a gather; this way every read runs beside one.
	var pushed, gathered []*op
	for _, o := range e.shapes {
		if o.kind == readOp {
			pushed = append(pushed, o)
		} else {
			gathered = append(gathered, o)
		}
	}
	e.next = []func() []*op{roundRobin(pushed, 0), roundRobin(gathered, 0)}
	e.probe = func(ctx context.Context, m map[string]float64) error {
		if err := probeEngines(nodes[0], e.shapes, sc.probeReps, m); err != nil {
			return err
		}
		return probeScatter(ctx, coord, flat, e.shapes, sc.probeReps, m)
	}
	if err := e.serve(clients); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}
