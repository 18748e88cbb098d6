package experiments

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/demo"
	"repro/internal/engine"
	"repro/internal/kvstore"
	"repro/internal/mimic"
	"repro/internal/monitor"
	"repro/internal/scalar"
	"repro/internal/searchlight"
	"repro/internal/stream"
	"repro/internal/tiledb"
)

// Type aliases keep the experiment bodies readable.
type (
	kvstoreEntry     = kvstore.Entry
	streamWindowView = stream.WindowView
	streamRecord     = stream.Record
)

// E6AdaptivePlacement reproduces §2.1's monitoring story: waveforms
// start in Postgres, a linear-algebra-dominated workload arrives, the
// monitor probes both engines, advises migration, and the workload
// reruns against the array engine.
func E6AdaptivePlacement(cfg Config) (Table, error) {
	t := Table{
		ID:     "E6",
		Title:  "adaptive data placement driven by the monitor",
		Claim:  "§2.1: migrate data objects between engines as query workloads change",
		Header: []string{"phase", "home engine", "workload query avg(ms)", "advice"},
	}
	p := core.New()
	// Waveform samples initially stored relationally.
	nSamples := cfg.scale(4_096, 16_384)
	rel := engine.NewRelation(engine.NewSchema(
		engine.Col("t", engine.TypeInt), engine.Col("v", engine.TypeFloat)))
	w := mimic.Waveform(cfg.Seed, 1, 0, nSamples, 125, false)
	for i, v := range w {
		_ = rel.Append(engine.Tuple{engine.NewInt(int64(i)), engine.NewFloat(v)})
	}
	if err := p.Relational.InsertRelation("waveforms", rel); err != nil {
		return t, err
	}
	if err := p.Register("waveforms", core.EnginePostgres, "waveforms"); err != nil {
		return t, err
	}

	// The linear-algebra workload: pull the signal and compute its FFT
	// power spectrum, whichever engine holds it.
	runWorkload := func() (time.Duration, error) {
		start := time.Now()
		info, _ := p.Lookup("waveforms")
		var vals []float64
		switch info.Engine {
		case core.EnginePostgres:
			res, err := p.Relational.Query(`SELECT v FROM ` + info.Physical + ` ORDER BY t`)
			if err != nil {
				return 0, err
			}
			vals, err = res.Floats("v")
			if err != nil {
				return 0, err
			}
		case core.EngineSciDB:
			a, err := p.ArrayStore.Get(info.Physical)
			if err != nil {
				return 0, err
			}
			vals, err = a.Floats("v")
			if err != nil {
				return 0, err
			}
		}
		_ = analytics.PowerSpectrum(vals)
		return time.Since(start), nil
	}

	const probes = 5
	classify := monitor.ClassLinearAlgebra
	// Like E2, probes record the best of N runs: a scheduler stall in a
	// single rep must not swing the advisor's latency comparison.
	measure := func() (time.Duration, error) {
		best := time.Duration(1<<63 - 1)
		for i := 0; i < probes; i++ {
			d, err := runWorkload()
			if err != nil {
				return 0, err
			}
			if d < best {
				best = d
			}
		}
		info, _ := p.Lookup("waveforms")
		p.Monitor.Record("waveforms", classify, string(info.Engine), best)
		return best, nil
	}

	before, err := measure()
	if err != nil {
		return t, err
	}
	// Probe the alternative engine on a workload sample (the paper's
	// "re-execute portions of a query workload on multiple engines").
	probeRes, err := p.Cast("waveforms", core.EngineSciDB, core.CastOptions{ArrayDims: []string{"t"}, Dense: true})
	if err != nil {
		return t, err
	}
	bestProbe := time.Duration(1<<63 - 1)
	for i := 0; i < probes; i++ {
		start := time.Now()
		a, err := p.ArrayStore.Get(probeRes.Target)
		if err != nil {
			return t, err
		}
		vals, err := a.Floats("v")
		if err != nil {
			return t, err
		}
		_ = analytics.PowerSpectrum(vals)
		if d := time.Since(start); d < bestProbe {
			bestProbe = d
		}
	}
	p.Monitor.Record("waveforms", classify, string(core.EngineSciDB), bestProbe)
	adv := p.Monitor.Advise("waveforms", string(core.EnginePostgres))
	t.Rows = append(t.Rows, []string{"before", "postgres", ms(before), adv.Reason})

	if adv.ShouldMigrate {
		if _, err := p.Migrate("waveforms", core.EngineKind(adv.To),
			core.CastOptions{ArrayDims: []string{"t"}, Dense: true}); err != nil {
			return t, err
		}
	}
	after, err := measure()
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows, []string{"after", adv.To, ms(after),
		fmt.Sprintf("migrated=%v, workload %s faster", adv.ShouldMigrate, ratio(before, after))})
	t.Notes = "the monitor probes both engines, detects the linear-algebra-dominant workload and migrates the array"
	return t, nil
}

// E7TightVsLooseCoupling measures §2.4's argument: analytics tightly
// coupled to the array storage versus the loose path that converts
// data formats on every call.
func E7TightVsLooseCoupling(cfg Config) (Table, error) {
	t := Table{
		ID:     "E7",
		Title:  "complex analytics: tight vs loose engine coupling",
		Claim:  "§2.4: loosely coupled DBMS + LA package is expensive due to format conversion",
		Header: []string{"kernel", "tight(ms)", "loose(ms)", "penalty"},
	}
	p := core.New()
	nSamples := cfg.scale(8_192, 32_768)
	w := mimic.Waveform(cfg.Seed, 1, 0, nSamples, 125, false)
	rel := engine.NewRelation(engine.NewSchema(
		engine.Col("t", engine.TypeInt), engine.Col("v", engine.TypeFloat)))
	for i, v := range w {
		_ = rel.Append(engine.Tuple{engine.NewInt(int64(i)), engine.NewFloat(v)})
	}
	if err := p.Load(core.EngineSciDB, "wf", rel, core.CastOptions{ArrayDims: []string{"t"}, Dense: true}); err != nil {
		return t, err
	}

	// FFT kernel: tight = Floats straight off the array; loose = CAST
	// to a relation (full binary round trip) then extract then FFT.
	const reps = 5
	tightFFT := func() (time.Duration, error) {
		start := time.Now()
		for i := 0; i < reps; i++ {
			a, err := p.ArrayStore.Get("wf")
			if err != nil {
				return 0, err
			}
			vals, err := a.Floats("v")
			if err != nil {
				return 0, err
			}
			_ = analytics.PowerSpectrum(vals)
		}
		return time.Since(start) / reps, nil
	}
	looseFFT := func() (time.Duration, error) {
		start := time.Now()
		for i := 0; i < reps; i++ {
			res, err := p.Cast("wf", core.EnginePostgres, core.CastOptions{})
			if err != nil {
				return 0, err
			}
			out, err := p.Relational.Query(`SELECT v FROM ` + res.Target + ` ORDER BY t`)
			if err != nil {
				return 0, err
			}
			vals, err := out.Floats("v")
			if err != nil {
				return 0, err
			}
			_ = analytics.PowerSpectrum(vals)
			_ = p.Relational.DropTable(res.Target)
			p.Deregister(res.Target)
		}
		return time.Since(start) / reps, nil
	}
	dt, err := tightFFT()
	if err != nil {
		return t, err
	}
	dl, err := looseFFT()
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows, []string{"FFT power spectrum", ms(dt), ms(dl), ratio(dl, dt)})

	// Sparse matvec on TileDB: tight = per-tile SpMV; loose = dump to a
	// relation and multiply from triples.
	n := int64(cfg.scale(500, 2000))
	ta, err := tiledb.NewArray("spm", tiledb.Box{Lo: []int64{0, 0}, Hi: []int64{n - 1, n - 1}}, 0.5)
	if err != nil {
		return t, err
	}
	var cells []tiledb.Cell
	for i := int64(0); i < n; i++ {
		cells = append(cells,
			tiledb.Cell{Coords: []int64{i, i}, Value: 2},
			tiledb.Cell{Coords: []int64{i, (i + 7) % n}, Value: 1})
	}
	if err := ta.Write(cells); err != nil {
		return t, err
	}
	if err := p.PutTileDB(ta); err != nil {
		return t, err
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i%13) / 3
	}
	start := time.Now()
	for i := 0; i < reps; i++ {
		if _, err := ta.SpMV(x); err != nil {
			return t, err
		}
	}
	dTight := time.Since(start) / reps
	start = time.Now()
	for i := 0; i < reps; i++ {
		triples, err := p.Dump("spm")
		if err != nil {
			return t, err
		}
		y := make([]float64, n)
		r0, c0, v0 := triples.Schema.Index("d0"), triples.Schema.Index("d1"), triples.Schema.Index("v")
		for _, tr := range triples.Tuples {
			y[tr[r0].AsInt()] += tr[v0].AsFloat() * x[tr[c0].AsInt()]
		}
	}
	dLoose := time.Since(start) / reps
	t.Rows = append(t.Rows, []string{"sparse matvec (TileDB)", ms(dTight), ms(dLoose), ratio(dLoose, dTight)})
	t.Notes = "tight coupling iterates storage-native tiles/vectors; loose coupling pays a full format conversion per call"
	return t, nil
}

// E8SearchlightSynopsis contrasts synopsis-guided CP search with the
// exhaustive baseline and sweeps synopsis resolution (ablation).
func E8SearchlightSynopsis(cfg Config) (Table, error) {
	t := Table{
		ID:     "E8",
		Title:  "Searchlight: synopsis+validate vs exhaustive CP search",
		Claim:  "§2.2: speculate on in-memory synopses, then validate candidates on the actual data",
		Header: []string{"mode", "block", "raw points read", "matches", "time(ms)"},
	}
	n := cfg.scale(60_000, 250_000)
	sig := mimic.Waveform(cfg.Seed, 3, 0, n, 125, false)
	q := searchlight.Query{
		WindowLen: 64,
		Constraints: []searchlight.Constraint{
			{Agg: "avg", Lo: -0.02, Hi: 0.02},
			{Agg: "max", Lo: -10, Hi: 1.4},
		},
	}
	start := time.Now()
	exMatches, exStats, err := searchlight.SearchExhaustive(sig, q)
	if err != nil {
		return t, err
	}
	exTime := time.Since(start)
	t.Rows = append(t.Rows, []string{"exhaustive", "-",
		fmt.Sprint(exStats.RawPointsRead), fmt.Sprint(len(exMatches)), ms(exTime)})
	for _, block := range []int{8, 32, 128} {
		syn, err := searchlight.BuildSynopsis(sig, block)
		if err != nil {
			return t, err
		}
		start := time.Now()
		matches, stats, err := searchlight.Search(sig, syn, q)
		if err != nil {
			return t, err
		}
		dur := time.Since(start)
		if len(matches) != len(exMatches) {
			return t, fmt.Errorf("synopsis changed result: %d vs %d", len(matches), len(exMatches))
		}
		t.Rows = append(t.Rows, []string{"synopsis", fmt.Sprint(block),
			fmt.Sprint(stats.RawPointsRead), fmt.Sprint(len(matches)), ms(dur)})
	}
	t.Notes = "identical matches in every mode; the synopsis trades a small index for most of the raw reads"
	return t, nil
}

// E9ScalaRPrefetch measures tile-fetch behaviour across a pan/zoom
// trace with and without prefetching.
func E9ScalaRPrefetch(cfg Config) (Table, error) {
	t := Table{
		ID:     "E9",
		Title:  "ScalaR: detail-on-demand browsing with prefetch",
		Claim:  "§1: prefetches data in anticipation of user movements for interactive response",
		Header: []string{"policy", "gestures", "cache hits", "misses", "avg gesture(ms)"},
	}
	mcfg := mimic.DefaultConfig()
	patients := int64(cfg.scale(32, 64))
	samples := int64(cfg.scale(2_048, 8_192))
	src, err := demoWaveformMap(cfg.Seed, patients, samples, mcfg.SampleRate)
	if err != nil {
		return t, err
	}
	// A pan-heavy session at the deepest level plus two zooms.
	var trace [][3]int
	trace = append(trace, [3]int{0, 0, 0}, [3]int{1, 0, 0}, [3]int{1, 1, 1})
	for x := 0; x < 8; x++ {
		trace = append(trace, [3]int{3, x, 4})
	}
	for y := 4; y >= 0; y-- {
		trace = append(trace, [3]int{3, 7, y})
	}
	for _, prefetch := range []bool{false, true} {
		b, err := scalar.NewBrowser(src, "v", 16, 4, 512)
		if err != nil {
			return t, err
		}
		b.Prefetch = prefetch
		// Measure only the interactive Fetch path; background prefetch
		// overlaps the user's think time between gestures (Quiesce).
		var elapsed time.Duration
		for _, step := range trace {
			start := time.Now()
			if _, err := b.Fetch(step[0], step[1], step[2]); err != nil {
				return t, err
			}
			elapsed += time.Since(start)
			b.Quiesce()
		}
		st := b.Stats()
		name := "no prefetch"
		if prefetch {
			name = "prefetch"
		}
		t.Rows = append(t.Rows, []string{name, fmt.Sprint(len(trace)),
			fmt.Sprint(st.CacheHits), fmt.Sprint(st.CacheMiss),
			ms(elapsed / time.Duration(len(trace)))})
	}
	t.Notes = "prefetching converts pans/zooms into cache hits; total work shifts off the interaction path"
	return t, nil
}

func demoWaveformMap(seed, patients, samples int64, rate int) (*arrayArray, error) {
	src, err := newArray("wf_map", patients, samples)
	if err != nil {
		return nil, err
	}
	for pid := int64(1); pid <= patients; pid++ {
		w := mimic.Waveform(seed, int(pid), 0, int(samples), rate, false)
		for i, v := range w {
			if err := src.Set([]int64{pid, int64(i)}, engine.Tuple{engine.NewFloat(v)}); err != nil {
				return nil, err
			}
		}
	}
	return src, nil
}

// E10EngineSpecialisation runs each query class on each engine — the
// "no single engine wins everywhere" grid that motivates the polystore.
func E10EngineSpecialisation(cfg Config) (Table, error) {
	t := Table{
		ID:     "E10",
		Title:  "engine specialisation grid (rows: query class; columns: engine)",
		Claim:  "§1.2: each workload class performs best on a specialised engine ('one size does not fit all')",
		Header: []string{"query class", "postgres(ms)", "scidb(ms)", "accumulo(ms)", "winner"},
	}
	mcfg := mimic.DefaultConfig()
	mcfg.Seed = cfg.Seed
	mcfg.Patients = cfg.scale(150, 400)
	sys, err := demo.Load(mcfg)
	if err != nil {
		return t, err
	}
	p := sys.Poly

	// Replicate the three core datasets onto all three engines.
	if _, err := p.Cast("patients", core.EngineSciDB, core.CastOptions{TargetName: "patients_arr"}); err != nil {
		return t, err
	}
	if _, err := p.Cast("patients", core.EngineAccumulo, core.CastOptions{TargetName: "patients_kv"}); err != nil {
		return t, err
	}
	if _, err := p.Cast("waveforms", core.EnginePostgres, core.CastOptions{TargetName: "wf_rel"}); err != nil {
		return t, err
	}
	if _, err := p.Cast("waveforms", core.EngineAccumulo, core.CastOptions{TargetName: "wf_kv"}); err != nil {
		return t, err
	}
	if _, err := p.Cast("notes", core.EnginePostgres, core.CastOptions{TargetName: "notes_rel"}); err != nil {
		return t, err
	}
	notesArr, err := p.Cast("notes", core.EngineSciDB, core.CastOptions{TargetName: "notes_arr_tmp"})
	// Notes cast to an array is text-heavy and not meaningful; treat as
	// unsupported, which is itself the point of islands exposing the
	// intersection of capabilities.
	notesOnArray := err == nil
	_ = notesArr

	// Each engine is measured warm: one untimed call first (so cold
	// caches and first-use setup do not pick the winner), then the
	// median of the timed calls.
	iters := cfg.scale(5, 11)
	timeQ := func(fn func() error) (time.Duration, error) {
		if err := fn(); err != nil {
			return 0, err
		}
		ds := make([]time.Duration, iters)
		for i := range ds {
			start := time.Now()
			if err := fn(); err != nil {
				return 0, err
			}
			ds[i] = time.Since(start)
		}
		slices.Sort(ds)
		return ds[iters/2], nil
	}
	query := func(q string) func() error {
		return func() error {
			_, err := p.Query(q)
			return err
		}
	}
	type row struct {
		class   string
		pg, arr func() error
		kv      func() error
	}
	rows := []row{
		{
			class: "selective lookup",
			pg:    query(`POSTGRES(SELECT * FROM patients WHERE id = 77)`),
			arr:   query(`SCIDB(filter(patients_arr, id = 77))`),
			kv:    query(`TEXT(get(patients_kv, '77'))`),
		},
		{
			class: "SQL aggregate",
			pg:    query(`POSTGRES(SELECT race, AVG(age) FROM patients GROUP BY race)`),
			arr:   query(`SCIDB(aggregate(patients_arr, avg(age)))`),
			kv: func() error {
				// KV must scan and fold client-side.
				rel, err := p.Query(`TEXT(scan(patients_kv))`)
				if err != nil {
					return err
				}
				sums := map[string]float64{}
				ns := map[string]int{}
				var lastRace string
				for _, tp := range rel.Tuples {
					if tp[2].S == "race" {
						lastRace = tp[4].S
					}
					if tp[2].S == "age" {
						sums[lastRace] += tp[4].AsFloat()
						ns[lastRace]++
					}
				}
				return nil
			},
		},
		{
			class: "windowed array math",
			pg: func() error {
				rel, err := p.Query(`POSTGRES(SELECT v FROM wf_rel WHERE patient = 1 ORDER BY t)`)
				if err != nil {
					return err
				}
				vals, err := rel.Floats("v")
				if err != nil {
					return err
				}
				_ = analytics.PowerSpectrum(vals)
				return nil
			},
			arr: func() error {
				a, err := p.ArrayStore.Get("waveforms")
				if err != nil {
					return err
				}
				sub, err := a.Subarray([]int64{1, 0}, []int64{1, int64(mcfg.SampleRate*mcfg.WaveformSeconds - 1)})
				if err != nil {
					return err
				}
				vals, err := sub.Scan().Floats("v")
				if err != nil {
					return err
				}
				_ = analytics.PowerSpectrum(vals)
				return nil
			},
			kv: func() error {
				rel, err := p.Query(`TEXT(scan(wf_kv, '1', '1'))`)
				if err != nil {
					return err
				}
				vals := make([]float64, 0, rel.Len())
				for _, tp := range rel.Tuples {
					if tp[2].S == "v" {
						vals = append(vals, tp[4].AsFloat())
					}
				}
				_ = analytics.PowerSpectrum(vals)
				return nil
			},
		},
		{
			class: "text search",
			pg:    query(`POSTGRES(SELECT row, COUNT(*) FROM notes_rel WHERE value LIKE '%very sick%' GROUP BY row HAVING COUNT(*) >= 3)`),
			arr: func() error {
				if !notesOnArray {
					return nil
				}
				return nil // arrays cannot express text search; island refuses
			},
			kv: query(`TEXT(search(notes, 'very sick', 3))`),
		},
	}
	for _, r := range rows {
		dp, err := timeQ(r.pg)
		if err != nil {
			return t, fmt.Errorf("%s/postgres: %w", r.class, err)
		}
		da, err := timeQ(r.arr)
		if err != nil {
			return t, fmt.Errorf("%s/scidb: %w", r.class, err)
		}
		dk, err := timeQ(r.kv)
		if err != nil {
			return t, fmt.Errorf("%s/accumulo: %w", r.class, err)
		}
		arrCell := ms(da)
		if r.class == "text search" {
			arrCell = "n/a"
		}
		winner := "postgres"
		best := dp
		if da < best && r.class != "text search" {
			winner, best = "scidb", da
		}
		if dk < best {
			winner = "accumulo"
		}
		t.Rows = append(t.Rows, []string{r.class, ms(dp), arrCell, ms(dk), winner})
	}
	// Specialisation also applies inside one engine: the relational
	// island's vectorized columnar executor vs its row-at-a-time
	// fallback on the same aggregate plan.
	aggQ := query(`POSTGRES(SELECT race, AVG(age) FROM patients GROUP BY race)`)
	dVec, err := timeQ(aggQ)
	if err != nil {
		return t, err
	}
	p.Relational.SetVectorized(false)
	dRow, err := timeQ(aggQ)
	p.Relational.SetVectorized(true)
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows, []string{"SQL aggregate (row executor)", ms(dRow), "n/a", "n/a",
		"vectorized " + ratio(dRow, dVec) + " faster"})
	t.Notes = "the winner changes per class — the motivating observation for islands of information"
	return t, nil
}

// newArray builds a dense patient×time array (shared by E9).
func newArray(name string, patients, samples int64) (*arrayArray, error) {
	return arrayNew(name, patients, samples)
}
