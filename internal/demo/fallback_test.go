package demo

import (
	"context"
	"testing"

	"repro/internal/relational"
)

// TestMimicShapesStayVectorized runs the MIMIC II relational query
// shapes the benchmark drives — the GROUP BY and both joins, the two
// reads beside the writer, and the GROUP BY over a waveforms CAST — and
// requires that none of them drops a stage of the vectorized executor to
// the row path (relational.fallback.<stage> in the metrics registry).
func TestMimicShapesStayVectorized(t *testing.T) {
	sys := smallSystem(t)
	p := sys.Poly
	queries := []string{
		`RELATIONAL(SELECT test, COUNT(*) AS n, AVG(value) AS mean FROM labs WHERE value > 3.00 GROUP BY test)`,
		`RELATIONAL(SELECT p.race, COUNT(*) AS n, AVG(l.value) AS mean FROM labs l JOIN patients p ON l.patient_id = p.id WHERE l.test = 'sodium' GROUP BY p.race)`,
		`RELATIONAL(SELECT x.drug, COUNT(*) AS n, AVG(p.age) AS age FROM prescriptions x JOIN patients p ON x.patient_id = p.id WHERE p.age > 45 GROUP BY x.drug)`,
		`RELATIONAL(SELECT test, COUNT(*) AS n, AVG(value) AS mean FROM labs WHERE lab_id < 10000000 AND value > 3.00 GROUP BY test)`,
		`RELATIONAL(SELECT p.race, COUNT(*) AS n, AVG(l.value) AS mean FROM labs l JOIN patients p ON l.patient_id = p.id WHERE l.lab_id < 10000000 AND l.test = 'sodium' GROUP BY p.race)`,
		`RELATIONAL(SELECT patient, COUNT(*) AS n, MAX(v) AS peak FROM CAST(waveforms, relation) WHERE v > 1.000 GROUP BY patient)`,
	}
	fallbacks := func() map[string]int64 {
		snap := p.Metrics.Snapshot()
		out := map[string]int64{}
		for _, stage := range relational.FallbackStages {
			v, ok := snap["relational.fallback."+stage].(int64)
			if !ok {
				t.Fatalf("metric relational.fallback.%s missing from the registry", stage)
			}
			out[stage] = v
		}
		return out
	}
	before := fallbacks()
	for _, q := range queries {
		rel, err := p.QueryCtx(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if rel.Len() == 0 {
			t.Fatalf("%s: no rows", q)
		}
		for stage, n := range fallbacks() {
			if n != before[stage] {
				t.Errorf("%s: %d %s-stage fallbacks to the row path", q, n-before[stage], stage)
			}
		}
		before = fallbacks()
	}
	// The counters do count: ORDER BY projection still runs on rows.
	if _, err := p.QueryCtx(context.Background(), `RELATIONAL(SELECT id FROM patients ORDER BY id)`); err != nil {
		t.Fatal(err)
	}
	if n := fallbacks()["project"]; n != before["project"]+1 {
		t.Errorf("ORDER BY projection counted %d project fallbacks, want 1", n-before["project"])
	}
}
