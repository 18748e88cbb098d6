package main

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/engine"
)

// sameRelation compares an answer with its reference as a multiset of
// rows: row order is not part of any benchmarked query's contract, and
// float aggregates may be summed in a different order (parallel chunks,
// per-shard partial sums), so floats agree to a relative 1e-9.
func sameRelation(want, got *engine.Relation) error {
	if want == nil || got == nil {
		return fmt.Errorf("missing relation (want %v, got %v)", want != nil, got != nil)
	}
	if len(want.Schema.Columns) != len(got.Schema.Columns) {
		return fmt.Errorf("schema has %d columns, want %d", len(got.Schema.Columns), len(want.Schema.Columns))
	}
	for i, c := range want.Schema.Columns {
		if got.Schema.Columns[i].Name != c.Name {
			return fmt.Errorf("column %d is %q, want %q", i, got.Schema.Columns[i].Name, c.Name)
		}
	}
	if got.Len() != want.Len() {
		return fmt.Errorf("%d rows, want %d", got.Len(), want.Len())
	}
	w, g := sortedRows(want), sortedRows(got)
	for i := range w {
		for j := range w[i] {
			if !sameValue(w[i][j], g[i][j]) {
				return fmt.Errorf("row %d column %d is %v, want %v", i, j, g[i][j], w[i][j])
			}
		}
	}
	return nil
}

func sortedRows(r *engine.Relation) []engine.Tuple {
	rows := append([]engine.Tuple(nil), r.Tuples...)
	sort.SliceStable(rows, func(a, b int) bool {
		for c := range rows[a] {
			if cmp := engine.Compare(rows[a][c], rows[b][c]); cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
	return rows
}

func sameValue(a, b engine.Value) bool {
	if a.Kind == engine.TypeFloat && b.Kind == engine.TypeFloat {
		if a.F == b.F || (math.IsNaN(a.F) && math.IsNaN(b.F)) {
			return true
		}
		return math.Abs(a.F-b.F) <= 1e-9*math.Max(math.Abs(a.F), math.Abs(b.F))
	}
	return engine.Compare(a, b) == 0 && a.Kind == b.Kind
}

// relationCheck accepts the answers sameRelation finds equal to want.
func relationCheck(want *engine.Relation) func(*engine.Relation) error {
	return func(got *engine.Relation) error { return sameRelation(want, got) }
}

// statusCheck accepts the status relation a DML statement answers with
// when it reports n affected rows.
func statusCheck(n int64) func(*engine.Relation) error {
	return func(r *engine.Relation) error {
		if r == nil || r.Len() != 1 || len(r.Tuples[0]) < 2 {
			return fmt.Errorf("malformed status relation")
		}
		if got := r.Tuples[0][1].AsInt(); got != n {
			return fmt.Errorf("%d rows affected, want %d", got, n)
		}
		return nil
	}
}
