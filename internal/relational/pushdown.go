package relational

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/engine"
)

// DumpBatchWhere is the predicate- and projection-aware CAST egress
// path: it exports the named table in columnar form like DumpBatch, but
// applies a filter predicate (SQL expression text over the table's own
// columns) and a column projection *before* the data leaves the engine,
// so a selective cross-island CAST moves only the rows and columns the
// consuming island will actually touch.
//
// The predicate runs through the same vectorized filter kernels the
// SELECT hot path uses when it compiles (and the vectorized executor is
// on); otherwise it falls back to the interpreted row evaluator, so the
// two executors stay interchangeable. scanned reports how many live
// rows were examined, for CastResult.RowsScanned accounting.
//
// With an empty predicate and nil columns this is exactly DumpBatch:
// the table's immutable column-cache snapshot, zero copies. applied
// reports whether any filtering or non-identity projection actually
// ran (a projection naming every column in schema order is a no-op).
func (db *DB) DumpBatchWhere(name, predicate string, columns []string) (cb *engine.ColumnBatch, scanned int, applied bool, err error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, err := db.table(name)
	if err != nil {
		return nil, 0, false, err
	}
	base := t.columnBatch()
	scanned = base.NumRows
	db.stats.rowsScanned.Add(int64(scanned))

	var sel []int32
	filtered := false
	if predicate != "" {
		e, err := ParseExpression(predicate)
		if err != nil {
			return nil, scanned, false, fmt.Errorf("relational: pushdown predicate: %w", err)
		}
		if hasAggregate(e) {
			return nil, scanned, false, fmt.Errorf("relational: pushdown predicate cannot contain aggregates")
		}
		if sel, err = filterBatch(base, e, baseRowSchema(t.Name, t.Schema), db.vectorized, &db.stats.fallbacks[fallbackFilter]); err != nil {
			return nil, scanned, false, err
		}
		filtered = true
	}

	proj, err := projectionIndexes(t.Schema, columns)
	if err != nil {
		return nil, scanned, false, err
	}
	if !filtered && proj == nil {
		return base, scanned, false, nil
	}

	srcIdx := proj
	if srcIdx == nil {
		srcIdx = make([]int, len(base.Cols))
		for j := range srcIdx {
			srcIdx[j] = j
		}
	}
	cols := make([]engine.Column, len(srcIdx))
	for k, j := range srcIdx {
		cols[k] = t.Schema.Columns[j]
	}
	out := &engine.ColumnBatch{
		Schema: engine.Schema{Columns: cols},
		Cols:   make([]engine.ColVec, len(srcIdx)),
	}
	if filtered {
		out.NumRows = len(sel)
		for k, j := range srcIdx {
			out.Cols[k] = gatherVec(&base.Cols[j], sel)
		}
	} else {
		// Projection only: share the immutable cached vectors.
		out.NumRows = base.NumRows
		for k, j := range srcIdx {
			out.Cols[k] = base.Cols[j]
		}
	}
	return out, scanned, true, nil
}

// projectionIndexes resolves a projection column list against the
// schema, returning nil when the projection is absent (or names every
// column in schema order, in which case it is a no-op).
func projectionIndexes(schema engine.Schema, columns []string) ([]int, error) {
	if len(columns) == 0 {
		return nil, nil
	}
	idx := make([]int, len(columns))
	identity := len(columns) == len(schema.Columns)
	for k, name := range columns {
		j := schema.Index(name)
		if j < 0 {
			return nil, fmt.Errorf("relational: pushdown projection: no column %q", name)
		}
		idx[k] = j
		if j != k {
			identity = false
		}
	}
	if identity {
		return nil, nil
	}
	return idx, nil
}

// FilterBatch evaluates a boolean predicate over every row of cb and
// returns the indexes of the rows where it is TRUE, ascending. Column
// references resolve, unqualified, against cb.Schema. It is the filter
// DumpBatchWhere runs, exported so other engines (array cells) share
// it: the filter kernels when the predicate compiles to them, the
// interpreted row evaluator otherwise, with the same answer either way.
// Columns the predicate does not name are never read, so a caller may
// leave them empty (zero rows) rather than build them.
func FilterBatch(cb *engine.ColumnBatch, e Expr) ([]int32, error) {
	if hasAggregate(e) {
		return nil, fmt.Errorf("relational: aggregates not allowed in row expressions")
	}
	return filterBatch(cb, e, baseRowSchema("", cb.Schema), true, nil)
}

// filterBatch is FilterBatch over an explicit row schema: the filter
// kernels when vectorized is set and e compiles, else the row evaluator
// (vectorized false is the executor's oracle mode). A vectorized
// request that takes the row evaluator counts in fallbacks, if set.
func filterBatch(cb *engine.ColumnBatch, e Expr, rs rowSchema, vectorized bool, fallbacks *atomic.Int64) ([]int32, error) {
	if vectorized {
		vc := &vecCompiler{views: batchViews(cb, nil), rs: rs}
		if f, ok := vc.compileFilter(e); ok {
			return runFilter(f, identitySel(cb.NumRows))
		}
		if fallbacks != nil {
			fallbacks.Add(1)
		}
	}
	ev, err := compileExpr(e, rs, nil)
	if err != nil {
		return nil, err
	}
	// Box only the columns the predicate reads.
	var used []int
	WalkColumnRefs(e, func(ref ColumnRef) {
		if j, err := rs.resolve(ref.Table, ref.Name); err == nil && !slices.Contains(used, j) {
			used = append(used, j)
		}
	})
	row := make(engine.Tuple, len(cb.Cols))
	sel := make([]int32, 0, cb.NumRows)
	for i := 0; i < cb.NumRows; i++ {
		for _, j := range used {
			row[j] = cb.Cols[j].Value(i)
		}
		v, err := ev(row)
		if err != nil {
			return nil, err
		}
		if !v.IsNull() && v.AsBool() {
			sel = append(sel, int32(i))
		}
	}
	return sel, nil
}

// gatherVec copies src at the given rows.
func gatherVec(src *engine.ColVec, rows []int32) engine.ColVec {
	out := engine.ColVec{Kind: src.Kind}
	switch src.Kind {
	case engine.TypeInt:
		out.Ints = make([]int64, len(rows))
		gatherTyped(out.Ints, src.Ints, rows, nil)
	case engine.TypeFloat:
		out.Floats = make([]float64, len(rows))
		gatherTyped(out.Floats, src.Floats, rows, nil)
	case engine.TypeString:
		out.Strs = make([]string, len(rows))
		gatherTyped(out.Strs, src.Strs, rows, nil)
	case engine.TypeBool:
		out.Bools = make([]bool, len(rows))
		gatherTyped(out.Bools, src.Bools, rows, nil)
	default:
		out.Any = make([]engine.Value, len(rows))
		gatherTyped(out.Any, src.Any, rows, nil)
		return out
	}
	if len(src.Nulls) > 0 {
		for k, r := range rows {
			if src.Nulls.Get(int(r)) {
				out.Nulls.Set(k)
			}
		}
	}
	return out
}
