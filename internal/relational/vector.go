package relational

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"

	"repro/internal/engine"
)

// Vectorized executor kernels. The row-at-a-time executor in exec.go
// interprets one compiled closure tree per row; the kernels here compile
// the same Expr tree once into batch operators that run tight typed
// loops over column vectors, driven by a selection vector (indices of
// the surviving rows). Plans the compiler cannot express — scalar
// function calls, mixed-type (generic) columns, exotic comparisons —
// report !ok and the executor falls back to the row path (counted per
// stage in EngineStats.Fallbacks), so vectorization is always a pure
// optimisation, never a semantics change.
//
// Working set. A vectorized working set is a list of column views
// (colView): a column of a table's cached column batch, read either
// directly (base scans) or through a row vector (join results, where a
// -1 row is a LEFT JOIN's NULL padding). A join therefore copies no
// column data: later stages read the columns they name through the row
// vectors, and only the row fallback boxes every column.
//
// Filters. WHERE predicates compile through compileFilter into filter
// kernels that narrow a selection vector in place: `column op literal`
// and `column op column` compares read the column where it lies and
// append the passing rows, and AND narrows step by step (its right side
// sees only the rows its left side kept — the short circuit). Every
// other predicate shape (OR, NOT, IN, BETWEEN, LIKE, IS NULL, compares
// over expressions or join views) runs a value kernel into a bool
// vector and keeps the TRUE rows. Value kernels take their temporaries
// from a per-query scratch and run over chunks of vecChunk rows, so
// after the first chunk nothing allocates. An AND whose right side can
// raise an error (division, modulo, function calls) keeps the value
// kernel, which, like the row path, evaluates the right side over the
// rows the left side left TRUE or NULL.
//
// Pushdown. ExecuteSelect filters below the joins: the AND-conjuncts of
// WHERE that name only the FROM table filter it before the first join,
// and those that name only an INNER-joined table filter that join's
// build side. A conjunct moves only when no conjunct of the WHERE can
// raise an error and when every column it names resolves to the same
// column in the joined schema (a name a later table shares stays
// ambiguous and errors as on the row path); conjuncts on the right side
// of a LEFT JOIN never move.
//
// Join. vecHashJoin builds one head entry per key plus a next-row chain
// over the (filtered) build side — no per-key slices — and probes in
// selection order, emitting (left row, right row) pairs with build rows
// ascending, the row path's order.
//
// Group. groupAccumVec assigns dense group ids in first-appearance
// order, chunk by chunk. A single string key column with a snapshot
// dictionary (low-cardinality columns, built on the snapshot's first
// grouping: colSnapshot.dict) maps rows to groups through the
// dictionary codes, read straight from the base column through the
// selection; other keys are evaluated into chunk vectors and hashed.
// Aggregates fold each chunk into flat typed per-group accumulators and
// box once per group.

// parallelScanRows is the selection size at which filters partition
// across workers (worker-per-range, compacted in order at the end).
const parallelScanRows = 1 << 15

// vecChunk is the number of selected rows a value kernel evaluates at a
// time; scratch vectors are this long, stay cache-resident and are
// reused from chunk to chunk.
const vecChunk = 1024

// vec is one intermediate result vector, dense over the current
// selection: entry k holds the value for row sel[k]. null[k] marks SQL
// NULL (three-valued logic propagates it through every kernel).
type vec struct {
	kind   engine.Type
	ints   []int64
	floats []float64
	strs   []string
	bools  []bool
	null   []bool
}

// reset prepares the vector for n results of the given kind, reusing
// its buffers. null and bools are zeroed (the short-circuiting AND
// kernel relies on skipped rows reading false); ints/floats/strs come
// back dirty, so a kernel must write every non-NULL entry of those.
func (v *vec) reset(kind engine.Type, n int) {
	v.kind = kind
	v.null = resize(v.null, n)
	clear(v.null)
	switch kind {
	case engine.TypeInt:
		v.ints = resize(v.ints, n)
	case engine.TypeFloat:
		v.floats = resize(v.floats, n)
	case engine.TypeString:
		v.strs = resize(v.strs, n)
	case engine.TypeBool:
		v.bools = resize(v.bools, n)
		clear(v.bools)
	}
}

// resize returns s with length n, reallocating only when it is too
// short. Kernels see at most vecChunk rows at a time, so a fresh buffer
// takes that capacity at once rather than growing chunk by chunk as
// narrowed selections vary in length.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, max(n, vecChunk))
	}
	return s[:n]
}

// valueAt boxes entry k.
func (v *vec) valueAt(k int) engine.Value {
	if v.null[k] {
		return engine.Null
	}
	switch v.kind {
	case engine.TypeInt:
		return engine.NewInt(v.ints[k])
	case engine.TypeFloat:
		return engine.NewFloat(v.floats[k])
	case engine.TypeString:
		return engine.NewString(v.strs[k])
	default:
		return engine.NewBool(v.bools[k])
	}
}

// floatAt reads entry k as float64; valid for numeric vecs only.
func (v *vec) floatAt(k int) float64 {
	if v.kind == engine.TypeInt {
		return float64(v.ints[k])
	}
	return v.floats[k]
}

// appendGroupKey appends a canonical byte encoding of entry k, used to
// build composite GROUP BY hash keys without boxing.
func (v *vec) appendGroupKey(buf []byte, k int) []byte {
	if v.null[k] {
		return append(buf, 0)
	}
	switch v.kind {
	case engine.TypeInt:
		buf = append(buf, 1)
		return binary.AppendVarint(buf, v.ints[k])
	case engine.TypeFloat:
		buf = append(buf, 2)
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.floats[k]))
	case engine.TypeString:
		buf = append(buf, 3)
		buf = binary.AppendUvarint(buf, uint64(len(v.strs[k])))
		return append(buf, v.strs[k]...)
	default:
		if v.bools[k] {
			return append(buf, 5)
		}
		return append(buf, 4)
	}
}

// scratch holds the temporaries of one evaluation stream (one query, or
// one worker of a partitioned filter): vectors and selection buffers
// that kernels take and give back stack-wise, keeping their capacity,
// so a kernel tree allocates on its first chunk and never again.
type scratch struct {
	vecs []*vec
	sels [][]int32
}

func (sc *scratch) getVec() *vec {
	if n := len(sc.vecs); n > 0 {
		v := sc.vecs[n-1]
		sc.vecs = sc.vecs[:n-1]
		return v
	}
	return &vec{}
}

func (sc *scratch) putVec(v *vec) { sc.vecs = append(sc.vecs, v) }

// getSel returns an empty selection buffer with room for n rows.
func (sc *scratch) getSel(n int) []int32 {
	if k := len(sc.sels); k > 0 {
		s := sc.sels[k-1]
		sc.sels = sc.sels[:k-1]
		if cap(s) >= n {
			return s[:0]
		}
	}
	return make([]int32, 0, max(n, vecChunk))
}

func (sc *scratch) putSel(s []int32) { sc.sels = append(sc.sels, s) }

// colView is one column of a vectorized working set. Working-set row i
// reads src at row i when rows is nil, else at rows[i]; a negative
// rows entry is a LEFT JOIN's NULL padding. snap and col name the
// table snapshot column src is (nil snap for batches that are not a
// table's cache), for its dictionary.
type colView struct {
	src  *engine.ColVec
	rows []int32
	snap *colSnapshot
	col  int
}

// at maps working-set row i to its src row (-1: NULL padding).
func (v *colView) at(i int32) int32 {
	if v.rows == nil {
		return i
	}
	return v.rows[i]
}

// value boxes working-set row i.
func (v *colView) value(i int32) engine.Value {
	r := v.at(i)
	if r < 0 {
		return engine.Null
	}
	return v.src.Value(int(r))
}

// batchViews views every column of b directly.
func batchViews(b *engine.ColumnBatch, snap *colSnapshot) []colView {
	views := make([]colView, len(b.Cols))
	for j := range b.Cols {
		views[j] = colView{src: &b.Cols[j], snap: snap, col: j}
	}
	return views
}

// vecExpr is a compiled vectorized expression: a statically known result
// kind plus an evaluator. Evaluators are reentrant (no captured mutable
// state; temporaries come from the scratch passed in) so partitioned
// filters may share one compiled tree across workers.
type vecExpr struct {
	kind engine.Type
	eval func(sel []int32, out *vec, sc *scratch) error
}

// vecCompiler compiles Expr trees against one working set.
type vecCompiler struct {
	views []colView
	rs    rowSchema
}

func isNumericKind(t engine.Type) bool { return t == engine.TypeInt || t == engine.TypeFloat }

func comparableKinds(a, b engine.Type) bool {
	if isNumericKind(a) && isNumericKind(b) {
		return true
	}
	return a == engine.TypeString && b == engine.TypeString
}

// compile returns the vectorized form of e, or ok=false when e (or a
// subexpression) is outside the vectorizable subset.
func (vc *vecCompiler) compile(e Expr) (vecExpr, bool) {
	switch ex := e.(type) {
	case Literal:
		return vc.compileLiteral(ex.Val)
	case ColumnRef:
		idx, ok := vc.resolve(ex)
		if !ok {
			return vecExpr{}, false
		}
		return vc.compileColumn(idx)
	case UnaryExpr:
		inner, ok := vc.compile(ex.Expr)
		if !ok {
			return vecExpr{}, false
		}
		switch ex.Op {
		case "-":
			if !isNumericKind(inner.kind) {
				return vecExpr{}, false
			}
			kind := inner.kind
			return vecExpr{kind: kind, eval: func(sel []int32, out *vec, sc *scratch) error {
				in := sc.getVec()
				defer sc.putVec(in)
				if err := inner.eval(sel, in, sc); err != nil {
					return err
				}
				out.reset(kind, len(sel))
				copy(out.null, in.null)
				if kind == engine.TypeInt {
					for k := range in.ints {
						out.ints[k] = -in.ints[k]
					}
				} else {
					for k := range in.floats {
						out.floats[k] = -in.floats[k]
					}
				}
				return nil
			}}, true
		case "NOT":
			if inner.kind != engine.TypeBool {
				return vecExpr{}, false
			}
			return vecExpr{kind: engine.TypeBool, eval: func(sel []int32, out *vec, sc *scratch) error {
				in := sc.getVec()
				defer sc.putVec(in)
				if err := inner.eval(sel, in, sc); err != nil {
					return err
				}
				out.reset(engine.TypeBool, len(sel))
				copy(out.null, in.null)
				for k := range in.bools {
					out.bools[k] = !in.bools[k]
				}
				return nil
			}}, true
		default:
			return vecExpr{}, false
		}
	case BinaryExpr:
		return vc.compileBinary(ex)
	case IsNullExpr:
		inner, ok := vc.compile(ex.Expr)
		if !ok {
			return vecExpr{}, false
		}
		not := ex.Not
		return vecExpr{kind: engine.TypeBool, eval: func(sel []int32, out *vec, sc *scratch) error {
			in := sc.getVec()
			defer sc.putVec(in)
			if err := inner.eval(sel, in, sc); err != nil {
				return err
			}
			out.reset(engine.TypeBool, len(sel))
			for k := range in.null {
				out.bools[k] = in.null[k] != not
			}
			return nil
		}}, true
	case BetweenExpr:
		return vc.compileBetween(ex)
	case InExpr:
		return vc.compileIn(ex)
	default:
		// FuncCall (scalar and aggregate) and anything unknown: row path.
		return vecExpr{}, false
	}
}

// resolve finds the working-set column a reference names.
func (vc *vecCompiler) resolve(ref ColumnRef) (int, bool) {
	idx, err := vc.rs.resolve(ref.Table, ref.Name)
	return idx, err == nil && idx < len(vc.views)
}

func (vc *vecCompiler) compileLiteral(v engine.Value) (vecExpr, bool) {
	kind := v.Kind
	switch kind {
	case engine.TypeInt, engine.TypeFloat, engine.TypeString, engine.TypeBool:
	default:
		return vecExpr{}, false
	}
	return vecExpr{kind: kind, eval: func(sel []int32, out *vec, _ *scratch) error {
		out.reset(kind, len(sel))
		switch kind {
		case engine.TypeInt:
			fill(out.ints, v.I)
		case engine.TypeFloat:
			fill(out.floats, v.F)
		case engine.TypeString:
			fill(out.strs, v.S)
		case engine.TypeBool:
			fill(out.bools, v.B)
		}
		return nil
	}}, true
}

func fill[T any](dst []T, v T) {
	for k := range dst {
		dst[k] = v
	}
}

// compileColumn reads working-set column idx through its view.
func (vc *vecCompiler) compileColumn(idx int) (vecExpr, bool) {
	view := vc.views[idx]
	src := view.src
	kind := src.Kind
	if kind == engine.TypeNull {
		return vecExpr{}, false // generic column: row path
	}
	rows, nulls := view.rows, src.Nulls
	return vecExpr{kind: kind, eval: func(sel []int32, out *vec, _ *scratch) error {
		out.reset(kind, len(sel))
		switch kind {
		case engine.TypeInt:
			gatherTyped(out.ints, src.Ints, sel, rows)
		case engine.TypeFloat:
			gatherTyped(out.floats, src.Floats, sel, rows)
		case engine.TypeString:
			gatherTyped(out.strs, src.Strs, sel, rows)
		case engine.TypeBool:
			gatherTyped(out.bools, src.Bools, sel, rows)
		}
		switch {
		case rows != nil:
			for k, i := range sel {
				r := rows[i]
				out.null[k] = r < 0 || nulls.Get(int(r))
			}
		case len(nulls) > 0:
			for k, i := range sel {
				out.null[k] = nulls.Get(int(i))
			}
		}
		return nil
	}}, true
}

// gatherTyped copies src at the selected rows, through rows when it is
// set (padding rows, rows[i] < 0, are left for the caller's NULL mark).
func gatherTyped[T any](dst, src []T, sel, rows []int32) {
	if rows == nil {
		for k, i := range sel {
			dst[k] = src[i]
		}
		return
	}
	for k, i := range sel {
		if r := rows[i]; r >= 0 {
			dst[k] = src[r]
		}
	}
}

func (vc *vecCompiler) compileBinary(ex BinaryExpr) (vecExpr, bool) {
	op := ex.Op
	switch op {
	case "AND", "OR":
		l, ok := vc.compile(ex.Left)
		if !ok || l.kind != engine.TypeBool {
			return vecExpr{}, false
		}
		r, ok := vc.compile(ex.Right)
		if !ok || r.kind != engine.TypeBool {
			return vecExpr{}, false
		}
		isAnd := op == "AND"
		// Like the row path, the right operand is short-circuited: it is
		// evaluated only over the rows the left side does not decide
		// (left true-or-null for AND, false-or-null for OR). This keeps
		// guarded expressions — `d <> 0 AND 10 / d > 1` — from erroring
		// on rows the guard excludes.
		return vecExpr{kind: engine.TypeBool, eval: func(sel []int32, out *vec, sc *scratch) error {
			lv := sc.getVec()
			defer sc.putVec(lv)
			if err := l.eval(sel, lv, sc); err != nil {
				return err
			}
			sub, subPos := sc.getSel(len(sel)), sc.getSel(len(sel))
			defer func() { sc.putSel(sub); sc.putSel(subPos) }()
			for k := range sel {
				lb, ln := lv.bools[k], lv.null[k]
				var need bool
				if isAnd {
					need = ln || lb
				} else {
					need = ln || !lb
				}
				if need {
					sub = append(sub, sel[k])
					subPos = append(subPos, int32(k))
				}
			}
			out.reset(engine.TypeBool, len(sel))
			if !isAnd {
				// Rows decided by the left side alone: left-true ORs.
				for k := range sel {
					out.bools[k] = !lv.null[k] && lv.bools[k]
				}
			}
			// (For AND, left-false rows keep the zeroed false.)
			if len(sub) == 0 {
				return nil
			}
			rv := sc.getVec()
			defer sc.putVec(rv)
			if err := r.eval(sub, rv, sc); err != nil {
				return err
			}
			for m, k := range subPos {
				ln := lv.null[k]
				rb, rn := rv.bools[m], rv.null[m]
				if isAnd {
					switch {
					case !rn && !rb:
						out.bools[k] = false
						out.null[k] = false
					case ln || rn:
						out.bools[k] = false
						out.null[k] = true
					default:
						out.bools[k] = true
					}
				} else {
					switch {
					case !rn && rb:
						out.bools[k] = true
						out.null[k] = false
					case ln || rn:
						out.bools[k] = false
						out.null[k] = true
					default:
						out.bools[k] = false
					}
				}
			}
			return nil
		}}, true
	case "=", "<>", "<", "<=", ">", ">=":
		l, ok := vc.compile(ex.Left)
		if !ok {
			return vecExpr{}, false
		}
		r, ok := vc.compile(ex.Right)
		if !ok || !comparableKinds(l.kind, r.kind) {
			return vecExpr{}, false
		}
		cop := cmpOps[op]
		return vecExpr{kind: engine.TypeBool, eval: func(sel []int32, out *vec, sc *scratch) error {
			lv, rv := sc.getVec(), sc.getVec()
			defer func() { sc.putVec(lv); sc.putVec(rv) }()
			if err := l.eval(sel, lv, sc); err != nil {
				return err
			}
			if err := r.eval(sel, rv, sc); err != nil {
				return err
			}
			out.reset(engine.TypeBool, len(sel))
			switch {
			case lv.kind == engine.TypeInt && rv.kind == engine.TypeInt:
				for k := range out.bools {
					if lv.null[k] || rv.null[k] {
						out.null[k] = true
						continue
					}
					out.bools[k] = cop.holds(cmp.Compare(lv.ints[k], rv.ints[k]))
				}
			case lv.kind == engine.TypeString:
				for k := range out.bools {
					if lv.null[k] || rv.null[k] {
						out.null[k] = true
						continue
					}
					out.bools[k] = cop.holds(strings.Compare(lv.strs[k], rv.strs[k]))
				}
			default:
				for k := range out.bools {
					if lv.null[k] || rv.null[k] {
						out.null[k] = true
						continue
					}
					out.bools[k] = cop.holds(cmp.Compare(lv.floatAt(k), rv.floatAt(k)))
				}
			}
			return nil
		}}, true
	case "+", "-", "*", "/", "%":
		l, ok := vc.compile(ex.Left)
		if !ok || !isNumericKind(l.kind) {
			return vecExpr{}, false
		}
		r, ok := vc.compile(ex.Right)
		if !ok || !isNumericKind(r.kind) {
			return vecExpr{}, false
		}
		bothInt := l.kind == engine.TypeInt && r.kind == engine.TypeInt
		kind := engine.TypeFloat
		if bothInt {
			kind = engine.TypeInt
		}
		return vecExpr{kind: kind, eval: func(sel []int32, out *vec, sc *scratch) error {
			lv, rv := sc.getVec(), sc.getVec()
			defer func() { sc.putVec(lv); sc.putVec(rv) }()
			if err := l.eval(sel, lv, sc); err != nil {
				return err
			}
			if err := r.eval(sel, rv, sc); err != nil {
				return err
			}
			out.reset(kind, len(sel))
			if bothInt {
				for k := range out.ints {
					if lv.null[k] || rv.null[k] {
						out.null[k] = true
						continue
					}
					a, b := lv.ints[k], rv.ints[k]
					switch op {
					case "+":
						out.ints[k] = a + b
					case "-":
						out.ints[k] = a - b
					case "*":
						out.ints[k] = a * b
					case "/":
						if b == 0 {
							return fmt.Errorf("relational: division by zero")
						}
						out.ints[k] = a / b
					case "%":
						if b == 0 {
							return fmt.Errorf("relational: modulo by zero")
						}
						out.ints[k] = a % b
					}
				}
				return nil
			}
			for k := range out.floats {
				if lv.null[k] || rv.null[k] {
					out.null[k] = true
					continue
				}
				a, b := lv.floatAt(k), rv.floatAt(k)
				switch op {
				case "+":
					out.floats[k] = a + b
				case "-":
					out.floats[k] = a - b
				case "*":
					out.floats[k] = a * b
				case "/":
					if b == 0 {
						return fmt.Errorf("relational: division by zero")
					}
					out.floats[k] = a / b
				case "%":
					out.floats[k] = math.Mod(a, b)
				}
			}
			return nil
		}}, true
	case "LIKE":
		l, ok := vc.compile(ex.Left)
		if !ok || l.kind != engine.TypeString {
			return vecExpr{}, false
		}
		// The common shape is a literal pattern: lower it once.
		if lit, isLit := ex.Right.(Literal); isLit && lit.Val.Kind == engine.TypeString {
			pattern := strings.ToLower(lit.Val.S)
			return vecExpr{kind: engine.TypeBool, eval: func(sel []int32, out *vec, sc *scratch) error {
				lv := sc.getVec()
				defer sc.putVec(lv)
				if err := l.eval(sel, lv, sc); err != nil {
					return err
				}
				out.reset(engine.TypeBool, len(sel))
				for k := range out.bools {
					if lv.null[k] {
						out.null[k] = true
						continue
					}
					out.bools[k] = likeIter(strings.ToLower(lv.strs[k]), pattern)
				}
				return nil
			}}, true
		}
		r, ok := vc.compile(ex.Right)
		if !ok || r.kind != engine.TypeString {
			return vecExpr{}, false
		}
		return vecExpr{kind: engine.TypeBool, eval: func(sel []int32, out *vec, sc *scratch) error {
			lv, rv := sc.getVec(), sc.getVec()
			defer func() { sc.putVec(lv); sc.putVec(rv) }()
			if err := l.eval(sel, lv, sc); err != nil {
				return err
			}
			if err := r.eval(sel, rv, sc); err != nil {
				return err
			}
			out.reset(engine.TypeBool, len(sel))
			for k := range out.bools {
				if lv.null[k] || rv.null[k] {
					out.null[k] = true
					continue
				}
				out.bools[k] = likeMatch(lv.strs[k], rv.strs[k])
			}
			return nil
		}}, true
	case "||":
		l, ok := vc.compile(ex.Left)
		if !ok || l.kind != engine.TypeString {
			return vecExpr{}, false
		}
		r, ok := vc.compile(ex.Right)
		if !ok || r.kind != engine.TypeString {
			return vecExpr{}, false
		}
		return vecExpr{kind: engine.TypeString, eval: func(sel []int32, out *vec, sc *scratch) error {
			lv, rv := sc.getVec(), sc.getVec()
			defer func() { sc.putVec(lv); sc.putVec(rv) }()
			if err := l.eval(sel, lv, sc); err != nil {
				return err
			}
			if err := r.eval(sel, rv, sc); err != nil {
				return err
			}
			out.reset(engine.TypeString, len(sel))
			for k := range out.strs {
				if lv.null[k] || rv.null[k] {
					out.null[k] = true
					continue
				}
				out.strs[k] = lv.strs[k] + rv.strs[k]
			}
			return nil
		}}, true
	default:
		return vecExpr{}, false
	}
}

func (vc *vecCompiler) compileBetween(ex BetweenExpr) (vecExpr, bool) {
	c, ok := vc.compile(ex.Expr)
	if !ok {
		return vecExpr{}, false
	}
	lo, ok := vc.compile(ex.Lo)
	if !ok || !comparableKinds(c.kind, lo.kind) {
		return vecExpr{}, false
	}
	hi, ok := vc.compile(ex.Hi)
	if !ok || !comparableKinds(c.kind, hi.kind) {
		return vecExpr{}, false
	}
	not := ex.Not
	return vecExpr{kind: engine.TypeBool, eval: func(sel []int32, out *vec, sc *scratch) error {
		cv, lv, hv := sc.getVec(), sc.getVec(), sc.getVec()
		defer func() { sc.putVec(cv); sc.putVec(lv); sc.putVec(hv) }()
		if err := c.eval(sel, cv, sc); err != nil {
			return err
		}
		if err := lo.eval(sel, lv, sc); err != nil {
			return err
		}
		if err := hi.eval(sel, hv, sc); err != nil {
			return err
		}
		out.reset(engine.TypeBool, len(sel))
		for k := range out.bools {
			if cv.null[k] {
				out.null[k] = true
				continue
			}
			if lv.null[k] || hv.null[k] {
				// Match the row path: a NULL bound still compares (NULL
				// sorts first), because the row evaluator calls
				// engine.Compare on the boxed values.
				in := engine.Compare(cv.valueAt(k), lv.valueAt(k)) >= 0 &&
					engine.Compare(cv.valueAt(k), hv.valueAt(k)) <= 0
				out.bools[k] = in != not
				continue
			}
			var in bool
			if cv.kind == engine.TypeString {
				in = cv.strs[k] >= lv.strs[k] && cv.strs[k] <= hv.strs[k]
			} else if cv.kind == engine.TypeInt && lv.kind == engine.TypeInt && hv.kind == engine.TypeInt {
				in = cv.ints[k] >= lv.ints[k] && cv.ints[k] <= hv.ints[k]
			} else {
				f := cv.floatAt(k)
				in = f >= lv.floatAt(k) && f <= hv.floatAt(k)
			}
			out.bools[k] = in != not
		}
		return nil
	}}, true
}

func (vc *vecCompiler) compileIn(ex InExpr) (vecExpr, bool) {
	c, ok := vc.compile(ex.Expr)
	if !ok {
		return vecExpr{}, false
	}
	// Only literal lists vectorize. NULL literals can never compare
	// equal (the row path's engine.Equal never matches them), so they
	// are dropped.
	var lits []engine.Value
	for _, le := range ex.List {
		lit, isLit := le.(Literal)
		if !isLit {
			return vecExpr{}, false
		}
		if lit.Val.Kind == engine.TypeNull {
			continue
		}
		if !comparableKinds(c.kind, lit.Val.Kind) {
			return vecExpr{}, false
		}
		lits = append(lits, lit.Val)
	}
	not := ex.Not
	// member reports whether entry k of the (non-NULL) input matches.
	var member func(cv *vec, k int) bool
	allInt := c.kind == engine.TypeInt
	for _, v := range lits {
		allInt = allInt && v.Kind == engine.TypeInt
	}
	switch {
	case len(lits) == 0:
		// Every literal was NULL (or the list was empty): no value can
		// match, so the result is constant `not` for non-null inputs,
		// NULL for null inputs — same as the row path's miss case.
		member = func(*vec, int) bool { return false }
	case c.kind == engine.TypeString:
		set := make(map[string]bool, len(lits))
		for _, v := range lits {
			set[v.S] = true
		}
		member = func(cv *vec, k int) bool { return set[cv.strs[k]] }
	case allInt:
		set := make(map[int64]bool, len(lits))
		for _, v := range lits {
			set[v.I] = true
		}
		member = func(cv *vec, k int) bool { return set[cv.ints[k]] }
	default:
		floats := make([]float64, len(lits))
		for i, v := range lits {
			floats[i] = v.AsFloat()
		}
		member = func(cv *vec, k int) bool {
			f := cv.floatAt(k)
			for _, lf := range floats {
				if f == lf {
					return true
				}
			}
			return false
		}
	}
	return vecExpr{kind: engine.TypeBool, eval: func(sel []int32, out *vec, sc *scratch) error {
		cv := sc.getVec()
		defer sc.putVec(cv)
		if err := c.eval(sel, cv, sc); err != nil {
			return err
		}
		out.reset(engine.TypeBool, len(sel))
		for k := range out.bools {
			if cv.null[k] {
				out.null[k] = true
				continue
			}
			out.bools[k] = member(cv, k) != not
		}
		return nil
	}}, true
}

// ---------- filter mode ----------

// vecFilter appends to out, in order, the rows of sel where its
// predicate is TRUE. out may share sel's backing array: a filter never
// writes past the position it has read, so it can narrow a selection
// in place.
type vecFilter func(sel, out []int32, sc *scratch) ([]int32, error)

// compileFilter is the one filter-mode entry point: WHERE, pushed-down
// conjuncts and FilterBatch all compile through it. ok is false when
// the predicate does not vectorize.
func (vc *vecCompiler) compileFilter(e Expr) (vecFilter, bool) {
	if be, isBin := e.(BinaryExpr); isBin {
		switch be.Op {
		case "AND":
			// Narrowing hands the right side only the rows the left side
			// kept; the row path also evaluates it where the left side
			// is NULL, which matters only if the right side can fail.
			if !canError(be.Right) {
				l, lok := vc.compileFilter(be.Left)
				r, rok := vc.compileFilter(be.Right)
				if lok && rok {
					return func(sel, out []int32, sc *scratch) ([]int32, error) {
						mid, err := l(sel, sc.getSel(len(sel)), sc)
						if err == nil {
							out, err = r(mid, out, sc)
						}
						sc.putSel(mid)
						return out, err
					}, true
				}
			}
		case "=", "<>", "<", "<=", ">", ">=":
			if f, ok := vc.compileNarrow(be); ok {
				return f, true
			}
		}
	}
	pred, ok := vc.compile(e)
	if !ok || pred.kind != engine.TypeBool {
		return nil, false
	}
	return func(sel, out []int32, sc *scratch) ([]int32, error) {
		v := sc.getVec()
		defer sc.putVec(v)
		if err := pred.eval(sel, v, sc); err != nil {
			return out, err
		}
		for k, i := range sel {
			if v.bools[k] && !v.null[k] {
				out = append(out, i)
			}
		}
		return out, nil
	}, true
}

// cmpOp is a decoded comparison operator.
type cmpOp uint8

const (
	opEq cmpOp = iota
	opNe
	opLt
	opLe
	opGt
	opGe
)

var cmpOps = map[string]cmpOp{"=": opEq, "<>": opNe, "<": opLt, "<=": opLe, ">": opGt, ">=": opGe}

// holds reports whether a comparison result (engine.Compare's sign)
// satisfies the operator.
func (o cmpOp) holds(cmp int) bool {
	switch o {
	case opEq:
		return cmp == 0
	case opNe:
		return cmp != 0
	case opLt:
		return cmp < 0
	case opLe:
		return cmp <= 0
	case opGt:
		return cmp > 0
	}
	return cmp >= 0
}

// flip is the operator with its operands swapped: a op b ⇔ b flip a.
func (o cmpOp) flip() cmpOp {
	switch o {
	case opLt:
		return opGt
	case opLe:
		return opGe
	case opGt:
		return opLt
	case opGe:
		return opLe
	}
	return o
}

// compileNarrow compiles `column op literal` (either order) and
// `column op column` over directly read columns of one kind (a float
// column also takes an int literal) into an in-place narrowing kernel.
// Other operand shapes report !ok and take the value kernel.
func (vc *vecCompiler) compileNarrow(be BinaryExpr) (vecFilter, bool) {
	op := cmpOps[be.Op]
	left, right := be.Left, be.Right
	if _, isLit := left.(Literal); isLit {
		left, right, op = right, left, op.flip()
	}
	lc, ok := vc.directColumn(left)
	if !ok {
		return nil, false
	}
	if lit, isLit := right.(Literal); isLit {
		v := lit.Val
		switch {
		case lc.Kind == engine.TypeInt && v.Kind == engine.TypeInt:
			return narrowConst(lc.Ints, lc.Nulls, op, v.I), true
		case lc.Kind == engine.TypeFloat && isNumericKind(v.Kind):
			return narrowConst(lc.Floats, lc.Nulls, op, v.AsFloat()), true
		case lc.Kind == engine.TypeString && v.Kind == engine.TypeString:
			return narrowConst(lc.Strs, lc.Nulls, op, v.S), true
		}
		return nil, false
	}
	rc, ok := vc.directColumn(right)
	if !ok || lc.Kind != rc.Kind {
		return nil, false
	}
	switch lc.Kind {
	case engine.TypeInt:
		return narrowCols(lc.Ints, rc.Ints, lc.Nulls, rc.Nulls, op), true
	case engine.TypeFloat:
		return narrowCols(lc.Floats, rc.Floats, lc.Nulls, rc.Nulls, op), true
	case engine.TypeString:
		return narrowCols(lc.Strs, rc.Strs, lc.Nulls, rc.Nulls, op), true
	}
	return nil, false
}

// directColumn returns the column e names when the working set reads
// it directly (not through a join's row vector).
func (vc *vecCompiler) directColumn(e Expr) (*engine.ColVec, bool) {
	cr, ok := e.(ColumnRef)
	if !ok {
		return nil, false
	}
	idx, ok := vc.resolve(cr)
	if !ok || vc.views[idx].rows != nil {
		return nil, false
	}
	return vc.views[idx].src, true
}

// narrowConst keeps the rows whose column value satisfies op against
// the constant c. NULL rows never pass. `<>` is `<` or `>`, as in the
// value kernel.
func narrowConst[T cmp.Ordered](src []T, nulls engine.Bitmap, op cmpOp, c T) vecFilter {
	return func(sel, out []int32, _ *scratch) ([]int32, error) {
		switch op {
		case opEq:
			for _, i := range sel {
				if src[i] == c && !nulls.Get(int(i)) {
					out = append(out, i)
				}
			}
		case opNe:
			for _, i := range sel {
				if (src[i] < c || src[i] > c) && !nulls.Get(int(i)) {
					out = append(out, i)
				}
			}
		case opLt:
			for _, i := range sel {
				if src[i] < c && !nulls.Get(int(i)) {
					out = append(out, i)
				}
			}
		case opLe:
			for _, i := range sel {
				if src[i] <= c && !nulls.Get(int(i)) {
					out = append(out, i)
				}
			}
		case opGt:
			for _, i := range sel {
				if src[i] > c && !nulls.Get(int(i)) {
					out = append(out, i)
				}
			}
		case opGe:
			for _, i := range sel {
				if src[i] >= c && !nulls.Get(int(i)) {
					out = append(out, i)
				}
			}
		}
		return out, nil
	}
}

// narrowCols keeps the rows where a op b holds, both non-NULL.
func narrowCols[T cmp.Ordered](a, b []T, an, bn engine.Bitmap, op cmpOp) vecFilter {
	return func(sel, out []int32, _ *scratch) ([]int32, error) {
		for _, i := range sel {
			x, y := a[i], b[i]
			var hit bool
			switch op {
			case opEq:
				hit = x == y
			case opNe:
				hit = x < y || x > y
			case opLt:
				hit = x < y
			case opLe:
				hit = x <= y
			case opGt:
				hit = x > y
			case opGe:
				hit = x >= y
			}
			if hit && !an.Get(int(i)) && !bn.Get(int(i)) {
				out = append(out, i)
			}
		}
		return out, nil
	}
}

// canError reports whether evaluating e can fail at run time: division
// and modulo (by zero) and function calls. Comparisons, arithmetic
// otherwise, LIKE, IN, BETWEEN and IS NULL never do.
func canError(e Expr) bool {
	switch ex := e.(type) {
	case BinaryExpr:
		return ex.Op == "/" || ex.Op == "%" || canError(ex.Left) || canError(ex.Right)
	case UnaryExpr:
		return canError(ex.Expr)
	case FuncCall:
		return true
	case InExpr:
		if canError(ex.Expr) {
			return true
		}
		for _, a := range ex.List {
			if canError(a) {
				return true
			}
		}
	case IsNullExpr:
		return canError(ex.Expr)
	case BetweenExpr:
		return canError(ex.Expr) || canError(ex.Lo) || canError(ex.Hi)
	}
	return false
}

// identitySel returns the selection vector 0..n-1.
func identitySel(n int) []int32 {
	sel := make([]int32, n)
	for i := range sel {
		sel[i] = int32(i)
	}
	return sel
}

// runFilter narrows sel, which the caller owns, in place to the rows
// where f holds. Large selections partition across workers, each with
// its own scratch; the kept prefixes of the ranges are then compacted
// in order, so the result matches the sequential scan.
func runFilter(f vecFilter, sel []int32) ([]int32, error) {
	workers := runtime.GOMAXPROCS(0)
	if len(sel) < parallelScanRows || workers < 2 {
		return filterRange(f, sel, &scratch{})
	}
	chunk := (len(sel) + workers - 1) / workers
	type part struct {
		kept []int32
		err  error
	}
	parts := make([]part, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, min((w+1)*chunk, len(sel))
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			kept, err := filterRange(f, sel[lo:hi:hi], &scratch{})
			parts[w] = part{kept, err}
		}(w, lo, hi)
	}
	wg.Wait()
	n := 0
	for _, p := range parts {
		if p.err != nil {
			return nil, p.err
		}
		n += copy(sel[n:], p.kept)
	}
	return sel[:n], nil
}

// filterRange runs f over sel chunk by chunk, keeping the result in
// sel's own prefix.
func filterRange(f vecFilter, sel []int32, sc *scratch) ([]int32, error) {
	out := sel[:0]
	for lo := 0; lo < len(sel); lo += vecChunk {
		var err error
		if out, err = f(sel[lo:min(lo+vecChunk, len(sel))], out, sc); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ---------- batch hash join ----------

// vecHashJoin joins the working-set rows lsel (nil: all n of them)
// with the build rows rsel of rc (nil: all of them) on key equality,
// returning the matching (left row, build row) pairs in probe order
// with build rows ascending; a -1 build row is LEFT JOIN padding. The
// build side is one head row per key plus a next-row chain. ok=false
// when the key columns are not joinable in typed form (generic
// columns, bools, string-vs-number), in which case the caller falls
// back to the row join.
func vecHashJoin(lv *colView, lsel []int32, n int, rc *engine.ColVec, rsel []int32, left bool) (lrows, rrows []int32, ok bool) {
	lc := lv.src
	switch {
	case lc.Kind == engine.TypeInt && rc.Kind == engine.TypeInt:
		lrows, rrows = chainJoin(lv, lsel, n, rc, rsel, left,
			func(c *engine.ColVec, i int32) int64 { return c.Ints[i] })
	case isNumericKind(lc.Kind) && isNumericKind(rc.Kind):
		// Mixed int/float keys: promote to float64, matching the row
		// path's numeric valueKey equivalence (1 joins 1.0).
		lrows, rrows = chainJoin(lv, lsel, n, rc, rsel, left,
			func(c *engine.ColVec, i int32) float64 { return colFloat(c, int(i)) })
	case lc.Kind == engine.TypeString && rc.Kind == engine.TypeString:
		lrows, rrows = chainJoin(lv, lsel, n, rc, rsel, left,
			func(c *engine.ColVec, i int32) string { return c.Strs[i] })
	default:
		return nil, nil, false
	}
	return lrows, rrows, true
}

func colFloat(c *engine.ColVec, i int) float64 {
	if c.Kind == engine.TypeInt {
		return float64(c.Ints[i])
	}
	return c.Floats[i]
}

// chainJoin is vecHashJoin for one key type. NULL keys never match.
func chainJoin[K comparable](lv *colView, lsel []int32, n int, rc *engine.ColVec, rsel []int32, left bool,
	key func(c *engine.ColVec, i int32) K) (lrows, rrows []int32) {
	nb := rc.Len()
	if rsel != nil {
		nb = len(rsel)
	}
	head := make(map[K]int32, nb)
	next := make([]int32, rc.Len())
	// Insert build rows in descending order so each chain runs
	// ascending from its head.
	insert := func(i int32) {
		if rc.Nulls.Get(int(i)) {
			return
		}
		k := key(rc, i)
		if h, hit := head[k]; hit {
			next[i] = h
		} else {
			next[i] = -1
		}
		head[k] = i
	}
	if rsel == nil {
		for i := rc.Len() - 1; i >= 0; i-- {
			insert(int32(i))
		}
	} else {
		for k := len(rsel) - 1; k >= 0; k-- {
			insert(rsel[k])
		}
	}
	probeN := n
	if lsel != nil {
		probeN = len(lsel)
	}
	lrows = make([]int32, 0, probeN)
	rrows = make([]int32, 0, probeN)
	probe := func(i int32) {
		m := int32(-1)
		if r := lv.at(i); r >= 0 && !lv.src.Nulls.Get(int(r)) {
			if h, hit := head[key(lv.src, r)]; hit {
				m = h
			}
		}
		if m < 0 {
			if left {
				lrows = append(lrows, i)
				rrows = append(rrows, -1)
			}
			return
		}
		for ; m >= 0; m = next[m] {
			lrows = append(lrows, i)
			rrows = append(rrows, m)
		}
	}
	if lsel == nil {
		for i := 0; i < n; i++ {
			probe(int32(i))
		}
	} else {
		for _, i := range lsel {
			probe(i)
		}
	}
	return lrows, rrows
}

// joinViews is the working set after a join: the left columns read
// through lrows (composed with their own row vectors, once per distinct
// vector), the build table's columns through rrows.
func joinViews(left []colView, lrows []int32, snap *colSnapshot, rrows []int32) []colView {
	rb := snap.batch
	views := make([]colView, len(left), len(left)+len(rb.Cols))
	type composed struct{ from, to []int32 }
	var done []composed
	for j, v := range left {
		switch {
		case v.rows == nil:
			v.rows = lrows
		case len(v.rows) == 0:
			// Empty working set: lrows is empty too.
			v.rows = lrows
		default:
			var to []int32
			for _, c := range done {
				if &c.from[0] == &v.rows[0] {
					to = c.to
					break
				}
			}
			if to == nil {
				to = make([]int32, len(lrows))
				for k, i := range lrows {
					to[k] = v.rows[i]
				}
				done = append(done, composed{v.rows, to})
			}
			v.rows = to
		}
		views[j] = v
	}
	for j := range rb.Cols {
		views = append(views, colView{src: &rb.Cols[j], rows: rrows, snap: snap, col: j})
	}
	return views
}

// ---------- grouped aggregation ----------

// groupAccumVec is the vectorized GROUP BY accumulation. It walks the
// selection in chunks: each chunk first maps its rows to dense group
// ids (first-appearance order), then every aggregate folds its argument
// vector into flat typed per-group accumulators — no per-row boxing, no
// per-row closure calls. ok is false when a key or argument does not
// compile.
func groupAccumVec(ws *rowset, groupBy []Expr, aggCalls []FuncCall) ([]*aggGroup, bool, error) {
	vc := &vecCompiler{views: ws.views, rs: ws.rs}
	accs := make([]aggAccum, len(aggCalls))
	for i, fc := range aggCalls {
		accs[i].fc = fc
		if fc.Star {
			continue // COUNT(*): no argument
		}
		ev, ok := vc.compile(fc.Args[0])
		if !ok {
			return nil, false, nil
		}
		accs[i].arg = &ev
	}
	var glist []*aggGroup
	newGroup := func(i int32) int32 {
		glist = append(glist, newAggGroup(ws.row(i), aggCalls))
		return int32(len(glist) - 1)
	}
	keyer, ok := groupKeyer(vc, groupBy, newGroup)
	if !ok {
		return nil, false, nil
	}
	sc := &scratch{}
	gids := make([]int32, vecChunk)
	err := ws.forChunks(func(chunk []int32) error {
		g := gids[:len(chunk)]
		if err := keyer(chunk, g, sc); err != nil {
			return err
		}
		for i := range accs {
			if err := accs[i].add(chunk, g, glist, i, sc); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, false, err
	}
	for i := range accs {
		accs[i].finish(glist, i)
	}
	return glist, true, nil
}

// groupKeyer compiles the GROUP BY keys into a function that writes a
// chunk's group ids, calling newGroup for each first appearance.
func groupKeyer(vc *vecCompiler, groupBy []Expr, newGroup func(i int32) int32) (func(chunk, gids []int32, sc *scratch) error, bool) {
	if len(groupBy) == 1 {
		if cr, isCol := groupBy[0].(ColumnRef); isCol {
			if idx, ok := vc.resolve(cr); ok {
				if keyer := dictKeyer(&vc.views[idx], newGroup); keyer != nil {
					return keyer, true
				}
			}
		}
	}
	gevs := make([]vecExpr, len(groupBy))
	for i, g := range groupBy {
		ev, ok := vc.compile(g)
		if !ok {
			return nil, false
		}
		gevs[i] = ev
	}
	// Key vectors for the chunk, taken from the scratch per chunk (the
	// keyer runs sequentially, so one slot slice serves every chunk).
	gv := make([]*vec, len(gevs))
	eval := func(chunk []int32, sc *scratch) ([]*vec, error) {
		for i := range gevs {
			gv[i] = sc.getVec()
			if err := gevs[i].eval(chunk, gv[i], sc); err != nil {
				return gv, err
			}
		}
		return gv, nil
	}
	release := func(gv []*vec, sc *scratch) {
		for i, v := range gv {
			if v != nil {
				sc.putVec(v)
				gv[i] = nil
			}
		}
	}
	nullGid := int32(-1)
	switch {
	case len(gevs) == 1 && gevs[0].kind == engine.TypeInt:
		m := make(map[int64]int32, 64)
		return func(chunk, gids []int32, sc *scratch) error {
			gv, err := eval(chunk, sc)
			defer release(gv, sc)
			if err != nil {
				return err
			}
			v := gv[0]
			for k, i := range chunk {
				if v.null[k] {
					if nullGid < 0 {
						nullGid = newGroup(i)
					}
					gids[k] = nullGid
					continue
				}
				gid, ok := m[v.ints[k]]
				if !ok {
					gid = newGroup(i)
					m[v.ints[k]] = gid
				}
				gids[k] = gid
			}
			return nil
		}, true
	case len(gevs) == 1 && gevs[0].kind == engine.TypeString:
		m := make(map[string]int32, 64)
		return func(chunk, gids []int32, sc *scratch) error {
			gv, err := eval(chunk, sc)
			defer release(gv, sc)
			if err != nil {
				return err
			}
			v := gv[0]
			for k, i := range chunk {
				if v.null[k] {
					if nullGid < 0 {
						nullGid = newGroup(i)
					}
					gids[k] = nullGid
					continue
				}
				gid, ok := m[v.strs[k]]
				if !ok {
					gid = newGroup(i)
					m[v.strs[k]] = gid
				}
				gids[k] = gid
			}
			return nil
		}, true
	default:
		m := make(map[string]int32, 64)
		var buf []byte
		return func(chunk, gids []int32, sc *scratch) error {
			gv, err := eval(chunk, sc)
			defer release(gv, sc)
			if err != nil {
				return err
			}
			for k, i := range chunk {
				buf = buf[:0]
				for _, v := range gv {
					buf = v.appendGroupKey(buf, k)
				}
				gid, ok := m[string(buf)]
				if !ok {
					gid = newGroup(i)
					m[string(buf)] = gid
				}
				gids[k] = gid
			}
			return nil
		}, true
	}
}

// dictKeyer groups by a string column through its snapshot dictionary:
// the code of each selected row, read straight from the base column
// through the view, indexes a code → group id table. nil when the
// column has no dictionary (not a table's string column, or too many
// distinct values).
func dictKeyer(v *colView, newGroup func(i int32) int32) func(chunk, gids []int32, sc *scratch) error {
	if v.snap == nil || v.src.Kind != engine.TypeString {
		return nil
	}
	d := v.snap.dict(v.col)
	if d == nil {
		return nil
	}
	gidOf := make([]int32, d.n+1) // code 0 is NULL
	for c := range gidOf {
		gidOf[c] = -1
	}
	codes := d.codes
	return func(chunk, gids []int32, _ *scratch) error {
		for k, i := range chunk {
			var code uint16
			if r := v.at(i); r >= 0 {
				code = codes[r]
			}
			g := gidOf[code]
			if g < 0 {
				g = newGroup(i)
				gidOf[code] = g
			}
			gids[k] = g
		}
		return nil
	}
}

// aggAccum folds one aggregate's argument, chunk by chunk, into flat
// typed per-group accumulators, boxing at most once per group (for
// MIN/MAX results) when it finishes.
type aggAccum struct {
	fc  FuncCall
	arg *vecExpr // nil for COUNT(*)

	counts       []int64
	sums, sumSqs []float64
	has          []bool
	minI, maxI   []int64
	minF, maxF   []float64
	minS, maxS   []string
}

// generic reports whether the aggregate folds through aggState.add:
// DISTINCT needs its per-value de-dup map, and exotic kinds keep the
// reference semantics.
func (a *aggAccum) generic() bool {
	k := a.arg.kind
	return a.fc.Distinct || (k != engine.TypeInt && k != engine.TypeFloat && k != engine.TypeString)
}

func extend[T any](s []T, n int) []T {
	var zero T
	for len(s) < n {
		s = append(s, zero)
	}
	return s
}

// add folds the chunk's rows (group ids gids) into aggregate agg.
func (a *aggAccum) add(chunk, gids []int32, glist []*aggGroup, agg int, sc *scratch) error {
	ng := len(glist)
	a.counts = extend(a.counts, ng)
	if a.arg == nil { // COUNT(*)
		for _, g := range gids {
			a.counts[g]++
		}
		return nil
	}
	av := sc.getVec()
	defer sc.putVec(av)
	if err := a.arg.eval(chunk, av, sc); err != nil {
		return err
	}
	if a.generic() {
		for k, g := range gids {
			glist[g].aggs[agg].add(av.valueAt(k))
		}
		return nil
	}
	a.sums, a.sumSqs, a.has = extend(a.sums, ng), extend(a.sumSqs, ng), extend(a.has, ng)
	switch av.kind {
	case engine.TypeInt:
		a.minI, a.maxI = extend(a.minI, ng), extend(a.maxI, ng)
		for k, g := range gids {
			if av.null[k] {
				continue
			}
			v := av.ints[k]
			f := float64(v)
			a.counts[g]++
			a.sums[g] += f
			a.sumSqs[g] += f * f
			if !a.has[g] {
				a.minI[g], a.maxI[g], a.has[g] = v, v, true
			} else {
				a.minI[g] = min(a.minI[g], v)
				a.maxI[g] = max(a.maxI[g], v)
			}
		}
	case engine.TypeFloat:
		a.minF, a.maxF = extend(a.minF, ng), extend(a.maxF, ng)
		for k, g := range gids {
			if av.null[k] {
				continue
			}
			v := av.floats[k]
			a.counts[g]++
			a.sums[g] += v
			a.sumSqs[g] += v * v
			if !a.has[g] {
				a.minF[g], a.maxF[g], a.has[g] = v, v, true
			} else {
				if v < a.minF[g] {
					a.minF[g] = v
				}
				if v > a.maxF[g] {
					a.maxF[g] = v
				}
			}
		}
	case engine.TypeString:
		a.minS, a.maxS = extend(a.minS, ng), extend(a.maxS, ng)
		// aggState sums strings through AsFloat (NaN when unparsable);
		// only SUM, AVG and STDDEV read the sums.
		needSum := a.fc.Name == "SUM" || a.fc.Name == "AVG" || a.fc.Name == "STDDEV"
		for k, g := range gids {
			if av.null[k] {
				continue
			}
			v := av.strs[k]
			a.counts[g]++
			if needSum {
				f := engine.NewString(v).AsFloat()
				a.sums[g] += f
				a.sumSqs[g] += f * f
			}
			if !a.has[g] {
				a.minS[g], a.maxS[g], a.has[g] = v, v, true
			} else {
				a.minS[g] = min(a.minS[g], v)
				a.maxS[g] = max(a.maxS[g], v)
			}
		}
	}
	return nil
}

// finish moves the accumulators into the groups' aggregate states.
func (a *aggAccum) finish(glist []*aggGroup, agg int) {
	if a.arg == nil {
		for g, c := range a.counts {
			glist[g].aggs[agg].count += c
		}
		return
	}
	if a.generic() {
		return
	}
	for g, has := range a.has {
		if !has {
			continue
		}
		st := glist[g].aggs[agg]
		st.count, st.sum, st.sumSq, st.hasVal = a.counts[g], a.sums[g], a.sumSqs[g], true
		switch a.arg.kind {
		case engine.TypeInt:
			st.min, st.max = engine.NewInt(a.minI[g]), engine.NewInt(a.maxI[g])
		case engine.TypeFloat:
			st.min, st.max = engine.NewFloat(a.minF[g]), engine.NewFloat(a.maxF[g])
		default:
			st.min, st.max = engine.NewString(a.minS[g]), engine.NewString(a.maxS[g])
		}
	}
}
