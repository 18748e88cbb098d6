package relational

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/engine"
)

// Execute parses and runs one SQL statement. DML statements return a
// single-row relation reporting affected row counts; SELECT returns its
// result set.
func (db *DB) Execute(sql string) (*engine.Relation, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	switch s := stmt.(type) {
	case CreateTable:
		if err := db.CreateTable(s.Name, s.Schema, s.PrimaryKey); err != nil {
			return nil, err
		}
		return statusRelation("created", 0), nil
	case CreateIndex:
		db.mu.Lock()
		defer db.mu.Unlock()
		t, err := db.table(s.Table)
		if err != nil {
			return nil, err
		}
		if err := t.addIndex(s.Column); err != nil {
			return nil, err
		}
		return statusRelation("indexed", 0), nil
	case DropTable:
		if err := db.DropTable(s.Name); err != nil {
			return nil, err
		}
		return statusRelation("dropped", 0), nil
	case Insert:
		n, err := db.executeInsert(s)
		if err != nil {
			return nil, err
		}
		return statusRelation("inserted", n), nil
	case Update:
		n, err := db.executeUpdate(s)
		if err != nil {
			return nil, err
		}
		return statusRelation("updated", n), nil
	case Delete:
		n, err := db.executeDelete(s)
		if err != nil {
			return nil, err
		}
		return statusRelation("deleted", n), nil
	case *Select:
		return db.ExecuteSelect(s)
	default:
		return nil, fmt.Errorf("relational: unhandled statement %T", stmt)
	}
}

// Query is Execute restricted to SELECT, for island use.
func (db *DB) Query(sql string) (*engine.Relation, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*Select)
	if !ok {
		return nil, fmt.Errorf("relational: Query requires SELECT, got %T", stmt)
	}
	return db.ExecuteSelect(sel)
}

func statusRelation(op string, n int) *engine.Relation {
	rel := engine.NewRelation(engine.NewSchema(engine.Col("status", engine.TypeString), engine.Col("rows", engine.TypeInt)))
	_ = rel.Append(engine.Tuple{engine.NewString(op), engine.NewInt(int64(n))})
	return rel
}

func (db *DB) executeInsert(s Insert) (int, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, err := db.table(s.Table)
	if err != nil {
		return 0, err
	}
	colIdx := make([]int, len(s.Columns))
	for i, c := range s.Columns {
		ci := t.Schema.Index(c)
		if ci < 0 {
			return 0, fmt.Errorf("relational: %s: no column %q", s.Table, c)
		}
		colIdx[i] = ci
	}
	n := 0
	for _, exprRow := range s.Rows {
		row := make(engine.Tuple, len(t.Schema.Columns))
		for i := range row {
			row[i] = engine.Null
		}
		if len(s.Columns) == 0 {
			if len(exprRow) != len(row) {
				return n, fmt.Errorf("relational: %s: VALUES arity %d != %d", s.Table, len(exprRow), len(row))
			}
			for i, e := range exprRow {
				v, err := evalConst(e)
				if err != nil {
					return n, err
				}
				row[i] = v
			}
		} else {
			if len(exprRow) != len(s.Columns) {
				return n, fmt.Errorf("relational: %s: VALUES arity %d != column list %d", s.Table, len(exprRow), len(s.Columns))
			}
			for i, e := range exprRow {
				v, err := evalConst(e)
				if err != nil {
					return n, err
				}
				row[colIdx[i]] = v
			}
		}
		if err := t.insert(row); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// evalConst evaluates an expression with no row context (literals and
// arithmetic over them).
func evalConst(e Expr) (engine.Value, error) {
	ev, err := compileExpr(e, nil, nil)
	if err != nil {
		return engine.Null, err
	}
	return ev(nil)
}

func (db *DB) executeUpdate(s Update) (int, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, err := db.table(s.Table)
	if err != nil {
		return 0, err
	}
	defer t.compact() // each updated row leaves a tombstone
	rs := baseRowSchema(t.Name, t.Schema)
	var where evaluator
	if s.Where != nil {
		where, err = compileExpr(s.Where, rs, nil)
		if err != nil {
			return 0, err
		}
	}
	type setOp struct {
		col  int
		eval evaluator
	}
	var sets []setOp
	for col, e := range s.Set {
		ci := t.Schema.Index(col)
		if ci < 0 {
			return 0, fmt.Errorf("relational: %s: no column %q", s.Table, col)
		}
		ev, err := compileExpr(e, rs, nil)
		if err != nil {
			return 0, err
		}
		sets = append(sets, setOp{ci, ev})
	}
	sort.Slice(sets, func(i, j int) bool { return sets[i].col < sets[j].col })
	n := 0
	// Collect matching slots first so SET expressions see pre-update values.
	slots, err := db.collectMatchingSlots(t, rs, s.Where, where)
	if err != nil {
		return 0, err
	}
	for _, slot := range slots {
		row := t.rows[slot]
		newRow := row.Clone()
		for _, op := range sets {
			v, err := op.eval(row)
			if err != nil {
				return n, err
			}
			newRow[op.col] = v
		}
		// Re-insert through delete+insert to keep indexes coherent.
		t.deleteSlot(slot)
		if err := t.insert(newRow); err != nil {
			return n, err
		}
		n++
	}
	db.stats.queries.Add(1)
	return n, nil
}

// collectMatchingSlots returns the slots whose live rows satisfy WHERE,
// routing through an index when the predicate pins an indexed column to
// a literal — the same fast path ExecuteSelect uses, so a PK-equality
// UPDATE or DELETE no longer full-scans. The full predicate is still
// re-applied to the candidates (the equality may be one AND-branch of a
// wider condition, and secondary indexes are non-unique).
func (db *DB) collectMatchingSlots(t *Table, rs rowSchema, whereExpr Expr, where evaluator) ([]int, error) {
	if whereExpr != nil {
		if ci, v, ok := indexableEquality(whereExpr, rs, t); ok {
			if cand, hit := t.lookup(ci, v); hit {
				db.stats.rowsScanned.Add(int64(len(cand)))
				slots := make([]int, 0, len(cand))
				for _, slot := range cand {
					if t.deleted[slot] {
						continue
					}
					if where != nil {
						val, err := where(t.rows[slot])
						if err != nil {
							return nil, err
						}
						if val.IsNull() || !val.AsBool() {
							continue
						}
					}
					slots = append(slots, slot)
				}
				return slots, nil
			}
		}
	}
	// Full scan, under the write lock. The rows read are counted locally
	// and added to the shared counter once.
	var slots []int
	scanned := 0
	defer func() { db.stats.rowsScanned.Add(int64(scanned)) }()
	err := t.scan(func(slot int, row engine.Tuple) error {
		scanned++
		if where != nil {
			v, err := where(row)
			if err != nil {
				return err
			}
			if v.IsNull() || !v.AsBool() {
				return nil
			}
		}
		slots = append(slots, slot)
		return nil
	})
	return slots, err
}

func (db *DB) executeDelete(s Delete) (int, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, err := db.table(s.Table)
	if err != nil {
		return 0, err
	}
	rs := baseRowSchema(t.Name, t.Schema)
	var where evaluator
	if s.Where != nil {
		where, err = compileExpr(s.Where, rs, nil)
		if err != nil {
			return 0, err
		}
	}
	slots, err := db.collectMatchingSlots(t, rs, s.Where, where)
	if err != nil {
		return 0, err
	}
	for _, slot := range slots {
		t.deleteSlot(slot)
	}
	t.compact()
	db.stats.queries.Add(1)
	return len(slots), nil
}

// rowset is the working set flowing through the SELECT pipeline:
// either column views plus a selection vector (the vectorized executor)
// or materialised tuples (the row-at-a-time path and every fallback).
type rowset struct {
	rs     rowSchema
	views  []colView // one per column of rs; see colView
	n      int       // rows the views span
	sel    []int32   // selection into the views; nil = all n rows
	rows   []engine.Tuple
	isRows bool
}

// selection returns the current selection vector, materialising the
// identity selection on first use. The working set owns it, so filters
// may narrow it in place.
func (w *rowset) selection() []int32 {
	if w.sel == nil {
		w.sel = identitySel(w.n)
	}
	return w.sel
}

// forChunks calls fn with the selection vecChunk rows at a time; an
// identity selection is generated chunk by chunk, never materialised.
func (w *rowset) forChunks(fn func(chunk []int32) error) error {
	if w.sel != nil {
		for lo := 0; lo < len(w.sel); lo += vecChunk {
			if err := fn(w.sel[lo:min(lo+vecChunk, len(w.sel))]); err != nil {
				return err
			}
		}
		return nil
	}
	buf := make([]int32, 0, min(w.n, vecChunk))
	for lo := 0; lo < w.n; lo += vecChunk {
		buf = buf[:0]
		for i := lo; i < min(lo+vecChunk, w.n); i++ {
			buf = append(buf, int32(i))
		}
		if err := fn(buf); err != nil {
			return err
		}
	}
	return nil
}

// row boxes working-set row i.
func (w *rowset) row(i int32) engine.Tuple {
	t := make(engine.Tuple, len(w.views))
	for j := range w.views {
		t[j] = w.views[j].value(i)
	}
	return t
}

// materialize converts the working set to row form, boxing the selected
// rows through the views into tuples carved from one arena.
func (w *rowset) materialize() []engine.Tuple {
	if w.isRows {
		return w.rows
	}
	sel := w.selection()
	ncols := len(w.views)
	rows := make([]engine.Tuple, len(sel))
	arena := make([]engine.Value, len(sel)*ncols)
	for k := range sel {
		rows[k] = engine.Tuple(arena[k*ncols : (k+1)*ncols : (k+1)*ncols])
	}
	for j := range w.views {
		v := &w.views[j]
		for k, i := range sel {
			arena[k*ncols+j] = v.value(i)
		}
	}
	w.rows, w.isRows = rows, true
	w.views, w.sel = nil, nil
	return rows
}

// toRows moves the working set to row form for a stage the vectorizer
// could not compile, counting the drop against that stage.
func (db *DB) toRows(ws *rowset, stage fallbackStage) []engine.Tuple {
	if !ws.isRows {
		db.stats.fallbacks[stage].Add(1)
	}
	return ws.materialize()
}

// ExecuteSelect runs a parsed SELECT.
func (db *DB) ExecuteSelect(s *Select) (*engine.Relation, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	db.stats.queries.Add(1)
	if out, ok := db.pointLookup(s); ok {
		return out, nil
	}

	// 1. Build the working set (FROM + JOINs), or a single empty row for
	// table-less SELECTs. Base scans come back columnar when the
	// vectorized executor is on, and WHERE conjuncts that name one table
	// filter it below the joins; any stage the vectorizer cannot compile
	// materialises rows and continues on the row path.
	var ws rowset
	where := s.Where
	if s.From == nil {
		ws.rows, ws.isRows = []engine.Tuple{{}}, true
	} else {
		base, err := db.table(s.From.Name)
		if err != nil {
			return nil, err
		}
		alias := s.From.Alias
		if alias == "" {
			alias = base.Name
		}
		ws.rs = baseRowSchema(alias, base.Schema)
		db.scanBase(base, &ws, s)
		var buildSels [][]int32
		if !ws.isRows && len(s.Joins) > 0 && where != nil {
			if where, buildSels, err = db.pushDownWhere(&ws, s); err != nil {
				return nil, err
			}
		}
		for ji, j := range s.Joins {
			jt, err := db.table(j.Table.Name)
			if err != nil {
				return nil, err
			}
			jalias := j.Table.Alias
			if jalias == "" {
				jalias = jt.Name
			}
			var buildSel []int32
			if buildSels != nil {
				buildSel = buildSels[ji]
			}
			if err := db.joinStep(&ws, jt, jalias, j, buildSel); err != nil {
				return nil, err
			}
		}
	}

	// 2. WHERE (what is left of it after pushdown).
	if where != nil {
		if err := db.applyWhere(&ws, where); err != nil {
			return nil, err
		}
	}

	// 3. Grouped vs plain projection.
	grouped := len(s.GroupBy) > 0
	if !grouped {
		for _, item := range s.Items {
			if !item.Star && hasAggregate(item.Expr) {
				grouped = true // implicit single group, e.g. SELECT COUNT(*) FROM t
				break
			}
		}
	}
	var out *engine.Relation
	var err error
	if grouped {
		out, err = db.projectGrouped(s, &ws)
	} else {
		out, err = db.projectPlain(s, &ws)
	}
	if err != nil {
		return nil, err
	}

	// 4. DISTINCT.
	if s.Distinct {
		seen := map[string]bool{}
		kept := out.Tuples[:0]
		for _, t := range out.Tuples {
			k := tupleKey(t[:len(out.Schema.Columns)])
			if !seen[k] {
				seen[k] = true
				kept = append(kept, t)
			}
		}
		out.Tuples = kept
	}

	// 5. ORDER BY (hidden sort columns appended by projection).
	nOut := len(out.Schema.Columns)
	if len(s.OrderBy) > 0 {
		descs := make([]bool, len(s.OrderBy))
		for i, o := range s.OrderBy {
			descs[i] = o.Desc
		}
		sort.SliceStable(out.Tuples, func(i, j int) bool {
			a, b := out.Tuples[i], out.Tuples[j]
			for k := range s.OrderBy {
				cmp := engine.Compare(a[nOut+k], b[nOut+k])
				if cmp != 0 {
					if descs[k] {
						return cmp > 0
					}
					return cmp < 0
				}
			}
			return false
		})
	}
	// Strip hidden sort columns.
	if len(s.OrderBy) > 0 {
		for i, t := range out.Tuples {
			out.Tuples[i] = t[:nOut]
		}
	}

	// 6. OFFSET/LIMIT.
	if s.Offset > 0 {
		if s.Offset >= len(out.Tuples) {
			out.Tuples = nil
		} else {
			out.Tuples = out.Tuples[s.Offset:]
		}
	}
	if s.Limit >= 0 && s.Limit < len(out.Tuples) {
		out.Tuples = out.Tuples[:s.Limit]
	}
	return out, nil
}

// pointLookup answers SELECT * FROM t WHERE pk = literal straight from
// the primary-key index, skipping the general pipeline (working set,
// WHERE re-check, projection compile) whose setup is nearly all the
// cost of a one-row answer. ok is false for every other shape, which
// then runs the general path. The literal must have the key column's
// own kind, INT or TEXT, so index-key equality is exactly the row
// evaluator's equality.
func (db *DB) pointLookup(s *Select) (*engine.Relation, bool) {
	if s.From == nil || len(s.Joins) > 0 || s.Distinct || len(s.GroupBy) > 0 || s.Having != nil ||
		len(s.OrderBy) > 0 || s.Limit >= 0 || s.Offset > 0 ||
		len(s.Items) != 1 || !s.Items[0].Star || s.Items[0].Table != "" {
		return nil, false
	}
	eq, ok := s.Where.(BinaryExpr)
	if !ok || eq.Op != "=" {
		return nil, false
	}
	col, lit := eq.Left, eq.Right
	if _, isCol := col.(ColumnRef); !isCol {
		col, lit = lit, col
	}
	cr, isCol := col.(ColumnRef)
	l, isLit := lit.(Literal)
	if !isCol || !isLit {
		return nil, false
	}
	t, err := db.table(s.From.Name)
	if err != nil || t.PKCol < 0 {
		return nil, false
	}
	if k := l.Val.Kind; k != t.Schema.Columns[t.PKCol].Type || (k != engine.TypeInt && k != engine.TypeString) {
		return nil, false
	}
	alias := s.From.Alias
	if alias == "" {
		alias = t.Name
	}
	rs := baseRowSchema(alias, t.Schema)
	if ci, err := rs.resolve(cr.Table, cr.Name); err != nil || ci != t.PKCol {
		return nil, false
	}
	out := engine.NewRelation(rs.toSchema())
	out.Tuples = make([]engine.Tuple, 0, 1)
	if slot, hit := t.pkIndex[valueKey(l.Val)]; hit {
		out.Tuples = append(out.Tuples, t.rows[slot].Clone())
	}
	db.stats.rowsScanned.Add(int64(len(out.Tuples)))
	return out, true
}

// scanBase reads the base table into the working set: via an index when
// WHERE pins an indexed column to a literal, else as the cached column
// batch (vectorized executor) or a row scan.
func (db *DB) scanBase(t *Table, ws *rowset, s *Select) {
	if len(s.Joins) == 0 && s.Where != nil {
		if ci, v, ok := indexableEquality(s.Where, ws.rs, t); ok {
			if slots, hit := t.lookup(ci, v); hit {
				rows := make([]engine.Tuple, 0, len(slots))
				for _, slot := range slots {
					if !t.deleted[slot] {
						rows = append(rows, t.rows[slot])
					}
				}
				db.stats.rowsScanned.Add(int64(len(rows)))
				ws.rows, ws.isRows = rows, true
				return
			}
		}
	}
	if db.vectorized {
		snap := t.snapshot()
		ws.views, ws.n = batchViews(snap.batch, snap), snap.batch.NumRows
		db.stats.rowsScanned.Add(int64(ws.n))
		return
	}
	rows := make([]engine.Tuple, 0, t.live)
	_ = t.scan(func(_ int, row engine.Tuple) error {
		rows = append(rows, row)
		return nil
	})
	db.stats.rowsScanned.Add(int64(len(rows)))
	ws.rows, ws.isRows = rows, true
}

// pushDownWhere filters the working set's base table, and the build
// sides of INNER joins, by the WHERE conjuncts that name only that
// table (see vector.go, "Pushdown"). It returns the conjuncts left for
// after the joins (nil when none are) and, per join, the build-side
// selection (nil: every row).
func (db *DB) pushDownWhere(ws *rowset, s *Select) (Expr, [][]int32, error) {
	if canError(s.Where) {
		return s.Where, nil, nil
	}
	// The joined schema, with each table's span in it.
	joined := append(rowSchema{}, ws.rs...)
	type span struct {
		t        *Table
		rs       rowSchema
		off      int
		conj     []Expr
		pushable bool
	}
	spans := make([]span, len(s.Joins))
	for i, j := range s.Joins {
		jt, err := db.table(j.Table.Name)
		if err != nil {
			return s.Where, nil, nil // the join step reports it
		}
		alias := j.Table.Alias
		if alias == "" {
			alias = jt.Name
		}
		rs := baseRowSchema(alias, jt.Schema)
		spans[i] = span{t: jt, rs: rs, off: len(joined), pushable: j.Kind == JoinInner}
		joined = append(joined, rs...)
	}
	var rest, baseConj []Expr
	for _, c := range splitAnd(s.Where) {
		lo, hi, ok := columnSpan(c, joined)
		switch {
		case !ok:
			rest = append(rest, c)
		case hi < len(ws.rs):
			baseConj = append(baseConj, c)
		default:
			// The join table holding the first column must hold all.
			i := len(spans) - 1
			for i > 0 && lo < spans[i].off {
				i--
			}
			if sp := &spans[i]; sp.pushable && lo >= sp.off && hi < sp.off+len(sp.rs) {
				sp.conj = append(sp.conj, c)
			} else {
				rest = append(rest, c)
			}
		}
	}
	// filter narrows sel (owned) by the conjuncts that compile over the
	// views; the others stay for after the joins.
	filter := func(views []colView, rs rowSchema, conj []Expr, sel []int32) ([]int32, error) {
		vc := &vecCompiler{views: views, rs: rs}
		for _, c := range conj {
			f, ok := vc.compileFilter(c)
			if !ok {
				rest = append(rest, c)
				continue
			}
			var err error
			if sel, err = runFilter(f, sel); err != nil {
				return nil, err
			}
		}
		return sel, nil
	}
	if len(baseConj) > 0 {
		sel, err := filter(ws.views, ws.rs, baseConj, ws.selection())
		if err != nil {
			return nil, nil, err
		}
		ws.sel = sel
	}
	buildSels := make([][]int32, len(spans))
	for i, sp := range spans {
		if len(sp.conj) == 0 {
			continue
		}
		snap := sp.t.snapshot()
		sel, err := filter(batchViews(snap.batch, snap), sp.rs, sp.conj, identitySel(snap.batch.NumRows))
		if err != nil {
			return nil, nil, err
		}
		buildSels[i] = sel
	}
	return joinAnd(rest), buildSels, nil
}

// splitAnd flattens the AND-conjuncts of e, left to right.
func splitAnd(e Expr) []Expr {
	if be, ok := e.(BinaryExpr); ok && be.Op == "AND" {
		return append(splitAnd(be.Left), splitAnd(be.Right)...)
	}
	return []Expr{e}
}

// joinAnd is the inverse of splitAnd; nil for no conjuncts.
func joinAnd(conj []Expr) Expr {
	if len(conj) == 0 {
		return nil
	}
	e := conj[0]
	for _, c := range conj[1:] {
		e = BinaryExpr{Op: "AND", Left: e, Right: c}
	}
	return e
}

// columnSpan resolves every column e names in rs and returns the lowest
// and highest position; ok is false when e names no column or a name
// does not resolve (missing or ambiguous).
func columnSpan(e Expr, rs rowSchema) (lo, hi int, ok bool) {
	lo, hi, ok = len(rs), -1, true
	WalkColumnRefs(e, func(ref ColumnRef) {
		idx, err := rs.resolve(ref.Table, ref.Name)
		if err != nil {
			ok = false
			return
		}
		lo, hi = min(lo, idx), max(hi, idx)
	})
	return lo, hi, ok && hi >= 0
}

// joinStep joins the working set with table jt: the batch hash join
// when the working set is columnar and ON is a typed equi-join,
// otherwise the row join over materialised rows. buildSel, when set,
// restricts jt to those rows of its snapshot (pushed-down conjuncts).
func (db *DB) joinStep(ws *rowset, jt *Table, jalias string, j Join, buildSel []int32) error {
	rightRS := baseRowSchema(jalias, jt.Schema)
	if !ws.isRows && j.Kind != JoinCross && j.On != nil {
		if lIdx, rIdx, ok := equiJoinCols(j.On, ws.rs, rightRS); ok {
			snap := jt.snapshot()
			if lrows, rrows, ok := vecHashJoin(&ws.views[lIdx], ws.sel, ws.n, &snap.batch.Cols[rIdx], buildSel, j.Kind == JoinLeft); ok {
				db.stats.rowsScanned.Add(int64(snap.batch.NumRows))
				ws.views = joinViews(ws.views, lrows, snap, rrows)
				ws.rs = append(append(rowSchema{}, ws.rs...), rightRS...)
				ws.n, ws.sel = len(lrows), nil
				return nil
			}
		}
	}
	rows, rs, err := db.executeJoin(db.toRows(ws, fallbackJoin), ws.rs, jt, jalias, j, buildSel)
	if err != nil {
		return err
	}
	ws.rows, ws.rs, ws.isRows = rows, rs, true
	return nil
}

// applyWhere filters the working set through the filter kernels when
// the predicate compiles to them (partitioned across workers for large
// selections), else row-at-a-time.
func (db *DB) applyWhere(ws *rowset, where Expr) error {
	if !ws.isRows {
		vc := &vecCompiler{views: ws.views, rs: ws.rs}
		if f, ok := vc.compileFilter(where); ok {
			sel, err := runFilter(f, ws.selection())
			if err != nil {
				return err
			}
			ws.sel = sel
			return nil
		}
	}
	rows := db.toRows(ws, fallbackFilter)
	ev, err := compileExpr(where, ws.rs, nil)
	if err != nil {
		return err
	}
	kept := rows[:0]
	for _, row := range rows {
		v, err := ev(row)
		if err != nil {
			return err
		}
		if !v.IsNull() && v.AsBool() {
			kept = append(kept, row)
		}
	}
	ws.rows = kept
	return nil
}

// indexableEquality detects `col = literal` (or literal = col) at the
// top level or on either side of an AND, where col has an index.
func indexableEquality(e Expr, rs rowSchema, t *Table) (ci int, v engine.Value, ok bool) {
	be, isBin := e.(BinaryExpr)
	if !isBin {
		return 0, engine.Null, false
	}
	if be.Op == "AND" {
		if ci, v, ok = indexableEquality(be.Left, rs, t); ok {
			return ci, v, true
		}
		return indexableEquality(be.Right, rs, t)
	}
	if be.Op != "=" {
		return 0, engine.Null, false
	}
	col, lit := be.Left, be.Right
	if _, isCol := col.(ColumnRef); !isCol {
		col, lit = be.Right, be.Left
	}
	cr, isCol := col.(ColumnRef)
	l, isLit := lit.(Literal)
	if !isCol || !isLit {
		return 0, engine.Null, false
	}
	idx, err := rs.resolve(cr.Table, cr.Name)
	if err != nil {
		return 0, engine.Null, false
	}
	// Working schema position == table column position for base scans.
	if idx == t.PKCol {
		return idx, l.Val, true
	}
	if _, hasIdx := t.secondary[idx]; hasIdx {
		return idx, l.Val, true
	}
	return 0, engine.Null, false
}

// executeJoin joins the accumulated working rows with table jt.
// buildSel, when set, keeps only those live rows of jt (in scan order,
// which is its column snapshot's row order).
func (db *DB) executeJoin(left []engine.Tuple, leftRS rowSchema, jt *Table, jalias string, j Join, buildSel []int32) ([]engine.Tuple, rowSchema, error) {
	rightRS := baseRowSchema(jalias, jt.Schema)
	combined := append(append(rowSchema{}, leftRS...), rightRS...)

	var rightRows []engine.Tuple
	_ = jt.scan(func(_ int, row engine.Tuple) error {
		rightRows = append(rightRows, row)
		return nil
	})
	db.stats.rowsScanned.Add(int64(len(rightRows)))
	if buildSel != nil {
		kept := make([]engine.Tuple, len(buildSel))
		for k, r := range buildSel {
			kept[k] = rightRows[r]
		}
		rightRows = kept
	}

	if j.Kind == JoinCross {
		out := make([]engine.Tuple, 0, len(left)*len(rightRows))
		for _, l := range left {
			for _, r := range rightRows {
				out = append(out, concatTuples(l, r))
			}
		}
		return out, combined, nil
	}

	// Hash join when ON is an equality between a left column and a right
	// column; otherwise nested loop.
	if lIdx, rIdx, ok := equiJoinCols(j.On, leftRS, rightRS); ok {
		build := make(map[string][]engine.Tuple, len(rightRows))
		for _, r := range rightRows {
			k := valueKey(r[rIdx])
			build[k] = append(build[k], r)
		}
		out := make([]engine.Tuple, 0, len(left))
		nullRight := nullTuple(len(rightRS))
		for _, l := range left {
			matches := build[valueKey(l[lIdx])]
			// NULL join keys never match.
			if l[lIdx].IsNull() {
				matches = nil
			}
			if len(matches) == 0 {
				if j.Kind == JoinLeft {
					out = append(out, concatTuples(l, nullRight))
				}
				continue
			}
			for _, r := range matches {
				out = append(out, concatTuples(l, r))
			}
		}
		return out, combined, nil
	}

	on, err := compileExpr(j.On, combined, nil)
	if err != nil {
		return nil, nil, err
	}
	out := make([]engine.Tuple, 0, len(left))
	nullRight := nullTuple(len(rightRS))
	for _, l := range left {
		matched := false
		for _, r := range rightRows {
			row := concatTuples(l, r)
			v, err := on(row)
			if err != nil {
				return nil, nil, err
			}
			if !v.IsNull() && v.AsBool() {
				out = append(out, row)
				matched = true
			}
		}
		if !matched && j.Kind == JoinLeft {
			out = append(out, concatTuples(l, nullRight))
		}
	}
	return out, combined, nil
}

// equiJoinCols recognises ON a.x = b.y with one side in each schema.
func equiJoinCols(on Expr, leftRS, rightRS rowSchema) (lIdx, rIdx int, ok bool) {
	be, isBin := on.(BinaryExpr)
	if !isBin || be.Op != "=" {
		return 0, 0, false
	}
	lc, lok := be.Left.(ColumnRef)
	rc, rok := be.Right.(ColumnRef)
	if !lok || !rok {
		return 0, 0, false
	}
	if li, err := leftRS.resolve(lc.Table, lc.Name); err == nil {
		if ri, err := rightRS.resolve(rc.Table, rc.Name); err == nil {
			return li, ri, true
		}
	}
	if li, err := leftRS.resolve(rc.Table, rc.Name); err == nil {
		if ri, err := rightRS.resolve(lc.Table, lc.Name); err == nil {
			return li, ri, true
		}
	}
	return 0, 0, false
}

func concatTuples(a, b engine.Tuple) engine.Tuple {
	out := make(engine.Tuple, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

func nullTuple(n int) engine.Tuple {
	t := make(engine.Tuple, n)
	for i := range t {
		t[i] = engine.Null
	}
	return t
}

// expandItems resolves "*" items into explicit column refs and derives
// output names.
func expandItems(items []SelectItem, rs rowSchema) ([]Expr, []string, error) {
	var exprs []Expr
	var names []string
	for _, item := range items {
		if item.Star {
			table := strings.ToLower(item.Table)
			found := false
			for _, c := range rs {
				if table != "" && c.Table != table {
					continue
				}
				exprs = append(exprs, ColumnRef{Table: c.Table, Name: c.Name})
				names = append(names, c.Name)
				found = true
			}
			if !found {
				return nil, nil, fmt.Errorf("relational: %s.* matches no columns", item.Table)
			}
			continue
		}
		exprs = append(exprs, item.Expr)
		name := item.Alias
		if name == "" {
			if cr, ok := item.Expr.(ColumnRef); ok {
				name = cr.Name
			} else {
				name = exprKey(item.Expr)
			}
		}
		names = append(names, name)
	}
	return exprs, names, nil
}

// projectPlain projects ungrouped rows. Hidden ORDER BY columns are
// appended after the visible ones.
func (db *DB) projectPlain(s *Select, ws *rowset) (*engine.Relation, error) {
	rs := ws.rs
	exprs, names, err := expandItems(s.Items, rs)
	if err != nil {
		return nil, err
	}
	// Vectorized projection: every output expression compiles to a
	// kernel and there is no ORDER BY (whose alias/positional references
	// need the row-path machinery).
	if !ws.isRows && len(s.OrderBy) == 0 {
		if rel, ok, err := projectPlainVec(exprs, names, ws); err != nil {
			return nil, err
		} else if ok {
			return rel, nil
		}
	}
	rows := db.toRows(ws, fallbackProject)
	evals := make([]evaluator, len(exprs))
	for i, e := range exprs {
		evals[i], err = compileExpr(e, rs, nil)
		if err != nil {
			return nil, err
		}
	}
	orderEvals, err := compileOrderBy(s.OrderBy, rs, exprs, names, nil)
	if err != nil {
		return nil, err
	}
	schema := outputSchema(names, exprs, rs)
	out := engine.NewRelation(schema)
	out.Tuples = make([]engine.Tuple, 0, len(rows))
	width := len(evals) + len(orderEvals)
	for _, row := range rows {
		t := make(engine.Tuple, 0, width)
		for _, ev := range evals {
			v, err := ev(row)
			if err != nil {
				return nil, err
			}
			t = append(t, v)
		}
		for _, ev := range orderEvals {
			v, err := ev(t, row)
			if err != nil {
				return nil, err
			}
			t = append(t, v)
		}
		out.Tuples = append(out.Tuples, t)
	}
	return out, nil
}

// projectPlainVec evaluates the output expressions as column kernels
// over the selection, chunk by chunk, and assembles the result tuples
// from one arena.
func projectPlainVec(exprs []Expr, names []string, ws *rowset) (*engine.Relation, bool, error) {
	vc := &vecCompiler{views: ws.views, rs: ws.rs}
	evs := make([]vecExpr, len(exprs))
	for i, e := range exprs {
		ev, ok := vc.compile(e)
		if !ok {
			return nil, false, nil
		}
		evs[i] = ev
	}
	n := ws.n
	if ws.sel != nil {
		n = len(ws.sel)
	}
	out := engine.NewRelation(outputSchema(names, exprs, ws.rs))
	ncols := len(evs)
	out.Tuples = make([]engine.Tuple, n)
	arena := make([]engine.Value, n*ncols)
	for k := range out.Tuples {
		out.Tuples[k] = engine.Tuple(arena[k*ncols : (k+1)*ncols : (k+1)*ncols])
	}
	sc := &scratch{}
	v := sc.getVec()
	base := 0
	err := ws.forChunks(func(chunk []int32) error {
		for j := range evs {
			if err := evs[j].eval(chunk, v, sc); err != nil {
				return err
			}
			for k := range chunk {
				arena[(base+k)*ncols+j] = v.valueAt(k)
			}
		}
		base += len(chunk)
		return nil
	})
	if err != nil {
		return nil, false, err
	}
	return out, true, nil
}

// orderEval evaluates an ORDER BY expression given the already-projected
// visible values (for alias references) and the source row.
type orderEval func(projected engine.Tuple, row engine.Tuple) (engine.Value, error)

func compileOrderBy(items []OrderItem, rs rowSchema, outExprs []Expr, outNames []string,
	aggLookup func(string, engine.Tuple) (engine.Value, bool)) ([]orderEval, error) {
	evals := make([]orderEval, 0, len(items))
	for _, o := range items {
		// Positional: ORDER BY 2.
		if lit, ok := o.Expr.(Literal); ok && lit.Val.Kind == engine.TypeInt {
			pos := int(lit.Val.I) - 1
			if pos < 0 || pos >= len(outExprs) {
				return nil, fmt.Errorf("relational: ORDER BY position %d out of range", pos+1)
			}
			evals = append(evals, func(projected, _ engine.Tuple) (engine.Value, error) {
				return projected[pos], nil
			})
			continue
		}
		// Alias reference: ORDER BY aliasName.
		if cr, ok := o.Expr.(ColumnRef); ok && cr.Table == "" {
			matched := -1
			for i, n := range outNames {
				if strings.EqualFold(n, cr.Name) {
					matched = i
					break
				}
			}
			// Prefer alias match when the name is not a source column, or
			// when it exactly names an output column.
			if matched >= 0 {
				if _, err := rs.resolve("", cr.Name); err != nil {
					pos := matched
					evals = append(evals, func(projected, _ engine.Tuple) (engine.Value, error) {
						return projected[pos], nil
					})
					continue
				}
				// Name exists both as alias and source column; alias wins
				// only if it aliases that same column.
				if crOut, ok := outExprs[matched].(ColumnRef); ok && strings.EqualFold(crOut.Name, cr.Name) {
					pos := matched
					evals = append(evals, func(projected, _ engine.Tuple) (engine.Value, error) {
						return projected[pos], nil
					})
					continue
				}
			}
		}
		ev, err := compileExpr(o.Expr, rs, aggLookup)
		if err != nil {
			return nil, err
		}
		evals = append(evals, func(_, row engine.Tuple) (engine.Value, error) { return ev(row) })
	}
	return evals, nil
}

// outputSchema infers output column types from expressions where
// possible, defaulting to FLOAT for computed values.
func outputSchema(names []string, exprs []Expr, rs rowSchema) engine.Schema {
	cols := make([]engine.Column, len(names))
	for i := range names {
		cols[i] = engine.Col(names[i], inferExprType(exprs[i], rs))
	}
	return engine.Schema{Columns: cols}
}

func inferExprType(e Expr, rs rowSchema) engine.Type {
	switch ex := e.(type) {
	case Literal:
		return ex.Val.Kind
	case ColumnRef:
		if idx, err := rs.resolve(ex.Table, ex.Name); err == nil {
			return rs[idx].Type
		}
	case FuncCall:
		switch ex.Name {
		case "COUNT", "LENGTH":
			return engine.TypeInt
		case "LOWER", "UPPER", "SUBSTR", "SUBSTRING", "CONCAT":
			return engine.TypeString
		case "MIN", "MAX", "SUM":
			if len(ex.Args) == 1 {
				return inferExprType(ex.Args[0], rs)
			}
		}
		return engine.TypeFloat
	case BinaryExpr:
		switch ex.Op {
		case "AND", "OR", "=", "<>", "<", "<=", ">", ">=", "LIKE":
			return engine.TypeBool
		case "||":
			return engine.TypeString
		default:
			lt := inferExprType(ex.Left, rs)
			rt := inferExprType(ex.Right, rs)
			if lt == engine.TypeInt && rt == engine.TypeInt && ex.Op != "/" {
				return engine.TypeInt
			}
			return engine.TypeFloat
		}
	case UnaryExpr:
		if ex.Op == "NOT" {
			return engine.TypeBool
		}
		return inferExprType(ex.Expr, rs)
	case InExpr, IsNullExpr, BetweenExpr:
		return engine.TypeBool
	}
	return engine.TypeFloat
}

// aggState accumulates one aggregate over one group.
type aggState struct {
	fn       string
	count    int64
	sum      float64
	sumSq    float64
	min, max engine.Value
	distinct map[string]bool
	hasVal   bool
}

func newAggState(fc FuncCall) *aggState {
	st := &aggState{fn: fc.Name}
	if fc.Distinct {
		st.distinct = map[string]bool{}
	}
	return st
}

func (st *aggState) add(v engine.Value) {
	if v.IsNull() {
		return
	}
	if st.distinct != nil {
		k := valueKey(v)
		if st.distinct[k] {
			return
		}
		st.distinct[k] = true
	}
	st.count++
	f := v.AsFloat()
	st.sum += f
	st.sumSq += f * f
	if !st.hasVal {
		st.min, st.max = v, v
		st.hasVal = true
	} else {
		if engine.Compare(v, st.min) < 0 {
			st.min = v
		}
		if engine.Compare(v, st.max) > 0 {
			st.max = v
		}
	}
}

func (st *aggState) result() engine.Value {
	switch st.fn {
	case "COUNT":
		return engine.NewInt(st.count)
	case "SUM":
		if st.count == 0 {
			return engine.Null
		}
		if st.sum == math.Trunc(st.sum) && st.min.Kind == engine.TypeInt && st.max.Kind == engine.TypeInt {
			return engine.NewInt(int64(st.sum))
		}
		return engine.NewFloat(st.sum)
	case "AVG":
		if st.count == 0 {
			return engine.Null
		}
		return engine.NewFloat(st.sum / float64(st.count))
	case "MIN":
		if !st.hasVal {
			return engine.Null
		}
		return st.min
	case "MAX":
		if !st.hasVal {
			return engine.Null
		}
		return st.max
	case "STDDEV":
		if st.count < 2 {
			return engine.Null
		}
		n := float64(st.count)
		variance := (st.sumSq - st.sum*st.sum/n) / (n - 1)
		if variance < 0 {
			variance = 0
		}
		return engine.NewFloat(math.Sqrt(variance))
	default:
		return engine.Null
	}
}

// aggGroup accumulates one GROUP BY bucket: the group's first source
// row (for evaluating non-aggregate expressions) and its aggregates.
type aggGroup struct {
	firstRow engine.Tuple
	aggs     []*aggState
}

func newAggGroup(firstRow engine.Tuple, aggCalls []FuncCall) *aggGroup {
	g := &aggGroup{firstRow: firstRow, aggs: make([]*aggState, len(aggCalls))}
	for i, fc := range aggCalls {
		g.aggs[i] = newAggState(fc)
	}
	return g
}

// projectGrouped handles GROUP BY / aggregate projection. Accumulation
// — the O(rows) part — runs vectorized when the group keys and
// aggregate arguments compile to kernels; the per-group output phase is
// shared with the row path.
func (db *DB) projectGrouped(s *Select, ws *rowset) (*engine.Relation, error) {
	rs := ws.rs
	exprs, names, err := expandItems(s.Items, rs)
	if err != nil {
		return nil, err
	}

	// Collect every aggregate appearing anywhere in the query.
	all := make([]Expr, 0, len(exprs)+2)
	all = append(all, exprs...)
	if s.Having != nil {
		all = append(all, s.Having)
	}
	for _, o := range s.OrderBy {
		all = append(all, o.Expr)
	}
	aggCalls := collectAggregates(all)
	aggKeys := make([]string, len(aggCalls))
	for i, fc := range aggCalls {
		aggKeys[i] = exprKey(fc)
		if !fc.Star && len(fc.Args) != 1 {
			return nil, fmt.Errorf("relational: %s expects 1 argument", fc.Name)
		}
	}

	// GROUP BY may reference an output alias; resolve once for both
	// accumulation paths.
	groupBy := make([]Expr, len(s.GroupBy))
	for i, g := range s.GroupBy {
		resolved := g
		if cr, ok := g.(ColumnRef); ok && cr.Table == "" {
			if _, err := rs.resolve("", cr.Name); err != nil {
				for j, n := range names {
					if strings.EqualFold(n, cr.Name) {
						resolved = exprs[j]
						break
					}
				}
			}
		}
		groupBy[i] = resolved
	}

	var groups []*aggGroup // in first-appearance order
	accumulated := false
	if !ws.isRows {
		groups, accumulated, err = groupAccumVec(ws, groupBy, aggCalls)
		if err != nil {
			return nil, err
		}
	}
	if !accumulated {
		groups, err = db.groupAccumRows(ws, groupBy, aggCalls)
		if err != nil {
			return nil, err
		}
	}
	// Aggregate-only query over zero rows still yields one group.
	if len(groups) == 0 && len(s.GroupBy) == 0 {
		groups = append(groups, newAggGroup(nullTuple(len(rs)), aggCalls))
	}

	// Compile output expressions with aggregate lookup. The lookup closes
	// over a per-row map swapped in while iterating groups.
	var currentAggs map[string]engine.Value
	aggLookup := func(key string, _ engine.Tuple) (engine.Value, bool) {
		v, ok := currentAggs[key]
		return v, ok
	}
	evals := make([]evaluator, len(exprs))
	for i, e := range exprs {
		evals[i], err = compileExpr(e, rs, aggLookup)
		if err != nil {
			return nil, err
		}
	}
	var having evaluator
	if s.Having != nil {
		having, err = compileExpr(s.Having, rs, aggLookup)
		if err != nil {
			return nil, err
		}
	}
	orderEvals, err := compileOrderBy(s.OrderBy, rs, exprs, names, aggLookup)
	if err != nil {
		return nil, err
	}

	schema := outputSchema(names, exprs, rs)
	// Aggregates get better type inference from their state.
	for i, e := range exprs {
		if fc, ok := e.(FuncCall); ok && aggregateNames[fc.Name] {
			switch fc.Name {
			case "COUNT":
				schema.Columns[i].Type = engine.TypeInt
			case "AVG", "STDDEV":
				schema.Columns[i].Type = engine.TypeFloat
			}
		}
	}
	out := engine.NewRelation(schema)
	for _, g := range groups {
		currentAggs = make(map[string]engine.Value, len(aggKeys))
		for i, key := range aggKeys {
			currentAggs[key] = g.aggs[i].result()
		}
		if having != nil {
			v, err := having(g.firstRow)
			if err != nil {
				return nil, err
			}
			if v.IsNull() || !v.AsBool() {
				continue
			}
		}
		t := make(engine.Tuple, 0, len(evals)+len(orderEvals))
		for _, ev := range evals {
			v, err := ev(g.firstRow)
			if err != nil {
				return nil, err
			}
			t = append(t, v)
		}
		for _, ev := range orderEvals {
			v, err := ev(t, g.firstRow)
			if err != nil {
				return nil, err
			}
			t = append(t, v)
		}
		out.Tuples = append(out.Tuples, t)
	}
	return out, nil
}

// groupAccumRows is the row-at-a-time accumulation loop: interpreted
// group-key and aggregate-argument closures per row. It returns the
// groups in first-appearance order.
func (db *DB) groupAccumRows(ws *rowset, groupBy []Expr, aggCalls []FuncCall) ([]*aggGroup, error) {
	rs := ws.rs
	groupEvals := make([]evaluator, len(groupBy))
	for i, g := range groupBy {
		ev, err := compileExpr(g, rs, nil)
		if err != nil {
			return nil, err
		}
		groupEvals[i] = ev
	}
	aggArgEvals := make([]evaluator, len(aggCalls))
	for i, fc := range aggCalls {
		if fc.Star {
			continue // COUNT(*)
		}
		ev, err := compileExpr(fc.Args[0], rs, nil)
		if err != nil {
			return nil, err
		}
		aggArgEvals[i] = ev
	}
	byKey := map[string]*aggGroup{}
	var groups []*aggGroup
	for _, row := range db.toRows(ws, fallbackGroup) {
		var kb strings.Builder
		for _, ge := range groupEvals {
			v, err := ge(row)
			if err != nil {
				return nil, err
			}
			kb.WriteString(valueKey(v))
			kb.WriteByte('\x1f')
		}
		k := kb.String()
		g, ok := byKey[k]
		if !ok {
			g = newAggGroup(row, aggCalls)
			byKey[k] = g
			groups = append(groups, g)
		}
		for i, st := range g.aggs {
			if aggArgEvals[i] == nil {
				st.count++ // COUNT(*)
				continue
			}
			v, err := aggArgEvals[i](row)
			if err != nil {
				return nil, err
			}
			st.add(v)
		}
	}
	return groups, nil
}
