// Package array implements BigDAWG's SciDB substitute: an n-dimensional
// array engine with named dimensions, typed attributes and AQL-style
// operators (filter, subarray, apply, regrid, window, aggregate, matrix
// multiply, transpose). It backs the array island and the SciDB
// degenerate island; MIMIC II historical waveforms live here.
//
// Arrays are stored on the relational engine's columnar substrate: the
// populated cells are a sorted []int64 of row-major linear coordinates
// plus an engine.ColumnBatch of attributes (typed vectors with NULL
// bitmaps), one representation for dense and sparse arrays alike.
// Filter runs its predicate through the relational engine's batch
// filter (vectorized kernels, row evaluator as fallback), aggregates are
// typed loops over the attribute vectors, ScanBatch and FromBatch are
// the columnar CAST egress and bulk ingest, and Set/Get/Iterate/Scan/
// Floats remain as cell-at-a-time views over the same storage.
package array

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/engine"
)

// Dim is one array dimension with an inclusive integer domain
// [Low, High] and a chunk length used to tile storage.
type Dim struct {
	Name      string
	Low, High int64
	Chunk     int64
}

// Len returns the number of coordinates along the dimension.
func (d Dim) Len() int64 { return d.High - d.Low + 1 }

// Array is a multidimensional array: dimensions plus one or more typed
// attributes, stored the way the relational engine stores a table. The
// populated cells are a sorted []int64 of row-major linear coordinates
// and an engine.ColumnBatch of attributes whose row k is the cell at
// coords[k]: one typed vector (with a NULL bitmap) per attribute, or
// the generic boxed form for an attribute whose values mix kinds. A
// cell written with NULL attributes is still populated; a coordinate
// never written is empty and is skipped by every scan.
//
// Dense and sparse arrays share this representation. A dense array's
// domain must be small enough to enumerate (Fill, Floats); a sparse
// domain may be as large as int64 allows.
//
// Set appends in O(1) when cells arrive in coordinate order (Fill, the
// operators, bulk loads) and costs O(cells) otherwise. Batches handed
// out by ScanBatch are copies, so a later Set never changes them.
type Array struct {
	Name  string
	Dims  []Dim
	Attrs []engine.Column

	dense  bool
	coords []int64             // linear index of each populated cell, ascending
	batch  *engine.ColumnBatch // attribute values; row k is the cell at coords[k]
}

// New creates an array. Dense arrays must have a bounded domain small
// enough to enumerate; sparse arrays may span any int64 domain.
func New(name string, dims []Dim, attrs []engine.Column, dense bool) (*Array, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("array: %s: need at least one dimension", name)
	}
	if len(attrs) == 0 {
		return nil, fmt.Errorf("array: %s: need at least one attribute", name)
	}
	total := int64(1)
	for i, d := range dims {
		if d.High < d.Low {
			return nil, fmt.Errorf("array: %s: dimension %s has empty domain", name, d.Name)
		}
		if d.Chunk <= 0 {
			dims[i].Chunk = d.Len()
		}
		if dense {
			if d.Len() > (1<<31) || total > (1<<31)/d.Len() {
				return nil, fmt.Errorf("array: %s: dense domain too large", name)
			}
			total *= d.Len()
		}
	}
	return &Array{Name: name, Dims: dims, Attrs: attrs, dense: dense,
		batch: engine.NewColumnBatch(engine.Schema{Columns: attrs}, 0)}, nil
}

// Dense reports whether the array uses dense storage.
func (a *Array) Dense() bool { return a.dense }

// Count returns the number of populated cells.
func (a *Array) Count() int64 { return int64(len(a.coords)) }

// linear maps coordinates to a row-major linear index.
func (a *Array) linear(coords []int64) (int64, error) {
	if len(coords) != len(a.Dims) {
		return 0, fmt.Errorf("array: %s: got %d coords, want %d", a.Name, len(coords), len(a.Dims))
	}
	var idx int64
	for i, d := range a.Dims {
		c := coords[i]
		if c < d.Low || c > d.High {
			return 0, fmt.Errorf("array: %s: coordinate %s=%d outside [%d,%d]", a.Name, d.Name, c, d.Low, d.High)
		}
		idx = idx*d.Len() + (c - d.Low)
	}
	return idx, nil
}

// delinear inverts linear into the provided coords slice.
func (a *Array) delinear(idx int64, coords []int64) {
	for i := len(a.Dims) - 1; i >= 0; i-- {
		d := a.Dims[i]
		coords[i] = d.Low + idx%d.Len()
		idx /= d.Len()
	}
}

// Set writes one cell's attribute values.
func (a *Array) Set(coords []int64, vals engine.Tuple) error {
	if len(vals) != len(a.Attrs) {
		return fmt.Errorf("array: %s: got %d values, want %d attrs", a.Name, len(vals), len(a.Attrs))
	}
	idx, err := a.linear(coords)
	if err != nil {
		return err
	}
	n := len(a.coords)
	if n == 0 || idx > a.coords[n-1] {
		a.coords = append(a.coords, idx)
		return a.batch.AppendTuple(vals)
	}
	k, found := slices.BinarySearch(a.coords, idx)
	if found {
		for j, v := range vals {
			setValue(&a.batch.Cols[j], k, v)
		}
		return nil
	}
	// Out of order: append, then move the new last row to row k.
	if err := a.batch.AppendTuple(vals); err != nil {
		return err
	}
	a.coords = slices.Insert(a.coords, k, idx)
	order := make([]int32, 0, n+1)
	for i := 0; i < k; i++ {
		order = append(order, int32(i))
	}
	order = append(order, int32(n))
	for i := k; i < n; i++ {
		order = append(order, int32(i))
	}
	a.batch = gatherBatch(a.batch, order)
	return nil
}

// Get reads one cell; ok is false for empty cells.
func (a *Array) Get(coords []int64) (engine.Tuple, bool, error) {
	idx, err := a.linear(coords)
	if err != nil {
		return nil, false, err
	}
	k, found := slices.BinarySearch(a.coords, idx)
	if !found {
		return nil, false, nil
	}
	return a.batch.Row(k), true, nil
}

// Fill populates every cell of the domain from fn(coords). Intended for
// dense arrays and synthetic data loading.
func (a *Array) Fill(fn func(coords []int64) engine.Tuple) error {
	coords := make([]int64, len(a.Dims))
	total := int64(1)
	for _, d := range a.Dims {
		total *= d.Len()
	}
	for idx := int64(0); idx < total; idx++ {
		a.delinear(idx, coords)
		if err := a.Set(coords, fn(coords)); err != nil {
			return err
		}
	}
	return nil
}

// Iterate calls fn for every populated cell in row-major order. The
// coords and vals slices are reused across calls; clone to retain.
func (a *Array) Iterate(fn func(coords []int64, vals engine.Tuple) error) error {
	coords := make([]int64, len(a.Dims))
	vals := make(engine.Tuple, len(a.Attrs))
	for k, idx := range a.coords {
		a.delinear(idx, coords)
		for j := range vals {
			vals[j] = a.batch.Cols[j].Value(k)
		}
		if err := fn(coords, vals); err != nil {
			return err
		}
	}
	return nil
}

// cellSchema is the relation schema of flattened cells: dims then attrs.
func (a *Array) cellSchema() engine.Schema {
	cols := make([]engine.Column, 0, len(a.Dims)+len(a.Attrs))
	for _, d := range a.Dims {
		cols = append(cols, engine.Col(d.Name, engine.TypeInt))
	}
	cols = append(cols, a.Attrs...)
	return engine.Schema{Columns: cols}
}

// Schema returns the relation schema of the array's flattened cells
// (dimension columns, then attribute columns) without materialising
// them — what Scan would produce. The polystore's pushdown planner uses
// it to validate predicates against array-resident objects.
func (a *Array) Schema() engine.Schema { return a.cellSchema() }

// dimColumn derives dimension di's coordinate for every populated cell.
func (a *Array) dimColumn(di int) engine.ColVec {
	stride := int64(1)
	for _, d := range a.Dims[di+1:] {
		stride *= d.Len()
	}
	d := a.Dims[di]
	n := d.Len()
	out := make([]int64, len(a.coords))
	for k, idx := range a.coords {
		out[k] = d.Low + idx/stride%n
	}
	return engine.ColVec{Kind: engine.TypeInt, Ints: out}
}

// ScanBatch flattens the array into a column batch with one row per
// populated cell, in coordinate order: dimension columns followed by
// attribute columns. This is the columnar CAST egress path from the
// array island. The batch owns its vectors (attributes are copied), so
// it stays valid whatever is later written to the array.
func (a *Array) ScanBatch() *engine.ColumnBatch {
	nd := len(a.Dims)
	cb := &engine.ColumnBatch{
		Schema:  a.cellSchema(),
		Cols:    make([]engine.ColVec, nd+len(a.Attrs)),
		NumRows: len(a.coords),
	}
	for di := range a.Dims {
		cb.Cols[di] = a.dimColumn(di)
	}
	for j := range a.batch.Cols {
		cb.Cols[nd+j] = cloneVec(&a.batch.Cols[j])
	}
	return cb
}

// Scan flattens the array into a relation with one row per populated
// cell: dimension columns followed by attribute columns.
func (a *Array) Scan() *engine.Relation { return a.ScanBatch().ToRelation() }

// FromRelation builds an array from a relation whose named columns are
// integer coordinates; see FromBatch.
func FromRelation(name string, rel *engine.Relation, dimNames []string, dense bool) (*Array, error) {
	return FromBatch(name, engine.BatchFromRelation(rel), dimNames, dense)
}

// FromBatch builds an array from a column batch whose named columns are
// coordinates (coerced to integers) and whose other columns become the
// attributes, in schema order. Each dimension spans the coordinates
// present. It is the bulk CAST ingest path into the array island: the
// rows are stable-sorted by cell, and when several rows land on one
// cell the last of them wins, exactly as one Set per row would leave
// it. The batch is copied, never retained.
func FromBatch(name string, cb *engine.ColumnBatch, dimNames []string, dense bool) (*Array, error) {
	if cb.NumRows == 0 {
		return nil, fmt.Errorf("array: cannot infer array %s from empty relation", name)
	}
	dimCoords := make([][]int64, len(dimNames))
	isDim := make([]bool, len(cb.Cols))
	dims := make([]Dim, len(dimNames))
	for i, dn := range dimNames {
		j, err := cb.Schema.MustIndex(dn)
		if err != nil {
			return nil, err
		}
		isDim[j] = true
		dimCoords[i] = intsOf(&cb.Cols[j], cb.NumRows)
		lo, hi := slices.Min(dimCoords[i]), slices.Max(dimCoords[i])
		dims[i] = Dim{Name: dn, Low: lo, High: hi}
	}
	var attrs []engine.Column
	var attrCols []engine.ColVec
	for j, c := range cb.Schema.Columns {
		if !isDim[j] {
			attrs = append(attrs, c)
			attrCols = append(attrCols, cb.Cols[j])
		}
	}
	a, err := New(name, dims, attrs, dense)
	if err != nil {
		return nil, err
	}
	lin := make([]int64, cb.NumRows)
	for i, d := range dims {
		n := d.Len()
		for r, c := range dimCoords[i] {
			lin[r] = lin[r]*n + (c - d.Low)
		}
	}
	order := make([]int32, cb.NumRows)
	for r := range order {
		order[r] = int32(r)
	}
	if !slices.IsSorted(lin) {
		slices.SortStableFunc(order, func(x, y int32) int { return cmp.Compare(lin[x], lin[y]) })
	}
	// Last writer wins: of each run of rows on one cell keep the last.
	kept := order[:0]
	for k, r := range order {
		if k+1 < len(order) && lin[order[k+1]] == lin[r] {
			continue
		}
		kept = append(kept, r)
	}
	a.coords = make([]int64, len(kept))
	for k, r := range kept {
		a.coords[k] = lin[r]
	}
	src := &engine.ColumnBatch{Schema: engine.Schema{Columns: attrs}, Cols: attrCols, NumRows: cb.NumRows}
	a.batch = gatherBatch(src, kept)
	return a, nil
}

// attrIndex finds the position of the named attribute.
func (a *Array) attrIndex(name string) (int, error) {
	for i, at := range a.Attrs {
		if strings.EqualFold(at.Name, name) {
			return i, nil
		}
	}
	return -1, fmt.Errorf("array: %s: no attribute %q", a.Name, name)
}

// Floats extracts one attribute of a 1-D array as a dense float slice
// ordered by coordinate, with NaN for empty cells. Used by the
// analytics package (FFT, regression) for tight coupling with the array
// engine — the design §2.4 of the paper argues for.
func (a *Array) Floats(attr string) ([]float64, error) {
	if len(a.Dims) != 1 {
		return nil, fmt.Errorf("array: %s: Floats requires 1-D array", a.Name)
	}
	ai, err := a.attrIndex(attr)
	if err != nil {
		return nil, err
	}
	out := make([]float64, a.Dims[0].Len())
	for i := range out {
		out[i] = math.NaN()
	}
	col := &a.batch.Cols[ai]
	for k, idx := range a.coords {
		out[idx] = col.Value(k).AsFloat()
	}
	return out, nil
}

// intsOf reads a coordinate column as integers, coercing like
// Value.AsInt (NULL reads as 0). Typed INT columns are returned as is.
func intsOf(c *engine.ColVec, n int) []int64 {
	if c.Kind == engine.TypeInt {
		return c.Ints
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = c.Value(i).AsInt()
	}
	return out
}

// setValue overwrites row i of c with v, demoting c to the generic
// representation when v's kind does not fit the typed vector.
func setValue(c *engine.ColVec, i int, v engine.Value) {
	if c.Kind != engine.TypeNull && v.Kind != engine.TypeNull && v.Kind != c.Kind {
		boxed := make([]engine.Value, c.Len())
		for r := range boxed {
			boxed[r] = c.Value(r)
		}
		*c = engine.ColVec{Kind: engine.TypeNull, Any: boxed}
	}
	if c.Kind == engine.TypeNull {
		c.Any[i] = v
		return
	}
	if v.Kind == engine.TypeNull {
		c.Nulls.Set(i)
	} else if w := i >> 6; w < len(c.Nulls) {
		c.Nulls[w] &^= 1 << (uint(i) & 63)
	}
	switch c.Kind {
	case engine.TypeInt:
		c.Ints[i] = v.I
	case engine.TypeFloat:
		c.Floats[i] = v.F
	case engine.TypeString:
		c.Strs[i] = v.S
	case engine.TypeBool:
		c.Bools[i] = v.B
	}
}

// cloneVec returns a copy of c that shares no memory with it.
func cloneVec(c *engine.ColVec) engine.ColVec {
	return engine.ColVec{
		Kind:   c.Kind,
		Ints:   slices.Clone(c.Ints),
		Floats: slices.Clone(c.Floats),
		Strs:   slices.Clone(c.Strs),
		Bools:  slices.Clone(c.Bools),
		Any:    slices.Clone(c.Any),
		Nulls:  slices.Clone(c.Nulls),
	}
}

// gatherBatch returns a new batch holding src's rows at the given
// indexes, in order.
func gatherBatch(src *engine.ColumnBatch, rows []int32) *engine.ColumnBatch {
	out := &engine.ColumnBatch{Schema: src.Schema, Cols: make([]engine.ColVec, len(src.Cols)), NumRows: len(rows)}
	for j := range src.Cols {
		out.Cols[j] = gatherVec(&src.Cols[j], rows)
	}
	return out
}

func gatherVec(c *engine.ColVec, rows []int32) engine.ColVec {
	out := engine.ColVec{Kind: c.Kind}
	switch c.Kind {
	case engine.TypeInt:
		out.Ints = gather(c.Ints, rows)
	case engine.TypeFloat:
		out.Floats = gather(c.Floats, rows)
	case engine.TypeString:
		out.Strs = gather(c.Strs, rows)
	case engine.TypeBool:
		out.Bools = gather(c.Bools, rows)
	default:
		out.Any = gather(c.Any, rows)
	}
	if !c.Nulls.Empty() {
		for k, r := range rows {
			if c.Nulls.Get(int(r)) {
				out.Nulls.Set(k)
			}
		}
	}
	return out
}

func gather[T any](src []T, rows []int32) []T {
	out := make([]T, len(rows))
	for k, r := range rows {
		out[k] = src[r]
	}
	return out
}
