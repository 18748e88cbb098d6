package array

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/engine"
	"repro/internal/relational"
)

// refArray is the array engine's earlier storage, kept as the oracle
// the columnar Array is checked against: dense arrays hold one boxed
// []engine.Value per attribute over the whole domain plus an occupancy
// vector, sparse arrays a map from linear index to a cloned tuple, and
// every operator walks the cells through Iterate and the interpreted
// row evaluator.
type refArray struct {
	dims  []Dim
	attrs []engine.Column
	dense bool

	data   [][]engine.Value       // dense: per attribute, row-major
	filled []bool                 // dense: cell occupancy
	cells  map[int64]engine.Tuple // sparse: linear index -> attr values
	count  int64
}

func newRef(dims []Dim, attrs []engine.Column, dense bool) *refArray {
	r := &refArray{dims: cloneDims(dims), attrs: attrs, dense: dense}
	if dense {
		total := int64(1)
		for _, d := range dims {
			total *= d.Len()
		}
		r.data = make([][]engine.Value, len(attrs))
		for i := range r.data {
			r.data[i] = make([]engine.Value, total)
		}
		r.filled = make([]bool, total)
	} else {
		r.cells = map[int64]engine.Tuple{}
	}
	return r
}

func (r *refArray) linear(coords []int64) (int64, error) {
	if len(coords) != len(r.dims) {
		return 0, fmt.Errorf("ref: got %d coords, want %d", len(coords), len(r.dims))
	}
	var idx int64
	for i, d := range r.dims {
		c := coords[i]
		if c < d.Low || c > d.High {
			return 0, fmt.Errorf("ref: coordinate %s=%d outside [%d,%d]", d.Name, c, d.Low, d.High)
		}
		idx = idx*d.Len() + (c - d.Low)
	}
	return idx, nil
}

func (r *refArray) delinear(idx int64, coords []int64) {
	for i := len(r.dims) - 1; i >= 0; i-- {
		d := r.dims[i]
		coords[i] = d.Low + idx%d.Len()
		idx /= d.Len()
	}
}

func (r *refArray) Set(coords []int64, vals engine.Tuple) error {
	if len(vals) != len(r.attrs) {
		return fmt.Errorf("ref: got %d values, want %d attrs", len(vals), len(r.attrs))
	}
	idx, err := r.linear(coords)
	if err != nil {
		return err
	}
	if r.dense {
		if !r.filled[idx] {
			r.filled[idx] = true
			r.count++
		}
		for i, v := range vals {
			r.data[i][idx] = v
		}
		return nil
	}
	if _, ok := r.cells[idx]; !ok {
		r.count++
	}
	r.cells[idx] = vals.Clone()
	return nil
}

func (r *refArray) Get(coords []int64) (engine.Tuple, bool, error) {
	idx, err := r.linear(coords)
	if err != nil {
		return nil, false, err
	}
	if r.dense {
		if !r.filled[idx] {
			return nil, false, nil
		}
		t := make(engine.Tuple, len(r.attrs))
		for i := range t {
			t[i] = r.data[i][idx]
		}
		return t, true, nil
	}
	t, ok := r.cells[idx]
	if !ok {
		return nil, false, nil
	}
	return t.Clone(), true, nil
}

func (r *refArray) Iterate(fn func(coords []int64, vals engine.Tuple) error) error {
	coords := make([]int64, len(r.dims))
	if r.dense {
		vals := make(engine.Tuple, len(r.attrs))
		for idx := range r.filled {
			if !r.filled[idx] {
				continue
			}
			r.delinear(int64(idx), coords)
			for i := range vals {
				vals[i] = r.data[i][idx]
			}
			if err := fn(coords, vals); err != nil {
				return err
			}
		}
		return nil
	}
	idxs := make([]int64, 0, len(r.cells))
	for idx := range r.cells {
		idxs = append(idxs, idx)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	for _, idx := range idxs {
		r.delinear(idx, coords)
		if err := fn(coords, r.cells[idx]); err != nil {
			return err
		}
	}
	return nil
}

func (r *refArray) cellSchema() engine.Schema {
	cols := make([]engine.Column, 0, len(r.dims)+len(r.attrs))
	for _, d := range r.dims {
		cols = append(cols, engine.Col(d.Name, engine.TypeInt))
	}
	cols = append(cols, r.attrs...)
	return engine.Schema{Columns: cols}
}

func (r *refArray) Scan() *engine.Relation {
	rel := engine.NewRelation(r.cellSchema())
	rel.Tuples = make([]engine.Tuple, 0, r.count)
	_ = r.Iterate(func(coords []int64, vals engine.Tuple) error {
		row := make(engine.Tuple, 0, len(coords)+len(vals))
		for _, c := range coords {
			row = append(row, engine.NewInt(c))
		}
		row = append(row, vals...)
		rel.Tuples = append(rel.Tuples, row)
		return nil
	})
	return rel
}

func (r *refArray) attrIndex(name string) (int, error) {
	for i, at := range r.attrs {
		if strings.EqualFold(at.Name, name) {
			return i, nil
		}
	}
	return -1, fmt.Errorf("ref: no attribute %q", name)
}

func (r *refArray) Filter(predicate string) (*refArray, error) {
	cols := r.cellSchema().Columns
	pred, err := relational.CompileRowExpr(predicate, cols)
	if err != nil {
		return nil, err
	}
	out := newRef(r.dims, r.attrs, false)
	row := make(engine.Tuple, len(cols))
	err = r.Iterate(func(coords []int64, vals engine.Tuple) error {
		for i, c := range coords {
			row[i] = engine.NewInt(c)
		}
		copy(row[len(coords):], vals)
		v, err := pred(row)
		if err != nil {
			return err
		}
		if !v.IsNull() && v.AsBool() {
			return out.Set(coords, vals.Clone())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (r *refArray) Aggregate(kind AggKind, attr string) (engine.Value, error) {
	ai, err := r.attrIndex(attr)
	if err != nil {
		return engine.Null, err
	}
	ac := newAggAcc(kind)
	err = r.Iterate(func(_ []int64, vals engine.Tuple) error {
		ac.add(vals[ai].AsFloat())
		return nil
	})
	return ac.result(), err
}

func (r *refArray) AggregateBy(kind AggKind, attr, dim string) (*refArray, error) {
	ai, err := r.attrIndex(attr)
	if err != nil {
		return nil, err
	}
	di := -1
	for i, d := range r.dims {
		if d.Name == dim {
			di = i
			break
		}
	}
	if di < 0 {
		return nil, fmt.Errorf("ref: no dimension %q", dim)
	}
	d := r.dims[di]
	accs := make([]*aggAcc, d.Len())
	for i := range accs {
		accs[i] = newAggAcc(kind)
	}
	_ = r.Iterate(func(coords []int64, vals engine.Tuple) error {
		accs[coords[di]-d.Low].add(vals[ai].AsFloat())
		return nil
	})
	out := newRef([]Dim{{Name: d.Name, Low: d.Low, High: d.High}},
		[]engine.Column{engine.Col(string(kind)+"_"+attr, engine.TypeFloat)}, true)
	for i, ac := range accs {
		if err := out.Set([]int64{d.Low + int64(i)}, engine.Tuple{ac.result()}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// refFromRelation is the earlier CAST ingest: dims spanning the
// relation's coordinate range, then one Set per row, in row order, so
// the last row at a coordinate wins.
func refFromRelation(rel *engine.Relation, dimNames []string, dense bool) (*refArray, error) {
	if rel.Len() == 0 {
		return nil, fmt.Errorf("ref: empty relation")
	}
	dimIdx := make([]int, len(dimNames))
	isDim := map[int]bool{}
	for i, dn := range dimNames {
		j, err := rel.Schema.MustIndex(dn)
		if err != nil {
			return nil, err
		}
		dimIdx[i] = j
		isDim[j] = true
	}
	var attrs []engine.Column
	var attrIdx []int
	for j, c := range rel.Schema.Columns {
		if !isDim[j] {
			attrs = append(attrs, c)
			attrIdx = append(attrIdx, j)
		}
	}
	dims := make([]Dim, len(dimNames))
	for i, dn := range dimNames {
		lo, hi := int64(1<<62), int64(-1<<62)
		for _, row := range rel.Tuples {
			c := row[dimIdx[i]].AsInt()
			lo, hi = min(lo, c), max(hi, c)
		}
		dims[i] = Dim{Name: dn, Low: lo, High: hi, Chunk: hi - lo + 1}
	}
	r := newRef(dims, attrs, dense)
	coords := make([]int64, len(dimNames))
	for _, row := range rel.Tuples {
		for i, j := range dimIdx {
			coords[i] = row[j].AsInt()
		}
		vals := make(engine.Tuple, len(attrIdx))
		for i, j := range attrIdx {
			vals[i] = row[j]
		}
		if err := r.Set(coords, vals); err != nil {
			return nil, err
		}
	}
	return r, nil
}
