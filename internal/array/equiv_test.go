package array

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/engine"
)

// The columnar Array must agree with refArray (the earlier boxed
// storage, reference_test.go) cell for cell — same cells, same order,
// same value kinds — on seeded random arrays: dense and sparse, one to
// three dimensions, NULL cells, attributes whose values stray from the
// declared type (demoting the vector to the generic form), and Sets
// that arrive out of order and collide.

const equivSeeds = 200

// sameValue compares kind and payload exactly (NaN equals NaN).
func sameValue(a, b engine.Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case engine.TypeNull:
		return true
	case engine.TypeInt:
		return a.I == b.I
	case engine.TypeFloat:
		return a.F == b.F || (math.IsNaN(a.F) && math.IsNaN(b.F))
	case engine.TypeString:
		return a.S == b.S
	default:
		return a.B == b.B
	}
}

func sameTuple(a, b engine.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameValue(a[i], b[i]) {
			return false
		}
	}
	return true
}

func sameRelation(t *testing.T, what string, got, want *engine.Relation) {
	t.Helper()
	if len(got.Schema.Columns) != len(want.Schema.Columns) {
		t.Fatalf("%s: schema %v, want %v", what, got.Schema.Columns, want.Schema.Columns)
	}
	for i, c := range want.Schema.Columns {
		if got.Schema.Columns[i] != c {
			t.Fatalf("%s: column %d = %v, want %v", what, i, got.Schema.Columns[i], c)
		}
	}
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d rows, want %d", what, got.Len(), want.Len())
	}
	for i := range want.Tuples {
		if !sameTuple(got.Tuples[i], want.Tuples[i]) {
			t.Fatalf("%s: row %d = %v, want %v", what, i, got.Tuples[i], want.Tuples[i])
		}
	}
}

var equivTypes = []engine.Type{engine.TypeFloat, engine.TypeInt, engine.TypeString, engine.TypeBool}

// randValue draws a value for an attribute of type typ: usually of that
// type, sometimes NULL, sometimes (when mixed) another kind entirely.
func randValue(r *rand.Rand, typ engine.Type, mixed bool) engine.Value {
	if r.Intn(8) == 0 {
		return engine.Null
	}
	if mixed && r.Intn(6) == 0 {
		typ = equivTypes[r.Intn(len(equivTypes))]
	}
	switch typ {
	case engine.TypeInt:
		return engine.NewInt(int64(r.Intn(21) - 10))
	case engine.TypeFloat:
		return engine.NewFloat(float64(r.Intn(400)-200) / 16)
	case engine.TypeString:
		return engine.NewString(fmt.Sprintf("s%d", r.Intn(7)))
	default:
		return engine.NewBool(r.Intn(2) == 0)
	}
}

type equivCase struct {
	arr    *Array
	ref    *refArray
	mixed  []bool
	coords [][]int64 // every coordinate written, for Get probes
}

func randCase(t *testing.T, r *rand.Rand) equivCase {
	t.Helper()
	nd := 1 + r.Intn(3)
	dims := make([]Dim, nd)
	for i := range dims {
		lo := int64(r.Intn(11) - 5)
		dims[i] = Dim{Name: fmt.Sprintf("d%d", i), Low: lo, High: lo + int64(r.Intn(9))}
	}
	na := 1 + r.Intn(3)
	attrs := make([]engine.Column, na)
	mixed := make([]bool, na)
	attrs[0] = engine.Col("v", engine.TypeFloat)
	for j := 1; j < na; j++ {
		attrs[j] = engine.Col(fmt.Sprintf("a%d", j), equivTypes[r.Intn(len(equivTypes))])
	}
	for j := range mixed {
		mixed[j] = r.Intn(3) == 0
	}
	dense := r.Intn(2) == 0
	arr, err := New("x", cloneDims(dims), attrs, dense)
	if err != nil {
		t.Fatal(err)
	}
	c := equivCase{arr: arr, ref: newRef(dims, attrs, dense), mixed: mixed}
	total := int64(1)
	for _, d := range dims {
		total *= d.Len()
	}
	writes := r.Intn(int(total) + 20)
	inOrder := r.Intn(3) == 0
	for w := 0; w < writes; w++ {
		idx := r.Int63n(total)
		if inOrder {
			idx = int64(w) * total / int64(writes)
		}
		coords := make([]int64, nd)
		c.ref.delinear(idx, coords)
		vals := make(engine.Tuple, na)
		for j, at := range attrs {
			vals[j] = randValue(r, at.Type, mixed[j])
		}
		if err := arr.Set(coords, vals); err != nil {
			t.Fatal(err)
		}
		if err := c.ref.Set(coords, vals); err != nil {
			t.Fatal(err)
		}
		c.coords = append(c.coords, coords)
	}
	return c
}

// equivPredicates are filter predicates over the cell schema: typed
// comparisons the vectorized kernels compile, dimension references,
// function calls and mixed-kind comparisons that take the row
// evaluator, and an error.
func equivPredicates(c equivCase) []string {
	preds := []string{
		"v > 0",
		"v <= 3.5 AND v > -2",
		"v IS NULL",
		"NOT (v < 1) OR v IS NULL",
		"ABS(v) > 4",
		"v",
		"d0 >= 0",
		fmt.Sprintf("d%d < 2 AND v > -5", len(c.arr.Dims)-1),
		"d0 BETWEEN -1 AND 2",
		"v IN (1, 2.5, -3)",
		"nope > 1",
	}
	for j := 1; j < len(c.arr.Attrs); j++ {
		preds = append(preds, fmt.Sprintf("a%d IS NOT NULL", j), fmt.Sprintf("a%d = 's3' OR a%d > 2", j, j))
	}
	return preds
}

func checkEquivalent(t *testing.T, c equivCase, what string) {
	t.Helper()
	if c.arr.Count() != c.ref.count {
		t.Fatalf("%s: Count %d, want %d", what, c.arr.Count(), c.ref.count)
	}
	for _, coords := range c.coords {
		got, gok, gerr := c.arr.Get(coords)
		want, wok, werr := c.ref.Get(coords)
		if gok != wok || (gerr == nil) != (werr == nil) || !sameTuple(got, want) {
			t.Fatalf("%s: Get(%v) = %v %v %v, want %v %v %v", what, coords, got, gok, gerr, want, wok, werr)
		}
	}
	type cell struct {
		coords []int64
		vals   engine.Tuple
	}
	var gotCells, wantCells []cell
	_ = c.arr.Iterate(func(coords []int64, vals engine.Tuple) error {
		gotCells = append(gotCells, cell{append([]int64(nil), coords...), vals.Clone()})
		return nil
	})
	_ = c.ref.Iterate(func(coords []int64, vals engine.Tuple) error {
		wantCells = append(wantCells, cell{append([]int64(nil), coords...), vals.Clone()})
		return nil
	})
	if len(gotCells) != len(wantCells) {
		t.Fatalf("%s: Iterate visits %d cells, want %d", what, len(gotCells), len(wantCells))
	}
	for i := range wantCells {
		if fmt.Sprint(gotCells[i].coords) != fmt.Sprint(wantCells[i].coords) || !sameTuple(gotCells[i].vals, wantCells[i].vals) {
			t.Fatalf("%s: Iterate cell %d = %v, want %v", what, i, gotCells[i], wantCells[i])
		}
	}
	sameRelation(t, what+": Scan", c.arr.Scan(), c.ref.Scan())
	sameRelation(t, what+": ScanBatch", c.arr.ScanBatch().ToRelation(), c.ref.Scan())

	for _, pred := range equivPredicates(c) {
		got, gerr := c.arr.Filter(pred)
		want, werr := c.ref.Filter(pred)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("%s: Filter(%q) error %v, want %v", what, pred, gerr, werr)
		}
		if gerr == nil {
			sameRelation(t, fmt.Sprintf("%s: Filter(%q)", what, pred), got.Scan(), want.Scan())
		}
	}
	kinds := []AggKind{AggSum, AggAvg, AggMin, AggMax, AggCount, AggStdev}
	for _, at := range c.arr.Attrs {
		for _, k := range kinds {
			got, gerr := c.arr.Aggregate(k, at.Name)
			want, werr := c.ref.Aggregate(k, at.Name)
			if gerr != nil || werr != nil || !sameValue(got, want) {
				t.Fatalf("%s: Aggregate(%s, %s) = %v %v, want %v %v", what, k, at.Name, got, gerr, want, werr)
			}
			for _, d := range c.arr.Dims {
				gotBy, gerr := c.arr.AggregateBy(k, at.Name, d.Name)
				wantBy, werr := c.ref.AggregateBy(k, at.Name, d.Name)
				if gerr != nil || werr != nil {
					t.Fatalf("%s: AggregateBy(%s, %s, %s): %v / %v", what, k, at.Name, d.Name, gerr, werr)
				}
				sameRelation(t, fmt.Sprintf("%s: AggregateBy(%s, %s, %s)", what, k, at.Name, d.Name), gotBy.Scan(), wantBy.Scan())
			}
		}
	}
}

func TestArrayEquivalence(t *testing.T) {
	for seed := int64(0); seed < equivSeeds; seed++ {
		r := rand.New(rand.NewSource(seed))
		c := randCase(t, r)
		checkEquivalent(t, c, fmt.Sprintf("seed %d", seed))
	}
}

// TestFromRelationEquivalence loads shuffled relations with colliding
// coordinates (and NULL or non-integer coordinates, which coerce) and
// checks the bulk load against one Set per row.
func TestFromRelationEquivalence(t *testing.T) {
	for seed := int64(0); seed < equivSeeds; seed++ {
		r := rand.New(rand.NewSource(seed))
		nd := 1 + r.Intn(3)
		cols := make([]engine.Column, 0, nd+2)
		var dimNames []string
		for i := 0; i < nd; i++ {
			name := fmt.Sprintf("d%d", i)
			dimNames = append(dimNames, name)
			cols = append(cols, engine.Col(name, engine.TypeInt))
		}
		cols = append(cols, engine.Col("v", engine.TypeFloat), engine.Col("s", engine.TypeString))
		// Put the attributes first sometimes: dims need not lead.
		if r.Intn(2) == 0 {
			cols = append(cols[nd:], cols[:nd]...)
		}
		rel := engine.NewRelation(engine.Schema{Columns: cols})
		rows := 1 + r.Intn(60)
		for i := 0; i < rows; i++ {
			row := make(engine.Tuple, len(cols))
			for j, col := range cols {
				switch {
				case col.Name == "v":
					row[j] = randValue(r, engine.TypeFloat, true)
				case col.Name == "s":
					row[j] = randValue(r, engine.TypeString, false)
				case r.Intn(25) == 0:
					row[j] = engine.Null
				case r.Intn(25) == 0:
					row[j] = engine.NewFloat(float64(r.Intn(6)) + 0.5)
				default:
					row[j] = engine.NewInt(int64(r.Intn(6) - 2))
				}
			}
			rel.Tuples = append(rel.Tuples, row)
		}
		dense := r.Intn(2) == 0
		arr, err := FromRelation("x", rel, dimNames, dense)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := refFromRelation(rel, dimNames, dense)
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range arr.Dims {
			if d != ref.dims[i] {
				t.Fatalf("seed %d: dim %d = %+v, want %+v", seed, i, d, ref.dims[i])
			}
		}
		c := equivCase{arr: arr, ref: ref}
		for _, row := range rel.Tuples {
			coords := make([]int64, nd)
			for i, dn := range dimNames {
				coords[i] = row[rel.Schema.Index(dn)].AsInt()
			}
			c.coords = append(c.coords, coords)
		}
		checkEquivalent(t, c, fmt.Sprintf("FromRelation seed %d", seed))
	}
	if _, err := FromRelation("x", engine.NewRelation(engine.NewSchema(engine.Col("i", engine.TypeInt), engine.Col("v", engine.TypeFloat))), []string{"i"}, false); err == nil {
		t.Error("empty relation should fail")
	}
}

// TestArrayConcurrentReads runs the read paths side by side on one
// array; under -race this proves no read mutates the array.
func TestArrayConcurrentReads(t *testing.T) {
	c := randCase(t, rand.New(rand.NewSource(7)))
	want := c.ref.Scan()
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if got := c.arr.Scan(); got.Len() != want.Len() {
					errs <- fmt.Errorf("scan: %d rows, want %d", got.Len(), want.Len())
					return
				}
				if _, err := c.arr.Filter("v > 0 AND d0 >= 0"); err != nil {
					errs <- err
					return
				}
				if _, err := c.arr.Aggregate(AggAvg, "v"); err != nil {
					errs <- err
					return
				}
				if _, err := c.arr.AggregateBy(AggSum, "v", "d0"); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestScanBatchStableUnderSet pins the hand-out contract: a batch taken
// from ScanBatch keeps its contents through later overwrites, NULL
// writes, kind demotion and out-of-order inserts.
func TestScanBatchStableUnderSet(t *testing.T) {
	a, err := New("x", []Dim{{Name: "i", Low: 0, High: 9}}, []engine.Column{engine.Col("v", engine.TypeFloat)}, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int64{1, 3, 5} {
		_ = a.Set([]int64{i}, engine.Tuple{engine.NewFloat(float64(i))})
	}
	cb := a.ScanBatch()
	before := cb.ToRelation()
	_ = a.Set([]int64{3}, engine.Tuple{engine.Null})
	_ = a.Set([]int64{1}, engine.Tuple{engine.NewString("x")})
	_ = a.Set([]int64{2}, engine.Tuple{engine.NewFloat(9)})
	_ = a.Set([]int64{5}, engine.Tuple{engine.NewFloat(-1)})
	sameRelation(t, "handed-out batch", cb.ToRelation(), before)
	if a.Count() != 4 {
		t.Errorf("Count = %d, want 4", a.Count())
	}
}
