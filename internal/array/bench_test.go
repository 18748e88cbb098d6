package array

import (
	"testing"

	"repro/internal/engine"
)

func benchArray(b *testing.B, n int64) *Array {
	b.Helper()
	a, err := New("bench", []Dim{{Name: "i", Low: 0, High: n - 1}},
		[]engine.Column{engine.Col("v", engine.TypeFloat)}, true)
	if err != nil {
		b.Fatal(err)
	}
	if err := a.Fill(func(c []int64) engine.Tuple {
		return engine.Tuple{engine.NewFloat(float64(c[0]%97) / 7)}
	}); err != nil {
		b.Fatal(err)
	}
	return a
}

func BenchmarkAggregateDense(b *testing.B) {
	a := benchArray(b, 100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Aggregate(AggAvg, "v"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFilter(b *testing.B) {
	a := benchArray(b, 50_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Filter("v > 10"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFromRelation measures the bulk CAST ingest into the array
// island: 100k (i, v) rows loaded into a sparse 1-D array.
func BenchmarkFromRelation(b *testing.B) {
	rel := benchArray(b, 100_000).Scan()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FromRelation("bench", rel, []string{"i"}, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRegrid(b *testing.B) {
	a := benchArray(b, 50_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Regrid([]int64{100}, AggAvg, "v"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWindowAggregate(b *testing.B) {
	a := benchArray(b, 10_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Window(5, AggAvg, "v"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatmul(b *testing.B) {
	const n = 64
	m, err := New("m", []Dim{{Name: "r", Low: 0, High: n - 1}, {Name: "c", Low: 0, High: n - 1}},
		[]engine.Column{engine.Col("v", engine.TypeFloat)}, true)
	if err != nil {
		b.Fatal(err)
	}
	_ = m.Fill(func(c []int64) engine.Tuple {
		return engine.Tuple{engine.NewFloat(float64(c[0]+c[1]) / 9)}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Matmul(m, m, "v", "v"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStoreQueryPipeline(b *testing.B) {
	s := NewStore()
	s.Put(benchArray(b, 20_000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Query("aggregate(filter(bench, v > 5), count(v))"); err != nil {
			b.Fatal(err)
		}
	}
}
