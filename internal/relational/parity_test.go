package relational

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
)

// TestVectorizedParitySeeded compares the vectorized executor with the
// row executor (SetVectorized(false), the oracle) over random tables and
// random queries, 200 seeds. Tables carry NULLs in every column kind and
// duplicate and missing join keys; queries run INNER, LEFT, multi-way,
// non-equi and CROSS joins with WHERE conjuncts on either side (so
// pushdown below the joins applies or must not), unqualified names that
// become ambiguous after a join, guarded and unguarded / and %, OR,
// NOT, IN, BETWEEN, LIKE and IS NULL, and GROUP BY over int, string,
// bool, composite, expression and NULL keys with HAVING, ORDER BY and
// LIMIT. Rows (in order), kinds, NULLs and errors must match.
func TestVectorizedParitySeeded(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := parityTables(t, rng)
		for q := 0; q < 16; q++ {
			query := parityQuery(rng)
			if err := compareExecutors(db, query); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
	}
}

// TestVectorizedParityConcurrent runs grouped and joined queries from
// several goroutines right after a write, so the fresh snapshot's
// dictionaries are built under concurrent readers (run it with -race),
// and checks every answer against the row executor's.
func TestVectorizedParityConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := parityTables(t, rng)
	queries := []string{
		`SELECT ta.s, COUNT(*), AVG(ta.f) FROM ta GROUP BY ta.s`,
		`SELECT tb.name, COUNT(*), SUM(ta.k) FROM ta JOIN tb ON ta.k = tb.k WHERE ta.f > 1 GROUP BY tb.name`,
		`SELECT tb.s, MIN(ta.s) FROM ta LEFT JOIN tb ON ta.k = tb.k GROUP BY tb.s`,
	}
	for round := 0; round < 5; round++ {
		if _, err := db.Execute(fmt.Sprintf(`INSERT INTO ta VALUES (%d, 1, 2.5, 's1', true, 1)`, 1000+round)); err != nil {
			t.Fatal(err)
		}
		want := make([]*engine.Relation, len(queries))
		db.SetVectorized(false)
		for i, q := range queries {
			rel, err := db.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = rel
		}
		db.SetVectorized(true)
		var wg sync.WaitGroup
		errs := make(chan error, 4*len(queries))
		for g := 0; g < 4; g++ {
			for i, q := range queries {
				wg.Add(1)
				go func(i int, q string) {
					defer wg.Done()
					got, err := db.Query(q)
					if err == nil {
						err = sameRelation(want[i], got)
					}
					if err != nil {
						errs <- fmt.Errorf("%s: %v", q, err)
					}
				}(i, q)
			}
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
}

// compareExecutors runs q on both executors and describes the first
// difference in error, schema, cardinality, order, kind or value.
func compareExecutors(db *DB, q string) error {
	db.SetVectorized(false)
	want, wantErr := db.Query(q)
	db.SetVectorized(true)
	got, gotErr := db.Query(q)
	if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
		return fmt.Errorf("%s: row err %v, vec err %v", q, wantErr, gotErr)
	}
	if wantErr != nil {
		return nil
	}
	if err := sameRelation(want, got); err != nil {
		return fmt.Errorf("%s: %v", q, err)
	}
	return nil
}

func sameRelation(want, got *engine.Relation) error {
	if !want.Schema.Equal(got.Schema) {
		return fmt.Errorf("schema %v vs %v", want.Schema, got.Schema)
	}
	if want.Len() != got.Len() {
		return fmt.Errorf("%d rows vs %d rows\nrow:\n%s\nvec:\n%s", want.Len(), got.Len(), want, got)
	}
	for i := range want.Tuples {
		for j := range want.Tuples[i] {
			a, b := want.Tuples[i][j], got.Tuples[i][j]
			if a.Kind != b.Kind || !engine.Equal(a, b) {
				return fmt.Errorf("row %d col %d: %v(%v) vs %v(%v)", i, j, a, a.Kind, b, b.Kind)
			}
		}
	}
	return nil
}

// parityTables builds ta, tb and tc. They share the column names id, k,
// s and d (ambiguous unqualified after a join); join keys come from a
// small range, so keys repeat on both sides and some match nothing;
// every column is NULL now and then, and d is often 0.
func parityTables(t *testing.T, rng *rand.Rand) *DB {
	t.Helper()
	db := NewDB()
	for _, ddl := range []string{
		`CREATE TABLE ta (id INT, k INT, f FLOAT, s TEXT, flag BOOL, d INT)`,
		`CREATE TABLE tb (id INT, k INT, kf FLOAT, s TEXT, name TEXT, d INT)`,
		`CREATE TABLE tc (k INT, tag TEXT)`,
	} {
		if _, err := db.Execute(ddl); err != nil {
			t.Fatal(err)
		}
	}
	null := func(v string) string {
		if rng.Intn(8) == 0 {
			return "NULL"
		}
		return v
	}
	insert := func(table string, rows int, row func(i int) []string) {
		if rows == 0 {
			return
		}
		vals := make([]string, rows)
		for i := range vals {
			vals[i] = "(" + strings.Join(row(i), ", ") + ")"
		}
		if _, err := db.Execute(fmt.Sprintf(`INSERT INTO %s VALUES %s`, table, strings.Join(vals, ", "))); err != nil {
			t.Fatal(err)
		}
	}
	insert("ta", rng.Intn(41), func(i int) []string {
		return []string{
			null(fmt.Sprint(i)), null(fmt.Sprint(rng.Intn(8))), null(fmt.Sprintf("%.2f", float64(rng.Intn(40))/4)),
			null(fmt.Sprintf("'s%d'", rng.Intn(5))), null(fmt.Sprint(rng.Intn(2) == 0)), null(fmt.Sprint(rng.Intn(4))),
		}
	})
	insert("tb", rng.Intn(26), func(i int) []string {
		kf := fmt.Sprintf("%d.0", rng.Intn(8))
		if rng.Intn(5) == 0 {
			kf = "2.5" // matches no int key
		}
		return []string{
			null(fmt.Sprint(i)), null(fmt.Sprint(rng.Intn(10))), null(kf),
			null(fmt.Sprintf("'s%d'", rng.Intn(6))), null(fmt.Sprintf("'n%d'", rng.Intn(4))), null(fmt.Sprint(rng.Intn(3))),
		}
	})
	insert("tc", rng.Intn(11), func(i int) []string {
		return []string{null(fmt.Sprint(rng.Intn(10))), null(fmt.Sprintf("'t%d'", rng.Intn(3)))}
	})
	return db
}

// parityFroms are the FROM clauses, each with the tables it brings in.
var parityFroms = []struct {
	from   string
	tables string
}{
	{"ta", "a"},
	{"ta JOIN tb ON ta.k = tb.k", "ab"},
	{"ta LEFT JOIN tb ON ta.k = tb.k", "ab"},
	{"ta JOIN tb ON ta.s = tb.s", "ab"},
	{"ta LEFT JOIN tb ON tb.kf = ta.k", "ab"},
	{"ta JOIN tb ON ta.k = tb.kf", "ab"},
	{"ta JOIN tb ON ta.k = tb.k JOIN tc ON tb.k = tc.k", "abc"},
	{"ta LEFT JOIN tb ON ta.k = tb.k JOIN tc ON ta.k = tc.k", "abc"},
	{"ta JOIN tb ON ta.k = tb.k LEFT JOIN tc ON tb.k = tc.k", "abc"},
	{"ta JOIN tb ON ta.k < tb.k", "ab"},
	{"ta CROSS JOIN tc", "ac"},
}

// parityPreds are WHERE conjuncts by the tables they need ("" for any).
var parityPreds = map[byte][]string{
	'a': {
		"ta.f > 2.5", "ta.k = 3", "ta.s = 's1'", "ta.k <> 2", "ta.f <= ta.k", "ta.id >= 5", "3 < ta.k",
		"ta.k = ta.d", "ta.s < ta.s", "ta.flag = true", "ta.s LIKE 's%'", "ta.s LIKE '%2'", "ta.k IN (1, 2, NULL)",
		"ta.s NOT IN ('s0', 's4')", "ta.f BETWEEN 1 AND 6", "ta.k NOT BETWEEN 2 AND 5", "NOT (ta.k = 1)",
		"ta.k = 1 OR ta.s = 's2'", "ta.f IS NULL", "ta.d IS NOT NULL", "ta.f > 2", "f < 7", "ta.k + 1 > 3",
		"ta.k = NULL", "-ta.f < -1", "ta.f <> 2.5",
		"10 / ta.d > 2", "ta.d <> 0 AND 10 / ta.d > 2", "ta.d % 2 = 0", "ta.k % ta.d = 1", "LENGTH(ta.s) > 1",
	},
	'b': {
		"tb.name = 'n1'", "tb.kf >= 2", "tb.id < 10", "tb.s <> 's3'", "tb.d = 0", "name = 'n0'", "tb.kf > tb.k",
		"tb.name IN ('n1', 'n2')", "tb.id IS NULL", "tb.d IS NOT NULL AND tb.d <> 0 AND 12 % tb.d = 0", "10 % tb.d = 1",
		"ta.k = tb.d", "ta.f > tb.kf", "ta.s = tb.s OR tb.name = 'n2'", "id > 3", "k = 2", "d <> 0", "s = 's1'",
	},
	'c': {"tc.tag = 't1'", "tc.k > 2", "tag = 't0'", "tc.k = ta.k", "tc.tag IS NULL"},
}

// parityKeys are GROUP BY keys by the tables they need.
var parityKeys = map[byte][]string{
	'a': {"ta.k", "ta.s", "ta.flag", "ta.k, ta.s", "ta.k + 1", "ta.d"},
	'b': {"tb.name", "tb.s", "tb.kf", "ta.s, tb.name", "tb.k"},
	'c': {"tc.tag"},
}

func pickFrom(rng *rand.Rand, tables string, pool map[byte][]string) string {
	var cands []string
	for i := 0; i < len(tables); i++ {
		cands = append(cands, pool[tables[i]]...)
	}
	return cands[rng.Intn(len(cands))]
}

func parityQuery(rng *rand.Rand) string {
	f := parityFroms[rng.Intn(len(parityFroms))]
	var where string
	if n := rng.Intn(4); n > 0 {
		conj := make([]string, n)
		for i := range conj {
			conj[i] = "(" + pickFrom(rng, f.tables, parityPreds) + ")"
		}
		where = " WHERE " + strings.Join(conj, " AND ")
	}
	limit := ""
	if rng.Intn(4) == 0 {
		limit = fmt.Sprintf(" LIMIT %d", rng.Intn(6))
	}
	aggs := []string{"COUNT(*)", "SUM(ta.k)", "AVG(ta.f)", "MIN(ta.s)", "MAX(ta.f)", "COUNT(ta.d)", "STDDEV(ta.k)", "COUNT(DISTINCT ta.s)"}
	if strings.Contains(f.tables, "b") {
		aggs = append(aggs, "MAX(tb.kf)", "MIN(tb.name)", "SUM(tb.d)")
	}
	switch rng.Intn(6) {
	case 0:
		return "SELECT * FROM " + f.from + where + limit
	case 1:
		cols := []string{"ta.id", "ta.f", "ta.s", "ta.flag", "ta.k * 2", "ta.s || 'x'"}
		if strings.Contains(f.tables, "b") {
			cols = append(cols, "tb.name", "tb.kf", "tb.id")
		}
		if strings.Contains(f.tables, "c") {
			cols = append(cols, "tc.tag")
		}
		rng.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
		q := "SELECT " + strings.Join(cols[:1+rng.Intn(3)], ", ") + " FROM " + f.from + where
		if rng.Intn(2) == 0 {
			q += " ORDER BY 1 DESC, ta.id"
		}
		return q + limit
	case 2:
		return "SELECT COUNT(*), " + aggs[rng.Intn(len(aggs))] + " FROM " + f.from + where
	case 3:
		return "SELECT DISTINCT ta.s FROM " + f.from + where
	case 4:
		return "SELECT ta.id, 10 / ta.d FROM " + f.from + where + limit
	default:
		key := pickFrom(rng, f.tables, parityKeys)
		rng.Shuffle(len(aggs), func(i, j int) { aggs[i], aggs[j] = aggs[j], aggs[i] })
		q := "SELECT " + key + ", " + strings.Join(aggs[:1+rng.Intn(3)], ", ") + " FROM " + f.from + where + " GROUP BY " + key
		if rng.Intn(3) == 0 {
			q += " HAVING COUNT(*) > 1"
		}
		if rng.Intn(3) == 0 {
			q += " ORDER BY 2 DESC, 1"
		}
		return q + limit
	}
}
