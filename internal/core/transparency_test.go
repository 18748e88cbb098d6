package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// TestLocationTransparencyAfterCastAndMigrate checks that every island
// answers a logical name from wherever the catalog says the object
// lives — after a Cast (which copies) and after Migrates both ways
// (which move) — and that a migration leaves no physical copy behind in
// the engine it left.
func TestLocationTransparencyAfterCastAndMigrate(t *testing.T) {
	p := New()
	if _, err := p.Relational.Execute(`CREATE TABLE w (i INT, v FLOAT)`); err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for i := 0; i < 50; i++ {
		v := float64(i%7) / 4
		want += v
		if _, err := p.Relational.Execute(fmt.Sprintf(`INSERT INTO w VALUES (%d, %g)`, i, v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Register("w", EnginePostgres, "w"); err != nil {
		t.Fatal(err)
	}

	sumOf := func(q string) float64 {
		t.Helper()
		rel, err := p.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if rel.Len() != 1 || len(rel.Tuples[0]) != 1 {
			t.Fatalf("%s: want one value, got %v", q, rel)
		}
		return rel.Tuples[0][0].AsFloat()
	}
	check := func(stage, name string, home EngineKind) {
		t.Helper()
		info, ok := p.Lookup(name)
		if !ok || info.Engine != home {
			t.Fatalf("%s: catalog has %s at %+v, want engine %s", stage, name, info, home)
		}
		for _, q := range []string{
			fmt.Sprintf(`RELATIONAL(SELECT SUM(v) FROM %s)`, name),
			fmt.Sprintf(`ARRAY(aggregate(%s, sum(v)))`, name),
		} {
			if got := sumOf(q); got != want {
				t.Errorf("%s: %s = %v, want %v", stage, q, got, want)
			}
		}
		rel, err := p.Dump(name)
		if err != nil || rel.Len() != 50 {
			t.Errorf("%s: Dump(%s) = %v rows, %v", stage, name, rel.Len(), err)
		}
	}
	has := func(names []string, name string) bool {
		return slices.ContainsFunc(names, func(n string) bool { return strings.EqualFold(n, name) })
	}

	check("initial", "w", EnginePostgres)

	if _, err := p.Cast("w", EngineSciDB, CastOptions{TargetName: "w_arr"}); err != nil {
		t.Fatal(err)
	}
	check("after cast (source)", "w", EnginePostgres)
	check("after cast (copy)", "w_arr", EngineSciDB)

	if _, err := p.Migrate("w", EngineSciDB, CastOptions{}); err != nil {
		t.Fatal(err)
	}
	check("after migrate to scidb", "w", EngineSciDB)
	if has(p.Relational.Tables(), "w") {
		t.Errorf("migrated-away table w still in the relational engine: %v", p.Relational.Tables())
	}
	toArray, _ := p.Lookup("w")

	if _, err := p.Migrate("w", EnginePostgres, CastOptions{}); err != nil {
		t.Fatal(err)
	}
	check("after migrate back", "w", EnginePostgres)
	if has(p.ArrayStore.Names(), toArray.Physical) {
		t.Errorf("migrated-away array %s still in the array engine: %v", toArray.Physical, p.ArrayStore.Names())
	}
	back, _ := p.Lookup("w")
	tables := p.Relational.Tables()
	if !has(tables, back.Physical) || has(tables, "w") {
		t.Errorf("relational tables %v: want %s and no stale w", tables, back.Physical)
	}
	check("after migrate back (copy untouched)", "w_arr", EngineSciDB)

	// The untouched Cast copy still answers by its own name, and its
	// physical name never leaks a stale duplicate.
	if got := sumOf(`SCIDB(aggregate(w_arr, sum(v)))`); got != want {
		t.Errorf("SCIDB island on the cast copy = %v, want %v", got, want)
	}
}
