package relational

import (
	"fmt"
	"reflect"
	"testing"
)

// TestPointLookupMatchesGeneralPath checks the primary-key fast path
// against the general pipeline: every query is also run with a LIMIT,
// which keeps its meaning but takes the general path.
func TestPointLookupMatchesGeneralPath(t *testing.T) {
	db := NewDB()
	for _, q := range []string{
		`CREATE TABLE p (id INT PRIMARY KEY, name TEXT, age INT)`,
		`INSERT INTO p VALUES (1, 'ann', 30), (2, 'bob', NULL), (3, 'cy', 41), (7, NULL, 9)`,
		`DELETE FROM p WHERE id = 3`,
		`CREATE TABLE s (code TEXT PRIMARY KEY, v FLOAT)`,
		`INSERT INTO s VALUES ('a', 1.5), ('77', 2.5)`,
		`CREATE TABLE nopk (id INT, v INT)`,
		`INSERT INTO nopk VALUES (1, 2)`,
	} {
		if _, err := db.Execute(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	cases := []struct {
		where string
		fast  bool
	}{
		{`SELECT * FROM p WHERE id = 1`, true},
		{`SELECT * FROM p WHERE id = 2`, true},
		{`SELECT * FROM p WHERE id = 3`, true}, // deleted
		{`SELECT * FROM p WHERE id = 99`, true},
		{`SELECT * FROM p WHERE 7 = id`, true},
		{`SELECT * FROM p WHERE p.id = 1`, true},
		{`SELECT * FROM p x WHERE x.id = 2`, true},
		{`SELECT * FROM P WHERE ID = 1`, true},
		{`SELECT * FROM s WHERE code = 'a'`, true},
		{`SELECT * FROM s WHERE code = '77'`, true},
		{`SELECT * FROM p WHERE id = 1.0`, false},
		{`SELECT * FROM p WHERE id = '1'`, false},
		{`SELECT * FROM p WHERE id = NULL`, false},
		{`SELECT * FROM s WHERE code = 77`, false},
		{`SELECT * FROM p WHERE age = 30`, false},
		{`SELECT * FROM p WHERE id = 1 AND age = 30`, false},
		{`SELECT name FROM p WHERE id = 1`, false},
		{`SELECT * FROM nopk WHERE id = 1`, false},
		{`SELECT * FROM p x WHERE p.id = 1`, false}, // unknown qualifier: the general path reports it
	}
	for _, c := range cases {
		stmt, err := Parse(c.where)
		if err != nil {
			t.Fatal(err)
		}
		db.mu.RLock()
		_, fast := db.pointLookup(stmt.(*Select))
		db.mu.RUnlock()
		if fast != c.fast {
			t.Errorf("%s: fast path taken = %v, want %v", c.where, fast, c.fast)
		}
		got, gerr := db.Execute(c.where)
		want, werr := db.Execute(c.where + " LIMIT 10")
		if (gerr == nil) != (werr == nil) {
			t.Errorf("%s: error %v, general path %v", c.where, gerr, werr)
			continue
		}
		if gerr != nil {
			continue
		}
		if !reflect.DeepEqual(got.Schema, want.Schema) || fmt.Sprint(got.Tuples) != fmt.Sprint(want.Tuples) ||
			len(got.Tuples) != len(want.Tuples) {
			t.Errorf("%s:\n got  %v %v\n want %v %v", c.where, got.Schema, got.Tuples, want.Schema, want.Tuples)
		}
		for i := range got.Tuples {
			if !reflect.DeepEqual(got.Tuples[i], want.Tuples[i]) {
				t.Errorf("%s: row %d = %#v, want %#v", c.where, i, got.Tuples[i], want.Tuples[i])
			}
		}
	}
}
