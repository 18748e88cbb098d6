package relational

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
)

// parityDB builds a table with every scalar kind plus NULLs, loaded in
// both executors' reach.
func parityDB(t testing.TB, rows int) *DB {
	t.Helper()
	db := NewDB()
	if _, err := db.Execute(`CREATE TABLE p (id INT PRIMARY KEY, grp INT, v FLOAT, label TEXT, flag BOOL)`); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.table("p")
	for i := 0; i < rows; i++ {
		row := engine.Tuple{
			engine.NewInt(int64(i)), engine.NewInt(int64(i % 7)),
			engine.NewFloat(float64(i) / 4), engine.NewString(fmt.Sprintf("label_%d", i%5)),
			engine.NewBool(i%3 == 0),
		}
		switch i % 11 {
		case 4:
			row[2] = engine.Null
		case 7:
			row[3] = engine.Null
		case 9:
			row[1] = engine.Null
		}
		if err := tbl.insert(row); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// runBoth executes q under the row and vectorized executors and fails
// on any difference in schema, cardinality or values.
func runBoth(t *testing.T, db *DB, q string) {
	t.Helper()
	db.SetVectorized(false)
	rowRes, rowErr := db.Query(q)
	db.SetVectorized(true)
	vecRes, vecErr := db.Query(q)
	if (rowErr == nil) != (vecErr == nil) {
		t.Fatalf("%s: row err %v, vec err %v", q, rowErr, vecErr)
	}
	if rowErr != nil {
		return
	}
	if !rowRes.Schema.Equal(vecRes.Schema) {
		t.Fatalf("%s: schema %v vs %v", q, rowRes.Schema, vecRes.Schema)
	}
	if rowRes.Len() != vecRes.Len() {
		t.Fatalf("%s: %d rows vs %d rows", q, rowRes.Len(), vecRes.Len())
	}
	for i := range rowRes.Tuples {
		for j := range rowRes.Tuples[i] {
			a, b := rowRes.Tuples[i][j], vecRes.Tuples[i][j]
			if a.Kind != b.Kind || !engine.Equal(a, b) {
				t.Fatalf("%s: row %d col %d: %v(%v) vs %v(%v)", q, i, j, a, a.Kind, b, b.Kind)
			}
		}
	}
}

// TestVectorizedParity runs a battery of queries under both executors;
// the vectorized path must be plan-for-plan indistinguishable.
func TestVectorizedParity(t *testing.T) {
	db := parityDB(t, 500)
	queries := []string{
		// Filters over every comparison and logical operator.
		`SELECT id FROM p WHERE v > 60.0 AND grp < 4`,
		`SELECT id FROM p WHERE grp = 3 OR flag = true`,
		`SELECT id FROM p WHERE NOT (grp = 3) AND v <= 100`,
		`SELECT id FROM p WHERE grp <> 2 AND id >= 250`,
		`SELECT id FROM p WHERE v IS NULL`,
		`SELECT id FROM p WHERE grp IS NOT NULL AND label IS NOT NULL`,
		`SELECT id FROM p WHERE id BETWEEN 100 AND 200`,
		`SELECT id FROM p WHERE v NOT BETWEEN 10 AND 110`,
		`SELECT id FROM p WHERE grp IN (1, 3, 5)`,
		`SELECT id FROM p WHERE grp NOT IN (0, 6)`,
		`SELECT id FROM p WHERE label IN ('label_1', 'label_4')`,
		`SELECT id FROM p WHERE label LIKE 'label_%'`,
		`SELECT id FROM p WHERE label LIKE '%_3'`,
		// Mixed int/float comparison and arithmetic.
		`SELECT id FROM p WHERE v > id`,
		`SELECT id, id + grp, v * 2.0, id - grp, id * grp FROM p WHERE id < 50`,
		`SELECT id, -v, id % 7 FROM p WHERE id < 30`,
		`SELECT label || '!' FROM p WHERE id < 10`,
		// Projection-only (full scan, no WHERE).
		`SELECT * FROM p`,
		`SELECT id, v FROM p`,
		// Aggregates: grouped, implicit single group, HAVING, aliases.
		`SELECT grp, COUNT(*), SUM(v), AVG(v), MIN(v), MAX(v) FROM p GROUP BY grp`,
		`SELECT grp, COUNT(v), STDDEV(v) FROM p GROUP BY grp`,
		`SELECT COUNT(*), AVG(v) FROM p`,
		`SELECT COUNT(*) FROM p WHERE grp IS NULL`,
		`SELECT label, MIN(label), MAX(label) FROM p GROUP BY label`,
		`SELECT grp, COUNT(*) FROM p GROUP BY grp HAVING COUNT(*) > 50`,
		`SELECT grp AS g, COUNT(*) FROM p GROUP BY g`,
		`SELECT grp, COUNT(DISTINCT label) FROM p GROUP BY grp`,
		`SELECT flag, COUNT(*) FROM p GROUP BY flag`,
		`SELECT id / 2, COUNT(*) FROM p GROUP BY id / 2`,
		`SELECT grp, label, COUNT(*) FROM p GROUP BY grp, label`,
		// ORDER BY / DISTINCT / LIMIT ride on either executor's output.
		`SELECT DISTINCT label FROM p`,
		`SELECT id, v FROM p ORDER BY v DESC LIMIT 10`,
		`SELECT grp, COUNT(*) AS n FROM p GROUP BY grp ORDER BY n DESC, grp LIMIT 3`,
		// Row-path fallbacks (scalar functions are not vectorized).
		`SELECT UPPER(label) FROM p WHERE id < 10`,
		`SELECT id FROM p WHERE LENGTH(label) > 6`,
		`SELECT COALESCE(v, 0.0) FROM p WHERE id < 30`,
	}
	for _, q := range queries {
		runBoth(t, db, q)
	}
}

func TestVectorizedParityJoins(t *testing.T) {
	db := parityDB(t, 300)
	if _, err := db.Execute(`CREATE TABLE g (grp INT PRIMARY KEY, name TEXT)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ { // fewer groups than p has, so some rows miss
		if _, err := db.Execute(fmt.Sprintf(`INSERT INTO g VALUES (%d, 'g%d')`, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Execute(`CREATE TABLE names (label TEXT, pretty TEXT)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := db.Execute(fmt.Sprintf(`INSERT INTO names VALUES ('label_%d', 'Label %d')`, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []string{
		`SELECT p.id, g.name FROM p JOIN g ON p.grp = g.grp WHERE p.id < 100`,
		`SELECT p.id, g.name FROM p LEFT JOIN g ON p.grp = g.grp WHERE p.id < 100`,
		`SELECT g.name, COUNT(*) FROM p JOIN g ON p.grp = g.grp GROUP BY g.name`,
		`SELECT p.id, n.pretty FROM p JOIN names n ON p.label = n.label WHERE p.id < 50`,
		`SELECT a.id, b.id FROM p a JOIN p b ON a.id = b.grp WHERE a.id < 7`,
		// Non-equi ON: both executors must take the nested-loop path.
		`SELECT p.id, g.name FROM p JOIN g ON p.grp > g.grp WHERE p.id < 20`,
		`SELECT p.id FROM p CROSS JOIN g WHERE p.id < 5`,
	} {
		runBoth(t, db, q)
	}
}

// TestVectorizedShortCircuit pins AND/OR short-circuit semantics: the
// right operand must not be evaluated for rows the left side decides,
// so a guarded division never sees the zero divisor — on both
// executors.
func TestVectorizedShortCircuit(t *testing.T) {
	db := NewDB()
	if _, err := db.Execute(`CREATE TABLE s (id INT PRIMARY KEY, d INT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Execute(`INSERT INTO s VALUES (1, 0), (2, 5), (3, NULL)`); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		`SELECT id FROM s WHERE d <> 0 AND 10 / d > 1`,
		`SELECT id FROM s WHERE d = 0 OR 10 / d > 1`,
		`SELECT id FROM s WHERE d IS NOT NULL AND d <> 0 AND 10 % d >= 0`,
	} {
		runBoth(t, db, q)
		rel, err := db.Query(q)
		if err != nil {
			t.Fatalf("%s: guarded division errored: %v", q, err)
		}
		if rel.Len() == 0 {
			t.Fatalf("%s: no rows", q)
		}
	}
	// An unguarded division still errors on both paths.
	db.SetVectorized(true)
	if _, err := db.Query(`SELECT id FROM s WHERE 10 / d > 1`); err == nil {
		t.Fatal("unguarded division by zero did not error (vec)")
	}
	db.SetVectorized(false)
	if _, err := db.Query(`SELECT id FROM s WHERE 10 / d > 1`); err == nil {
		t.Fatal("unguarded division by zero did not error (row)")
	}
	db.SetVectorized(true)
}

// TestVectorizedBufferReuse pins two regressions around reused result
// buffers and degenerate IN lists: projectPlainVec shares one scratch
// vec across output expressions, so a kernel that skips rows (the
// short-circuiting AND) must not see the previous expression's values;
// and IN lists reduced to nothing by NULL literals must evaluate to a
// constant miss rather than indexing an unallocated buffer.
func TestVectorizedBufferReuse(t *testing.T) {
	db := NewDB()
	if _, err := db.Execute(`CREATE TABLE s2 (id INT PRIMARY KEY, flag BOOL, grp INT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Execute(`INSERT INTO s2 VALUES (1, true, 5), (2, true, 1), (3, NULL, NULL)`); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		// flag fills the shared bool buffer with true before the AND runs.
		`SELECT flag, grp = 1 AND id > 0 FROM s2`,
		`SELECT flag, grp = 9 OR id < 0 FROM s2`,
		`SELECT id FROM s2 WHERE flag IN (NULL)`,
		`SELECT id FROM s2 WHERE flag NOT IN (NULL)`,
		`SELECT id FROM s2 WHERE grp IN (NULL)`,
		`SELECT id FROM s2 WHERE grp NOT IN (NULL, NULL)`,
	} {
		runBoth(t, db, q)
	}
}

// TestVectorizedAfterMutation ensures the column cache invalidates on
// writes: a vectorized query after INSERT/UPDATE/DELETE sees the new
// state.
func TestVectorizedAfterMutation(t *testing.T) {
	db := parityDB(t, 100)
	warm := func() int {
		rel, err := db.Query(`SELECT COUNT(*) FROM p WHERE v >= 0 OR v IS NULL OR v < 0`)
		if err != nil {
			t.Fatal(err)
		}
		return int(rel.Tuples[0][0].I)
	}
	if n := warm(); n != 100 {
		t.Fatalf("initial count %d", n)
	}
	if _, err := db.Execute(`INSERT INTO p VALUES (1000, 1, 1.5, 'label_9', false)`); err != nil {
		t.Fatal(err)
	}
	if n := warm(); n != 101 {
		t.Fatalf("count after insert %d, want 101", n)
	}
	if _, err := db.Execute(`DELETE FROM p WHERE id = 1000`); err != nil {
		t.Fatal(err)
	}
	if n := warm(); n != 100 {
		t.Fatalf("count after delete %d, want 100", n)
	}
	if _, err := db.Execute(`UPDATE p SET v = 999.0 WHERE id = 0`); err != nil {
		t.Fatal(err)
	}
	rel, err := db.Query(`SELECT v FROM p WHERE v = 999.0`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 {
		t.Fatalf("update invisible to vectorized scan: %d rows", rel.Len())
	}
}

// TestLikePathological pins the LIKE matcher's complexity: the old
// recursive matcher was exponential on %a%a%a%… patterns and would not
// finish this test within the heat death of the universe.
func TestLikePathological(t *testing.T) {
	s := strings.Repeat("a", 300) + "b"
	pattern := strings.Repeat("%a", 25) + "%c"
	start := time.Now()
	if likeMatch(s, pattern) {
		t.Fatal("pattern should not match")
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("pathological LIKE took %v", elapsed)
	}
	// And the matcher still matches what it should.
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello world", "hello%", true},
		{"hello world", "%world", true},
		{"hello world", "h_llo%", true},
		{"hello world", "%o w%", true},
		{"hello world", "hello", false},
		{"", "%", true},
		{"", "_", false},
		{"abc", "a%b%c", true},
		{"abc", "%%%", true},
		{"aaab", "%a%a%a%b", true},
		{"CaseFold", "casefold", true},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.p); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}

// TestDMLIndexFastPath verifies UPDATE/DELETE with a PK or secondary
// equality predicate route through the index (RowsScanned stays flat)
// and still honour compound predicates.
func TestDMLIndexFastPath(t *testing.T) {
	db := parityDB(t, 1000)
	before := db.Stats().RowsScanned
	if rel, err := db.Execute(`UPDATE p SET v = 1.25 WHERE id = 500`); err != nil {
		t.Fatal(err)
	} else if rel.Tuples[0][1].I != 1 {
		t.Fatalf("updated %v rows", rel.Tuples[0][1])
	}
	scanned := db.Stats().RowsScanned - before
	if scanned > 5 {
		t.Fatalf("PK update scanned %d rows, want O(1)", scanned)
	}
	// Compound predicate: index narrows, residual filter still applies.
	before = db.Stats().RowsScanned
	if rel, err := db.Execute(`UPDATE p SET v = 2.5 WHERE id = 501 AND grp = 999`); err != nil {
		t.Fatal(err)
	} else if rel.Tuples[0][1].I != 0 {
		t.Fatalf("residual filter ignored: updated %v rows", rel.Tuples[0][1])
	}
	if scanned := db.Stats().RowsScanned - before; scanned > 5 {
		t.Fatalf("compound PK update scanned %d rows", scanned)
	}
	before = db.Stats().RowsScanned
	if rel, err := db.Execute(`DELETE FROM p WHERE id = 502`); err != nil {
		t.Fatal(err)
	} else if rel.Tuples[0][1].I != 1 {
		t.Fatalf("deleted %v rows", rel.Tuples[0][1])
	}
	if scanned := db.Stats().RowsScanned - before; scanned > 5 {
		t.Fatalf("PK delete scanned %d rows", scanned)
	}
	if rel, _ := db.Query(`SELECT COUNT(*) FROM p`); rel.Tuples[0][0].I != 999 {
		t.Fatalf("count after delete %v", rel.Tuples[0][0])
	}
	// Secondary index fast path.
	if _, err := db.Execute(`CREATE INDEX idx_grp ON p (grp)`); err != nil {
		t.Fatal(err)
	}
	before = db.Stats().RowsScanned
	rel, err := db.Execute(`DELETE FROM p WHERE grp = 3`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Tuples[0][1].I == 0 {
		t.Fatal("secondary-index delete removed nothing")
	}
	if scanned := db.Stats().RowsScanned - before; scanned > 200 {
		t.Fatalf("secondary-index delete scanned %d rows", scanned)
	}
}

// TestJoinEdgeCases covers LEFT JOIN null padding, alias resolution in
// the equi-join detector, and correct fallback when the equi fast path
// does not apply — on both executors.
func TestJoinEdgeCases(t *testing.T) {
	db := NewDB()
	mustExec := func(q string) {
		t.Helper()
		if _, err := db.Execute(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	mustExec(`CREATE TABLE l (id INT PRIMARY KEY, k INT)`)
	mustExec(`CREATE TABLE r (k INT, tag TEXT)`)
	mustExec(`INSERT INTO l VALUES (1, 10), (2, 20), (3, 30), (4, NULL)`)
	mustExec(`INSERT INTO r VALUES (10, 'a'), (10, 'aa'), (30, 'c')`)

	for _, vec := range []bool{false, true} {
		db.SetVectorized(vec)
		name := map[bool]string{false: "row", true: "vec"}[vec]

		// LEFT JOIN pads unmatched and NULL-key rows with NULLs.
		rel, err := db.Query(`SELECT l.id, r.tag FROM l LEFT JOIN r ON l.k = r.k ORDER BY l.id, r.tag`)
		if err != nil {
			t.Fatal(err)
		}
		if rel.Len() != 5 { // 1×2 matches + 3 + two padded (2, 4)
			t.Fatalf("[%s] left join returned %d rows:\n%s", name, rel.Len(), rel)
		}
		padded := 0
		for _, row := range rel.Tuples {
			if row[1].IsNull() {
				padded++
				if row[0].I != 2 && row[0].I != 4 {
					t.Errorf("[%s] row %v should not be padded", name, row[0])
				}
			}
		}
		if padded != 2 {
			t.Fatalf("[%s] %d padded rows, want 2 (unmatched + NULL key)", name, padded)
		}

		// Aliases resolve on both sides of the ON equality, in either order.
		for _, q := range []string{
			`SELECT a.id, b.tag FROM l a JOIN r b ON a.k = b.k`,
			`SELECT a.id, b.tag FROM l a JOIN r b ON b.k = a.k`,
		} {
			rel, err := db.Query(q)
			if err != nil {
				t.Fatalf("[%s] %s: %v", name, q, err)
			}
			if rel.Len() != 3 {
				t.Fatalf("[%s] %s: %d rows, want 3", name, q, rel.Len())
			}
		}

		// Unqualified ON k = k resolves one side per schema (the
		// equi-join detector tries left-then-right), same as the seed.
		rel, err = db.Query(`SELECT l.id FROM l JOIN r ON k = k`)
		if err != nil {
			t.Fatalf("[%s] unqualified equi ON: %v", name, err)
		}
		if rel.Len() != 3 {
			t.Fatalf("[%s] unqualified equi ON %d rows, want 3", name, rel.Len())
		}

		// Non-equi ON falls back to nested loop with the same results.
		rel, err = db.Query(`SELECT l.id, r.tag FROM l JOIN r ON l.k < r.k ORDER BY l.id, r.tag`)
		if err != nil {
			t.Fatal(err)
		}
		// l.k=10 < 30 (1 row... l1:c), l.k=20 < 30 (l2:c), l.k=30: none, NULL: none
		if rel.Len() != 2 {
			t.Fatalf("[%s] non-equi join %d rows, want 2:\n%s", name, rel.Len(), rel)
		}
		// Expression ON (not bare columns) also falls back.
		rel, err = db.Query(`SELECT l.id FROM l JOIN r ON l.k + 0 = r.k`)
		if err != nil {
			t.Fatal(err)
		}
		if rel.Len() != 3 {
			t.Fatalf("[%s] expression-ON join %d rows, want 3", name, rel.Len())
		}
	}
}

// TestFilterKernelsAllocationFlat pins the filter kernels' allocation
// profile: compares of a column against a literal or another column
// narrow the selection in place and allocate nothing, and value kernels
// (OR, IN, arithmetic, LIKE) allocate scratch only while it settles (a
// pooled vector may serve another kind in the next chunk), so
// filtering 100 chunks allocates no more than filtering 4.
func TestFilterKernelsAllocationFlat(t *testing.T) {
	db := parityDB(t, 100*vecChunk)
	tbl, _ := db.table("p")
	snap := tbl.snapshot()
	vc := &vecCompiler{views: batchViews(snap.batch, snap), rs: baseRowSchema("p", tbl.Schema)}
	for _, c := range []struct {
		pred   string
		narrow bool // compiles to narrowing compares only
	}{
		{"v > 60.0", true}, {"label = 'label_3'", true}, {"grp < id", true}, {"10 <= grp", true},
		{"v > 60.0 AND grp < 4", true},
		{"grp = 3 OR label = 'label_1'", false}, {"grp IN (1, 2) AND v * 2 > 10", false}, {"label LIKE '%_2'", false},
	} {
		pred := c.pred
		e, err := ParseExpression(pred)
		if err != nil {
			t.Fatal(err)
		}
		f, ok := vc.compileFilter(e)
		if !ok {
			t.Fatalf("%s: does not compile", pred)
		}
		all := identitySel(snap.batch.NumRows)
		buf := make([]int32, len(all))
		allocs := func(chunks int) float64 {
			return testing.AllocsPerRun(5, func() {
				sel := buf[:chunks*vecChunk]
				copy(sel, all)
				if _, err := filterRange(f, sel, &scratch{}); err != nil {
					t.Fatal(err)
				}
			})
		}
		few, many := allocs(4), allocs(100)
		if many != few {
			t.Errorf("%s: %v allocs over 100 chunks, %v over 4", pred, many, few)
		}
		// At most the scratch, its selection stack and an AND's
		// intermediate selection.
		if c.narrow && many > 3 {
			t.Errorf("%s: narrowing compares made %v allocs, want at most 3", pred, many)
		}
	}
}
