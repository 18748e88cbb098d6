package relational

import (
	"fmt"
	"testing"
)

// TestTombstoneCompaction drives the insert/update/delete churn of a
// writer that leaves the table at its starting size after every unit,
// and checks the dead slots it leaves are reclaimed while primary-key
// and secondary-index lookups keep answering correctly.
func TestTombstoneCompaction(t *testing.T) {
	db := NewDB()
	mustExec := func(q string) {
		t.Helper()
		if _, err := db.Execute(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	mustExec(`CREATE TABLE labs (id INT PRIMARY KEY, patient INT, value FLOAT)`)
	mustExec(`CREATE INDEX idx_patient ON labs (patient)`)
	const base, batch = 100, 10
	for i := 0; i < base; i++ {
		mustExec(fmt.Sprintf(`INSERT INTO labs VALUES (%d, %d, %d)`, i, i%7, i))
	}
	tbl := db.tables["labs"]
	for cycle := 0; cycle < 1000; cycle++ {
		lo := 1000 + cycle*batch
		for i := lo; i < lo+batch; i++ {
			mustExec(fmt.Sprintf(`INSERT INTO labs VALUES (%d, %d, 0.5)`, i, 100+cycle%3))
		}
		mustExec(fmt.Sprintf(`UPDATE labs SET value = 2.5 WHERE id = %d`, lo))
		mustExec(fmt.Sprintf(`UPDATE labs SET value = 3.5 WHERE id = %d`, lo+1))
		mustExec(fmt.Sprintf(`DELETE FROM labs WHERE id >= %d`, lo))
		if n := len(tbl.rows); n > 2*tbl.live+batch {
			t.Fatalf("cycle %d: %d slots for %d live rows", cycle, n, tbl.live)
		}
	}
	if tbl.live != base {
		t.Fatalf("live = %d, want %d", tbl.live, base)
	}
	// Primary-key lookups find every surviving row, and only those.
	for _, id := range []int{0, 42, 99, 1000, 10990} {
		rel, err := db.Execute(fmt.Sprintf(`SELECT value FROM labs WHERE id = %d`, id))
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		if id < base {
			want = 1
		}
		if rel.Len() != want || (want == 1 && rel.Tuples[0][0].AsFloat() != float64(id)) {
			t.Errorf("id %d: got %v", id, rel.Tuples)
		}
	}
	// Secondary-index lookups agree with a full count.
	for p := 0; p < 7; p++ {
		rel, err := db.Execute(fmt.Sprintf(`SELECT id FROM labs WHERE patient = %d`, p))
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for i := 0; i < base; i++ {
			if i%7 == p {
				want++
			}
		}
		if rel.Len() != want {
			t.Errorf("patient %d: %d rows, want %d", p, rel.Len(), want)
		}
		for _, row := range rel.Tuples {
			if int(row[0].I)%7 != p {
				t.Errorf("patient %d: stray id %v", p, row[0])
			}
		}
	}
	if rel, _ := db.Execute(`SELECT id FROM labs WHERE patient = 101`); rel.Len() != 0 {
		t.Errorf("deleted batch rows still indexed: %v", rel.Tuples)
	}
	// A duplicate key is still refused after compaction.
	if _, err := db.Execute(`INSERT INTO labs VALUES (5, 0, 0)`); err == nil {
		t.Error("duplicate primary key accepted after compaction")
	}
}
