package relational

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
)

// Table is one base table: schema, row storage, and indexes. A primary
// key gets a unique hash index; CREATE INDEX adds non-unique secondary
// hash indexes. Indexes map value keys to row slots.
type Table struct {
	Name    string
	Schema  engine.Schema
	PKCol   int // -1 if no primary key
	rows    []engine.Tuple
	deleted []bool // tombstones; compacted by compact after DELETE/UPDATE
	live    int

	pkIndex   map[string]int // value key -> slot
	secondary map[int]*index // column idx -> index

	// Columnar scan cache for the vectorized executor. version is bumped
	// on every mutation (always under the DB write lock); the cache is
	// rebuilt lazily on the next vectorized scan. cacheMu serialises
	// rebuilds between concurrent readers, which hold only the DB read
	// lock.
	version  int64
	cacheMu  sync.Mutex
	colCache *colSnapshot
	cacheVer int64
}

// colSnapshot is one immutable columnar image of a table's live rows,
// plus the GROUP BY dictionaries of its string columns, built on
// demand (see dict). A mutation replaces the table's snapshot rather than
// touching it, so readers keep what they hold, and the dictionaries go
// with the snapshot they describe.
type colSnapshot struct {
	batch    *engine.ColumnBatch
	dictOnce []sync.Once
	dicts    []*strDict
}

func newSnapshot(b *engine.ColumnBatch) *colSnapshot {
	n := len(b.Cols)
	return &colSnapshot{batch: b, dictOnce: make([]sync.Once, n), dicts: make([]*strDict, n)}
}

// maxDictValues bounds the distinct values of a dictionary-encoded
// column; a column with more is not low-cardinality and gets none.
const maxDictValues = 1 << 12

// strDict encodes a string column as codes: 0 for NULL, else 1 + the
// index of the row's value in first-appearance order; n values in all.
type strDict struct {
	codes []uint16
	n     int
}

// dict returns the dictionary of string column col, or nil when col is
// not a string column or has more than maxDictValues distinct values.
// The first request builds it, once, safely under concurrent readers.
func (s *colSnapshot) dict(col int) *strDict {
	s.dictOnce[col].Do(func() {
		c := &s.batch.Cols[col]
		if c.Kind != engine.TypeString {
			return
		}
		ids := make(map[string]uint16, 64)
		codes := make([]uint16, len(c.Strs))
		for i, v := range c.Strs {
			if c.Nulls.Get(i) {
				continue
			}
			id, ok := ids[v]
			if !ok {
				if len(ids) == maxDictValues {
					return
				}
				id = uint16(len(ids) + 1)
				ids[v] = id
			}
			codes[i] = id
		}
		s.dicts[col] = &strDict{codes: codes, n: len(ids)}
	})
	return s.dicts[col]
}

type index struct {
	col   int
	slots map[string][]int
}

func newTable(name string, schema engine.Schema, pkCol int) *Table {
	t := &Table{
		Name:      name,
		Schema:    schema,
		PKCol:     pkCol,
		secondary: map[int]*index{},
	}
	if pkCol >= 0 {
		t.pkIndex = map[string]int{}
	}
	return t
}

// valueKey renders a value for index/group hashing. Kind is included so
// 1 and "1" hash differently, but INT/FLOAT with equal numeric value
// collide intentionally (Compare treats them equal).
func valueKey(v engine.Value) string {
	switch v.Kind {
	case engine.TypeNull:
		return "\x00"
	case engine.TypeInt, engine.TypeFloat, engine.TypeBool:
		return "n" + v.String()
	default:
		return "s" + v.S
	}
}

func tupleKey(t engine.Tuple) string {
	var sb strings.Builder
	for _, v := range t {
		sb.WriteString(valueKey(v))
		sb.WriteByte('\x1f')
	}
	return sb.String()
}

// insert adds a row, maintaining indexes.
func (t *Table) insert(row engine.Tuple) error {
	if len(row) != len(t.Schema.Columns) {
		return fmt.Errorf("relational: %s: arity %d != %d", t.Name, len(row), len(t.Schema.Columns))
	}
	// Light type check with numeric coercion.
	for i, v := range row {
		want := t.Schema.Columns[i].Type
		if v.IsNull() || v.Kind == want {
			continue
		}
		switch {
		case want == engine.TypeFloat && v.Kind == engine.TypeInt:
			row[i] = engine.NewFloat(float64(v.I))
		case want == engine.TypeInt && v.Kind == engine.TypeFloat && v.F == float64(int64(v.F)):
			row[i] = engine.NewInt(int64(v.F))
		case want == engine.TypeString:
			row[i] = engine.NewString(v.String())
		default:
			return fmt.Errorf("relational: %s.%s: cannot store %v as %v",
				t.Name, t.Schema.Columns[i].Name, v.Kind, want)
		}
	}
	if t.PKCol >= 0 {
		k := valueKey(row[t.PKCol])
		if _, dup := t.pkIndex[k]; dup {
			return fmt.Errorf("relational: %s: duplicate primary key %v", t.Name, row[t.PKCol])
		}
		t.pkIndex[k] = len(t.rows)
	}
	slot := len(t.rows)
	t.rows = append(t.rows, row)
	t.deleted = append(t.deleted, false)
	t.live++
	t.version++
	for _, idx := range t.secondary {
		k := valueKey(row[idx.col])
		idx.slots[k] = append(idx.slots[k], slot)
	}
	return nil
}

// deleteSlot tombstones a row and removes it from indexes.
func (t *Table) deleteSlot(slot int) {
	if t.deleted[slot] {
		return
	}
	t.deleted[slot] = true
	t.live--
	t.version++
	if t.PKCol >= 0 {
		delete(t.pkIndex, valueKey(t.rows[slot][t.PKCol]))
	}
	for _, idx := range t.secondary {
		k := valueKey(t.rows[slot][idx.col])
		list := idx.slots[k]
		for i, s := range list {
			if s == slot {
				idx.slots[k] = append(list[:i], list[i+1:]...)
				break
			}
		}
		if len(idx.slots[k]) == 0 {
			delete(idx.slots, k)
		}
	}
}

// compact drops the tombstoned slots once they outnumber the live rows,
// so scans, column-cache rebuilds and indexes stop carrying dead rows
// for the table's whole life. Live rows keep their order; the primary
// key and secondary indexes are rebuilt over the new slot numbers. Slot
// numbers change, so it runs only at the end of a statement, under the
// DB write lock — never while a caller holds slots.
func (t *Table) compact() {
	if len(t.rows)-t.live <= t.live {
		return
	}
	rows := make([]engine.Tuple, 0, t.live)
	for slot, row := range t.rows {
		if !t.deleted[slot] {
			rows = append(rows, row)
		}
	}
	t.rows = rows
	t.deleted = make([]bool, len(rows))
	if t.pkIndex != nil {
		t.pkIndex = make(map[string]int, len(rows))
		for slot, row := range rows {
			t.pkIndex[valueKey(row[t.PKCol])] = slot
		}
	}
	for _, idx := range t.secondary {
		idx.slots = make(map[string][]int, len(idx.slots))
		for slot, row := range rows {
			k := valueKey(row[idx.col])
			idx.slots[k] = append(idx.slots[k], slot)
		}
	}
	t.version++
}

// addIndex builds a secondary index on the named column.
func (t *Table) addIndex(col string) error {
	ci := t.Schema.Index(col)
	if ci < 0 {
		return fmt.Errorf("relational: %s: no column %q", t.Name, col)
	}
	if _, ok := t.secondary[ci]; ok {
		return nil // idempotent
	}
	idx := &index{col: ci, slots: map[string][]int{}}
	for slot, row := range t.rows {
		if t.deleted[slot] {
			continue
		}
		k := valueKey(row[ci])
		idx.slots[k] = append(idx.slots[k], slot)
	}
	t.secondary[ci] = idx
	return nil
}

// lookup returns the live row slots whose column ci equals v, using an
// index if one exists; ok is false if no index covers ci.
func (t *Table) lookup(ci int, v engine.Value) (slots []int, ok bool) {
	if t.PKCol == ci && t.pkIndex != nil {
		if s, hit := t.pkIndex[valueKey(v)]; hit {
			return []int{s}, true
		}
		return nil, true
	}
	if idx, hit := t.secondary[ci]; hit {
		return idx.slots[valueKey(v)], true
	}
	return nil, false
}

// scan calls fn for every live row.
func (t *Table) scan(fn func(slot int, row engine.Tuple) error) error {
	for slot, row := range t.rows {
		if t.deleted[slot] {
			continue
		}
		if err := fn(slot, row); err != nil {
			return err
		}
	}
	return nil
}

// Len returns the number of live rows.
func (t *Table) Len() int { return t.live }

// columnBatch returns the current snapshot's batch: the shared view
// DumpBatch and DumpBatchWhere hand out (the batchalias analyzer keys
// on this name to flag writes through it).
func (t *Table) columnBatch() *engine.ColumnBatch { return t.snapshot().batch }

// snapshot returns the cached columnar image of the live rows,
// rebuilding it when the table has mutated since the last build. The
// snapshot is immutable: mutations bump version and the next call
// builds a fresh one rather than touching this one, so callers
// (including CAST encoders running outside the table lock) may keep
// reading it.
func (t *Table) snapshot() *colSnapshot {
	t.cacheMu.Lock()
	defer t.cacheMu.Unlock()
	if t.colCache == nil || t.cacheVer != t.version {
		t.colCache = newSnapshot(buildColumnBatch(t.Schema, t.rows, t.deleted, t.live))
		t.cacheVer = t.version
	}
	return t.colCache
}

// buildColumnBatch converts the live rows to columnar form. Large
// tables are partitioned across workers — one chunk per worker, merged
// in order at the end.
func buildColumnBatch(schema engine.Schema, rows []engine.Tuple, deleted []bool, live int) *engine.ColumnBatch {
	workers := runtime.GOMAXPROCS(0)
	if len(rows) < parallelScanRows || workers < 2 {
		cb := engine.NewColumnBatch(schema, live)
		for slot, row := range rows {
			if !deleted[slot] {
				_ = cb.AppendTuple(row)
			}
		}
		return cb
	}
	chunk := (len(rows) + workers - 1) / workers
	parts := make([]*engine.ColumnBatch, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(rows) {
			hi = len(rows)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			cb := engine.NewColumnBatch(schema, hi-lo)
			for slot := lo; slot < hi; slot++ {
				if !deleted[slot] {
					_ = cb.AppendTuple(rows[slot])
				}
			}
			parts[w] = cb
		}(w, lo, hi)
	}
	wg.Wait()
	out := engine.NewColumnBatch(schema, live)
	for _, p := range parts {
		if p != nil {
			_ = out.AppendBatch(p)
		}
	}
	return out
}

// DB is the relational engine: a set of tables behind a RW lock. It is
// safe for concurrent use; writers serialise, readers share.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*Table

	// vectorized selects the columnar batch executor for SELECT hot
	// paths (on by default); the row-at-a-time executor remains as the
	// fallback for plans the vectorizer cannot compile.
	vectorized bool

	// Stats feed the cross-system monitor (§2.1 of the paper). The
	// counters are atomic because readers sharing the RLock bump them
	// concurrently.
	stats engineCounters
}

type engineCounters struct {
	queries     atomic.Int64
	rowsScanned atomic.Int64
	fallbacks   [numFallbackStages]atomic.Int64
}

// fallbackStage names a stage of the vectorized SELECT pipeline that
// can drop to the row-at-a-time path.
type fallbackStage int

const (
	fallbackFilter fallbackStage = iota
	fallbackJoin
	fallbackGroup
	fallbackProject
	numFallbackStages
)

// FallbackStages names the stages EngineStats.Fallbacks counts, in
// order.
var FallbackStages = [numFallbackStages]string{"filter", "join", "group", "project"}

// EngineStats counts work done by the engine, for the monitoring system.
type EngineStats struct {
	Queries     int64
	RowsScanned int64
	// Fallbacks counts, per stage (FallbackStages), the times the
	// vectorized executor could not compile a stage and ran it on rows.
	Fallbacks [numFallbackStages]int64
}

// NewDB creates an empty database.
func NewDB() *DB {
	return &DB{tables: map[string]*Table{}, vectorized: true}
}

// SetVectorized toggles the vectorized executor; with it off every
// query runs the row-at-a-time path. Exposed so benchmarks and
// experiments can compare the two executors on identical plans.
func (db *DB) SetVectorized(on bool) {
	db.mu.Lock()
	db.vectorized = on
	db.mu.Unlock()
}

// Stats returns a snapshot of the engine counters.
func (db *DB) Stats() EngineStats {
	st := EngineStats{
		Queries:     db.stats.queries.Load(),
		RowsScanned: db.stats.rowsScanned.Load(),
	}
	for i := range st.Fallbacks {
		st.Fallbacks[i] = db.stats.fallbacks[i].Load()
	}
	return st
}

// CreateTable registers a new table programmatically.
func (db *DB) CreateTable(name string, schema engine.Schema, primaryKey string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.createTableLocked(name, schema, primaryKey)
}

func (db *DB) createTableLocked(name string, schema engine.Schema, primaryKey string) error {
	key := strings.ToLower(name)
	if _, exists := db.tables[key]; exists {
		return fmt.Errorf("relational: table %q already exists", name)
	}
	pk := -1
	if primaryKey != "" {
		pk = schema.Index(primaryKey)
		if pk < 0 {
			return fmt.Errorf("relational: primary key %q not in schema", primaryKey)
		}
	}
	db.tables[key] = newTable(name, schema, pk)
	return nil
}

// DropTable removes a table.
func (db *DB) DropTable(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := db.tables[key]; !ok {
		return fmt.Errorf("relational: no table %q", name)
	}
	delete(db.tables, key)
	return nil
}

// RenameTable atomically moves a table to a new name. It fails if the
// source is missing or the target name is taken, so a staged cast
// commit cannot clobber an existing table.
func (db *DB) RenameTable(oldName, newName string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	oldKey, newKey := strings.ToLower(oldName), strings.ToLower(newName)
	t, ok := db.tables[oldKey]
	if !ok {
		return fmt.Errorf("relational: no table %q", oldName)
	}
	if _, taken := db.tables[newKey]; taken && newKey != oldKey {
		return fmt.Errorf("relational: table %q already exists", newName)
	}
	delete(db.tables, oldKey)
	t.Name = newName
	db.tables[newKey] = t
	return nil
}

// table fetches a table by name (case-insensitive).
func (db *DB) table(name string) (*Table, error) {
	t, ok := db.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("relational: no table %q", name)
	}
	return t, nil
}

// Tables lists table names.
func (db *DB) Tables() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.tables))
	for _, t := range db.tables {
		out = append(out, t.Name)
	}
	return out
}

// TableSchema returns the schema of the named table.
func (db *DB) TableSchema(name string) (engine.Schema, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, err := db.table(name)
	if err != nil {
		return engine.Schema{}, err
	}
	return t.Schema, nil
}

// TableLen returns the live row count of the named table.
func (db *DB) TableLen(name string) (int, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, err := db.table(name)
	if err != nil {
		return 0, err
	}
	return t.Len(), nil
}

// insertTuplesLocked bulk-loads rows into the named table, creating it
// (without a primary key) if absent. The rows must be owned by the
// table (callers clone if they keep references).
func (db *DB) insertTuplesLocked(name string, schema engine.Schema, rows []engine.Tuple) error {
	key := strings.ToLower(name)
	t, ok := db.tables[key]
	if !ok {
		if err := db.createTableLocked(name, schema, ""); err != nil {
			return err
		}
		t = db.tables[key]
	}
	if len(schema.Columns) != len(t.Schema.Columns) {
		return fmt.Errorf("relational: %s: incoming arity %d != %d", name, len(schema.Columns), len(t.Schema.Columns))
	}
	for _, row := range rows {
		if err := t.insert(row); err != nil {
			return err
		}
	}
	return nil
}

// InsertRelation bulk-loads a relation into the named table, creating it
// (without a primary key) if absent. This is the CAST ingest path.
func (db *DB) InsertRelation(name string, rel *engine.Relation) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	rows := make([]engine.Tuple, len(rel.Tuples))
	for i, row := range rel.Tuples {
		rows[i] = row.Clone()
	}
	return db.insertTuplesLocked(name, rel.Schema, rows)
}

// Dump exports the named table as a relation (CAST egress path).
func (db *DB) Dump(name string) (*engine.Relation, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, err := db.table(name)
	if err != nil {
		return nil, err
	}
	rel := engine.NewRelation(t.Schema)
	rel.Tuples = make([]engine.Tuple, 0, t.live)
	_ = t.scan(func(_ int, row engine.Tuple) error {
		rel.Tuples = append(rel.Tuples, row.Clone())
		return nil
	})
	return rel, nil
}

// DumpBatch exports the named table in columnar form — the zero-copy
// CAST egress path. The returned batch is the table's immutable column
// cache snapshot: no per-row cloning, and on a warm cache no copying at
// all.
func (db *DB) DumpBatch(name string) (*engine.ColumnBatch, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, err := db.table(name)
	if err != nil {
		return nil, err
	}
	return t.columnBatch(), nil
}

// InsertBatch bulk-loads a column batch into the named table, creating
// it (without a primary key) if absent — the columnar CAST ingest path.
// Row tuples are carved from one arena rather than allocated per row,
// and the table owns them outright (no clone pass).
func (db *DB) InsertBatch(name string, cb *engine.ColumnBatch) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.insertTuplesLocked(name, cb.Schema, cb.ToRelation().Tuples)
}
