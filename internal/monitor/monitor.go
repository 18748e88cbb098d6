// Package monitor implements BigDAWG's cross-system monitoring (§2.1 of
// the paper): it observes which engines execute which classes of
// queries fastest and advises migrating data objects between storage
// engines as query workloads change ("if the majority of the queries
// accessing MIMIC II's waveforms use linear algebra, this data would
// naturally be migrated to an array store").
//
// The monitor is deliberately engine-agnostic: the polystore records
// (object, query class, engine, latency) observations — including
// probe runs that re-execute workload samples on alternative engines —
// and asks for placement advice.
package monitor

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// QueryClass buckets queries by the capability they exercise.
type QueryClass string

// Query classes observed in the MIMIC II workload.
const (
	ClassLookup        QueryClass = "lookup"         // selective point/range reads
	ClassSQLAnalytics  QueryClass = "sql_analytics"  // aggregates, joins
	ClassLinearAlgebra QueryClass = "linear_algebra" // FFT, matmul, regression
	ClassTextSearch    QueryClass = "text_search"    // keyword search
	ClassStreaming     QueryClass = "streaming"      // windowed real-time ops
)

// ewma smooths latencies so recent workload shifts dominate. last
// remembers when the engine was last observed, so entries for engines
// that stop serving a class age out of placement advice instead of
// dominating it forever.
type ewma struct {
	value float64 // milliseconds
	n     int64
	last  time.Time
}

const ewmaAlpha = 0.3

func (e *ewma) add(ms float64, now time.Time) {
	if e.n == 0 {
		e.value = ms
	} else {
		e.value = ewmaAlpha*ms + (1-ewmaAlpha)*e.value
	}
	e.n++
	e.last = now
}

type engineKey struct {
	object string
	class  QueryClass
	engine string
}

type accessKey struct {
	object string
	class  QueryClass
}

// accessStat is a time-decayed access count: count halves every
// DecayHalfLife of silence, so DominantClass tracks the *current*
// workload mix rather than all of history.
type accessStat struct {
	count float64
	last  time.Time
}

// decayed returns the count as of now.
func (a *accessStat) decayed(now time.Time, halfLife time.Duration) float64 {
	if halfLife <= 0 || a.last.IsZero() {
		return a.count
	}
	dt := now.Sub(a.last)
	if dt <= 0 {
		return a.count
	}
	return a.count * math.Exp2(-float64(dt)/float64(halfLife))
}

// Monitor accumulates observations and produces placement advice.
type Monitor struct {
	mu       sync.Mutex
	latency  map[engineKey]*ewma
	accesses map[accessKey]*accessStat
	total    int64

	// MinObservations gates advice: an engine must have been probed at
	// least this many times for a class before it can be recommended.
	MinObservations int64
	// MinSpeedup gates migration: the target must beat the current
	// engine by at least this factor on the dominant class.
	MinSpeedup float64
	// MaxAge bounds how long a latency observation stays eligible for
	// BestEngine: an engine not observed for a class within MaxAge no
	// longer competes. Zero disables age-out.
	MaxAge time.Duration
	// DecayHalfLife halves an (object, class) access count for every
	// half-life of silence, so the dominant class follows the current
	// workload. Zero disables decay.
	DecayHalfLife time.Duration

	// now is the clock, injectable for staleness tests.
	now func() time.Time
}

// New creates a monitor with default thresholds: advice follows the
// last hour of latency observations and a 15-minute access half-life.
func New() *Monitor {
	return &Monitor{
		latency:         make(map[engineKey]*ewma, 64),
		accesses:        make(map[accessKey]*accessStat, 64),
		MinObservations: 1,
		MinSpeedup:      1.5,
		MaxAge:          time.Hour,
		DecayHalfLife:   15 * time.Minute,
		now:             time.Now,
	}
}

// SetClock overrides the monitor's clock — staleness regression tests
// advance a fake clock instead of sleeping.
func (m *Monitor) SetClock(now func() time.Time) {
	m.mu.Lock()
	m.now = now
	m.mu.Unlock()
}

// Record stores one observation of a query over an object executed on
// an engine. Probe re-executions record the same way, letting the
// monitor "re-execute portions of a query workload on multiple
// engines, learning which engines excel at which types of queries".
func (m *Monitor) Record(object string, class QueryClass, engineName string, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.now()
	k := engineKey{object, class, engineName}
	e := m.latency[k]
	if e == nil {
		e = &ewma{}
		m.latency[k] = e
	}
	e.add(float64(d.Nanoseconds())/1e6, now)
	ak := accessKey{object, class}
	a := m.accesses[ak]
	if a == nil {
		a = &accessStat{}
		m.accesses[ak] = a
	}
	a.count = a.decayed(now, m.DecayHalfLife) + 1
	a.last = now
	m.total++
}

// TotalObservations reports how many observations Record has stored —
// undecayed, so tests can pin "one observation per query".
func (m *Monitor) TotalObservations() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.total
}

// Latency returns the smoothed latency (ms) for an (object, class,
// engine) triple; ok=false if never observed.
func (m *Monitor) Latency(object string, class QueryClass, engineName string) (float64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.latency[engineKey{object, class, engineName}]
	if !ok {
		return 0, false
	}
	return e.value, true
}

// DominantClass returns the query class most frequently hitting the
// object, weighted by recency (access counts decay with DecayHalfLife);
// ok=false if the object was never queried.
func (m *Monitor) DominantClass(object string) (QueryClass, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.now()
	var best QueryClass
	bestN := -1.0
	// Deterministic tie-break by class name.
	keys := make([]accessKey, 0)
	for k := range m.accesses {
		if k.object == object {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].class < keys[j].class })
	for _, k := range keys {
		if n := m.accesses[k].decayed(now, m.DecayHalfLife); n > bestN {
			best, bestN = k.class, n
		}
	}
	if bestN < 0 {
		return "", false
	}
	return best, true
}

// BestEngine returns the engine with the lowest smoothed latency for
// the object's query class among engines with enough observations.
// Engines not observed within MaxAge are excluded — an engine that
// stopped serving a class cannot dominate advice on stale data.
func (m *Monitor) BestEngine(object string, class QueryClass) (string, float64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.now()
	bestEngine := ""
	bestMs := 0.0
	// Deterministic iteration.
	keys := make([]engineKey, 0)
	for k := range m.latency {
		if k.object == object && k.class == class {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].engine < keys[j].engine })
	for _, k := range keys {
		e := m.latency[k]
		if e.n < m.MinObservations {
			continue
		}
		if m.MaxAge > 0 && now.Sub(e.last) > m.MaxAge {
			continue
		}
		if bestEngine == "" || e.value < bestMs {
			bestEngine, bestMs = k.engine, e.value
		}
	}
	return bestEngine, bestMs, bestEngine != ""
}

// Advice is a migration recommendation.
type Advice struct {
	Object        string
	From, To      string
	Class         QueryClass
	CurrentMs     float64
	TargetMs      float64
	Speedup       float64
	ShouldMigrate bool
	Reason        string
}

// Advise evaluates whether the object should move off currentEngine,
// judged on its dominant query class.
func (m *Monitor) Advise(object, currentEngine string) Advice {
	class, ok := m.DominantClass(object)
	if !ok {
		return Advice{Object: object, From: currentEngine, Reason: "no observations"}
	}
	target, targetMs, ok := m.BestEngine(object, class)
	if !ok {
		return Advice{Object: object, From: currentEngine, Class: class, Reason: "no probed engine"}
	}
	currentMs, haveCurrent := m.Latency(object, class, currentEngine)
	adv := Advice{
		Object: object, From: currentEngine, To: target, Class: class,
		CurrentMs: currentMs, TargetMs: targetMs,
	}
	if target == currentEngine {
		adv.Reason = "current engine already best"
		return adv
	}
	if !haveCurrent {
		adv.Reason = "current engine never observed"
		return adv
	}
	if targetMs <= 0 {
		adv.Reason = "degenerate probe latency"
		return adv
	}
	adv.Speedup = currentMs / targetMs
	if adv.Speedup >= m.MinSpeedup {
		adv.ShouldMigrate = true
		adv.Reason = fmt.Sprintf("%s workload %.1fx faster on %s", class, adv.Speedup, target)
	} else {
		adv.Reason = fmt.Sprintf("speedup %.2fx below threshold %.2fx", adv.Speedup, m.MinSpeedup)
	}
	return adv
}
