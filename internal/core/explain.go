package core

import (
	"context"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/monitor"
	"repro/internal/trace"
)

// This file closes the paper's §2.1 monitoring loop and exposes the
// trace machinery as EXPLAIN ANALYZE: every successful QueryCtx call is
// classified into a monitor.QueryClass and recorded against the catalog
// objects it touched, so placement advice derives from live traffic;
// and any query can be run under a trace whose span tree renders as a
// per-stage latency report.

// classifyBody buckets a query into the capability it exercises — the
// heuristic mirror of the paper's query classes. The signal is the
// island (degenerate islands pin the class) plus the body's keywords:
// aggregation or joins mean analytics, array math means linear algebra,
// search means text, anything else is a lookup.
func classifyBody(island Island, body string) monitor.QueryClass {
	words := bodyWords(body)
	has := func(keywords ...string) bool {
		for _, kw := range keywords {
			if hasWord(words, kw) {
				return true
			}
		}
		return false
	}
	switch island {
	case IslandSStore:
		return monitor.ClassStreaming
	case IslandD4M:
		return monitor.ClassLinearAlgebra
	case IslandAccumulo:
		if has("search", "searchscan") {
			return monitor.ClassTextSearch
		}
		return monitor.ClassLookup
	case IslandArray, IslandSciDB:
		if has("multiply", "regrid", "window", "fft", "transpose") {
			return monitor.ClassLinearAlgebra
		}
		if has("aggregate") {
			return monitor.ClassSQLAnalytics
		}
		return monitor.ClassLookup
	case IslandRelational, IslandPostgres, IslandMyria:
		if has("join", "group", "count", "sum", "avg", "min", "max") {
			return monitor.ClassSQLAnalytics
		}
		return monitor.ClassLookup
	default:
		return monitor.ClassLookup
	}
}

// bodyWords splits a query body into its identifier-like words (runs of
// letters, digits and '_') outside quoted strings. classifyBody and
// observeQuery test words against this one tokenization instead of
// rescanning the body once per keyword and per catalog object.
func bodyWords(body string) []string {
	words := make([]string, 0, 16)
	inStr := false
	for i := 0; i < len(body); i++ {
		switch {
		case inStr:
			inStr = body[i] != '\''
		case body[i] == '\'':
			inStr = true
		case isWordChar(body[i]):
			j := i + 1
			for j < len(body) && isWordChar(body[j]) {
				j++
			}
			words = append(words, body[i:j])
			i = j - 1
		}
	}
	return words
}

// hasWord reports whether w is one of words, case-insensitively.
func hasWord(words []string, w string) bool {
	for _, x := range words {
		if strings.EqualFold(x, w) {
			return true
		}
	}
	return false
}

// islandEngine names the engine that serves an island's queries — the
// engine a monitor observation is attributed to.
func islandEngine(island Island) EngineKind {
	switch island {
	case IslandRelational, IslandPostgres, IslandMyria:
		return EnginePostgres
	case IslandArray, IslandSciDB:
		return EngineSciDB
	case IslandAccumulo, IslandD4M:
		return EngineAccumulo
	case IslandSStore:
		return EngineSStore
	default:
		return EnginePostgres
	}
}

// monitorWildcard is the object name federation-wide observations are
// recorded under when a query references no catalog object (DDL,
// literals-only selects). It keeps the acceptance invariant simple:
// every successful QueryCtx yields at least one observation.
const monitorWildcard = "*"

// observeQuery feeds the monitor one (object, class, engine, latency)
// observation per catalog object the body references — executed on the
// island's serving engine — or a single federation-wide observation
// when it references none.
func (p *Polystore) observeQuery(island Island, class monitor.QueryClass, body string, elapsed time.Duration) {
	eng := string(islandEngine(island))
	words := bodyWords(body)
	var touched []string
	p.mu.RLock()
	for _, info := range p.catalog {
		// Names made of word characters match a whole body word; any
		// other name falls back to a whole-word scan of the body.
		if hasWord(words, info.Name) || (!plainIdent(info.Name) && containsWord(body, info.Name)) {
			touched = append(touched, info.Name)
		}
	}
	p.mu.RUnlock()
	for _, name := range touched {
		p.Monitor.Record(name, class, eng, elapsed)
	}
	if len(touched) == 0 {
		p.Monitor.Record(monitorWildcard, class, eng, elapsed)
	}
}

// ExplainAnalyze executes the query under a fresh trace and returns the
// rendered span tree alongside the result — per-stage durations, cast
// wire bytes, rows scanned vs moved, retry attempts and the planner's
// pushdown decision, the polystore's EXPLAIN ANALYZE. The report is
// returned even when the query errors, so failed queries can be
// diagnosed from their partial tree.
func (p *Polystore) ExplainAnalyze(ctx context.Context, q string) (string, *engine.Relation, error) {
	ctx, root := trace.New(ctx, "explain")
	rel, err := p.QueryCtx(ctx, q)
	root.End()
	report := root
	if kids := root.Children(); len(kids) == 1 {
		report = kids[0] // the query span is the whole story
	}
	var sb strings.Builder
	sb.WriteString(report.String())
	if err != nil {
		sb.WriteString("error: " + err.Error() + "\n")
	}
	return sb.String(), rel, err
}
