package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"funabuse/internal/account"
	"funabuse/internal/entitygraph"
	"funabuse/internal/httpgate"
)

// Span names. Each wraps one public call into a layer, recorded from the
// benchmark's side of the seam.
const (
	spanDecide     = "loadgen.DirectTarget.Decide"
	spanEntity     = "entitygraph.FlaggedBytes"
	spanAccount    = "account.TierOf"
	spanDeployer   = "loadgen.RuleDeployer.OnDecision"
	spanGraphFeed  = "loadgen.GraphFeeder.OnDecision"
	spanAcctFeed   = "loadgen.AccountFeeder.OnDecision"
	spanDecideSelf = "httpgate.Decide.self"
)

// maxSpanSamples caps the durations one span keeps; later spans still
// count toward the total and mean.
const maxSpanSamples = 1 << 21

// spanLog is one span name's recorded durations.
type spanLog struct {
	mu    sync.Mutex
	durs  []int64
	count int64
	total int64
}

func (s *spanLog) add(d time.Duration) {
	s.mu.Lock()
	s.count++
	s.total += int64(d)
	if len(s.durs) < maxSpanSamples {
		s.durs = append(s.durs, int64(d))
	}
	s.mu.Unlock()
}

// meanNS is the mean span duration in nanoseconds, 0 when none ran.
func (s *spanLog) meanNS() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return ratio(float64(s.total), float64(s.count))
}

// tracer keeps every span in memory until the run ends. child
// accumulates the durations of spans nested inside the current
// DirectTarget.Decide call, so its self time can be derived; only the
// single-goroutine in-process replay reads it.
type tracer struct {
	mu    sync.Mutex
	logs  map[string]*spanLog
	child atomic.Int64
}

func newTracer() *tracer { return &tracer{logs: make(map[string]*spanLog)} }

// log returns the named span log, creating it on first use.
func (t *tracer) log(name string) *spanLog {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.logs[name]
	if !ok {
		s = &spanLog{}
		t.logs[name] = s
	}
	return s
}

// nested records a span inside the current decision.
func (t *tracer) nested(s *spanLog, d time.Duration) {
	s.add(d)
	t.child.Add(int64(d))
}

// timedGraph is the entity-layer shim: the gate's EntityLookup seam,
// timed around the graph's FlaggedBytes.
type timedGraph struct {
	g  *entitygraph.Graph
	t  *tracer
	sp *spanLog
}

func (tg timedGraph) FlaggedBytes(key []byte) bool {
	start := time.Now()
	v := tg.g.FlaggedBytes(key)
	tg.t.nested(tg.sp, time.Since(start))
	return v
}

// timedAccounts is the account-layer shim around the store's TierOf.
type timedAccounts struct {
	s  *account.Store
	t  *tracer
	sp *spanLog
}

func (ta timedAccounts) TierOf(key string) int {
	start := time.Now()
	v := ta.s.TierOf(key)
	ta.t.nested(ta.sp, time.Since(start))
	return v
}

// hook is the gate's decision-hook signature.
type hook = func(*http.Request, httpgate.ClientInfo, string)

// timedHook wraps one decision hook in a span.
func (t *tracer) timedHook(name string, h hook) hook {
	sp := t.log(name)
	return func(r *http.Request, info httpgate.ClientInfo, deniedBy string) {
		start := time.Now()
		h(r, info, deniedBy)
		t.nested(sp, time.Since(start))
	}
}

// spanSummary is one span name's line in the trace file.
type spanSummary struct {
	Count   int64   `json:"count"`
	TotalMS float64 `json:"total_ms"`
	MeanNS  float64 `json:"mean_ns"`
	P50US   float64 `json:"p50_us"`
	P99US   float64 `json:"p99_us"`
}

// summaries condenses every span log.
func (t *tracer) summaries() map[string]spanSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := make(map[string]spanSummary, len(t.logs))
	for n, s := range t.logs {
		s.mu.Lock()
		spans[n] = spanSummary{
			Count:   s.count,
			TotalMS: float64(s.total) / 1e6,
			MeanNS:  ratio(float64(s.total), float64(s.count)),
			P50US:   durQuantile(s.durs, 0.5),
			P99US:   durQuantile(s.durs, 0.99),
		}
		s.mu.Unlock()
	}
	return spans
}

// write stores the span summaries and the per-layer metrics under
// .bench_build/trace in the working directory and returns the path.
func (t *tracer) write(workload string, seed uint64, layers map[string]metric) (string, error) {
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	data, err := json.MarshalIndent(map[string]any{
		"workload": workload,
		"seed":     seed,
		"spans":    t.summaries(),
		"layers":   layers,
	}, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}
