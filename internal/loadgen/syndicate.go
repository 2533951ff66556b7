package loadgen

import (
	"net/http"
	"strconv"
	"time"

	"funabuse/internal/entitygraph"
	"funabuse/internal/httpgate"
)

// SyndicateScenario is the coordinated-ring shape: honest background
// browsing plus a small syndicate whose members draw every request's
// fingerprint and exit address from one shared pool and fan out across a
// shared set of booking references. The class rate is tuned so each
// pooled fingerprint's in-window volume stays well under any per-identity
// rule threshold — volume defences leak the attack essentially whole —
// while the pool's co-occurrence braids fingerprints, addresses and
// booking references into one linkage component an entity graph flags
// within seconds.
func SyndicateScenario(seed uint64, start time.Time) Scenario {
	return Scenario{
		Seed:  seed,
		Start: start,
		Classes: []Class{
			{
				Name:    "honest",
				Kind:    Honest,
				Clients: 10,
				Paths:   []string{PathSearch, PathHold, PathSMS},
				Phases:  []Phase{{Dur: 60 * time.Second, Rate: 3}},
			},
			{
				Name:      "syndicate",
				Kind:      Syndicate,
				Clients:   8,
				Paths:     []string{PathHold, PathSMS},
				Resources: 12,
				Phases: []Phase{
					{Dur: 5 * time.Second, Rate: 0},
					{Dur: 55 * time.Second, Rate: 12},
				},
			},
		},
	}
}

// GraphFeederConfig assembles a GraphFeeder.
type GraphFeederConfig struct {
	// Graph receives one observation per watched request.
	Graph *entitygraph.Graph
	// Weak is the per-request weak-signal score fed with each
	// observation; a touch of suspicion per sensitive-path hit, so only
	// sustained co-occurrence accrues to a flag.
	Weak float64
	// Paths restricts observation to these request paths; empty watches
	// all.
	Paths []string
}

// GraphFeeder is the observation half of the entity-linkage defence: a
// gate decision hook that turns each watched request's identities — the
// fingerprint, the client address, the booking reference it touches —
// into one entity-graph observation. The graph does the rest: shared
// resources union the observations into components, and the gate's
// entity layer denies identities whose component crosses the flag
// thresholds. It is driven from the gate's serving goroutines; the graph
// synchronises itself, and the feeder keeps no shared scratch.
type GraphFeeder struct {
	graph *entitygraph.Graph
	weak  float64
	watch map[string]bool
}

// NewGraphFeeder returns a feeder observing into cfg.Graph.
func NewGraphFeeder(cfg GraphFeederConfig) *GraphFeeder {
	watch := make(map[string]bool, len(cfg.Paths))
	for _, p := range cfg.Paths {
		watch[p] = true
	}
	return &GraphFeeder{graph: cfg.Graph, weak: cfg.Weak, watch: watch}
}

// OnDecision is wired as the gate's decision hook. Every watched-path
// request is evidence, whatever its verdict: a denied request still
// demonstrates the co-occurrence of its identities, and observing it
// keeps the component's score honest.
//
// The node keys — the same "fp:", "ip:" and "bk:" keys the entitygraph
// constructors build — are assembled in a stack buffer and observed as
// bytes, so a request whose entities the graph already knows allocates
// nothing.
func (f *GraphFeeder) OnDecision(r *http.Request, info httpgate.ClientInfo, deniedBy string) {
	if len(f.watch) > 0 && !f.watch[r.URL.Path] {
		return
	}
	pnr := httpgate.QueryValue(r.URL.RawQuery, "pnr")
	var arr [128]byte
	var ends [3]int
	buf, n := arr[:0], 0
	if info.HasFingerprint {
		buf = append(buf, "fp:"...)
		buf = strconv.AppendUint(buf, info.Fingerprint, 16)
		ends[n], n = len(buf), n+1
	}
	if info.IP != "" {
		buf = append(buf, "ip:"...)
		buf = append(buf, info.IP...)
		ends[n], n = len(buf), n+1
	}
	if pnr != "" {
		buf = append(buf, "bk:"...)
		buf = append(buf, pnr...)
		ends[n], n = len(buf), n+1
	}
	if n < 2 {
		return
	}
	// Slice the keys only once buf has stopped growing.
	var keys [3][]byte
	for i, start := 0, 0; i < n; i++ {
		keys[i], start = buf[start:ends[i]], ends[i]
	}
	f.graph.ObserveBytes(keys[:n], f.weak)
}
