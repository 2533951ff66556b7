package loadgen

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"funabuse/internal/entitygraph"
	"funabuse/internal/httpgate"
	"funabuse/internal/simclock"
	"funabuse/internal/simrand"
)

// TestSyndicateScenario pins the coordinated-ring shape: the kind names
// itself, the schedule is seed-deterministic with the hash the syndicate
// report prints, and the ring only touches the sensitive paths.
func TestSyndicateScenario(t *testing.T) {
	if got := Syndicate.String(); got != "syndicate" {
		t.Fatalf("Syndicate.String() = %q, want syndicate", got)
	}
	if !Syndicate.Abusive() {
		t.Fatal("Syndicate must count as abusive")
	}

	p1, err := BuildPlan(SyndicateScenario(1, t0))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	p2, err := BuildPlan(SyndicateScenario(1, t0))
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	if p1.Hash() != p2.Hash() {
		t.Fatalf("same seed, different schedules: %x vs %x", p1.Hash(), p2.Hash())
	}
	p3, err := BuildPlan(SyndicateScenario(2, t0))
	if err != nil {
		t.Fatalf("build seed 2: %v", err)
	}
	if p3.Hash() == p1.Hash() {
		t.Fatal("different seeds produced identical schedules")
	}
	if got := p1.Hash(); got != goldenSyndicateHash {
		t.Fatalf("seed-1 plan hash = %#x, want %#x", got, goldenSyndicateHash)
	}

	sensitive := map[string]bool{PathHold: true, PathSMS: true}
	for _, a := range p1.Arrivals {
		c := p1.Scenario.Classes[a.Class]
		if c.Kind == Syndicate {
			if !sensitive[a.Path] {
				t.Fatalf("syndicate arrival hits %q, want only the sensitive paths", a.Path)
			}
			if a.Resource < 0 {
				t.Fatal("syndicate arrival carries no booking reference")
			}
		}
	}
}

// TestSyndicateFleetSharesPool asserts the ring mechanics: every client
// in a syndicate fleet draws from one identity pool (fingerprints recur
// across clients), two fleets from one seed draw the identical pool, and
// no member ever rotates.
func TestSyndicateFleetSharesPool(t *testing.T) {
	sc := SyndicateScenario(1, t0)
	fleet := newFleet(simrand.New(1), 1, sc.Classes[1])

	seen := map[string]map[int]bool{} // fpHex -> clients that presented it
	for ci, cl := range fleet {
		for range 32 {
			fpHex, _, ip, rotated := cl.identity(t0)
			if rotated {
				t.Fatal("syndicate client rotated")
			}
			if ip == "" {
				t.Fatal("syndicate client presented no address")
			}
			if seen[fpHex] == nil {
				seen[fpHex] = map[int]bool{}
			}
			seen[fpHex][ci] = true
		}
	}
	if len(seen) > syndicatePoolFPs {
		t.Fatalf("fleet presented %d distinct fingerprints, pool holds %d", len(seen), syndicatePoolFPs)
	}
	shared := 0
	for _, clients := range seen {
		if len(clients) > 1 {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("no fingerprint was shared across clients; pool is not shared")
	}

	// A rebuilt fleet from the same seed presents the identical pool.
	again := newFleet(simrand.New(1), 1, sc.Classes[1])
	p1, p2 := fleet[0].pool, again[0].pool
	if len(p1.fps) != len(p2.fps) || len(p1.ips) != len(p2.ips) {
		t.Fatalf("pool sizes differ across rebuilds: %d/%d vs %d/%d",
			len(p1.fps), len(p1.ips), len(p2.fps), len(p2.ips))
	}
	for i := range p1.fps {
		if p1.fps[i] != p2.fps[i] {
			t.Fatalf("pool fingerprint %d differs across rebuilds", i)
		}
	}
	for i := range p1.ips {
		if p1.ips[i] != p2.ips[i] {
			t.Fatalf("pool address %d differs across rebuilds", i)
		}
	}
}

// TestGraphFeederObserves drives the feeder by hand: watched-path
// requests accrue into one component that crosses the flag thresholds,
// unwatched paths and identity-free requests are ignored.
func TestGraphFeederObserves(t *testing.T) {
	g := entitygraph.New(entitygraph.Config{MinSize: 4, MinTypes: 3, FlagScore: 1})
	f := NewGraphFeeder(GraphFeederConfig{Graph: g, Weak: 0.5, Paths: []string{PathHold}})

	hold := httptest.NewRequest(http.MethodGet, PathHold+"?pnr=PNR00001", nil)
	search := httptest.NewRequest(http.MethodGet, PathSearch+"?pnr=PNR00001", nil)
	info := httpgate.ClientInfo{IP: "203.0.5.9", Fingerprint: 0xfeed, HasFingerprint: true}

	f.OnDecision(search, info, "") // unwatched path: ignored
	if st := g.Stats(); st.Observations != 0 {
		t.Fatalf("unwatched path observed: %+v", st)
	}
	f.OnDecision(hold, httpgate.ClientInfo{}, "") // no identities: ignored
	if st := g.Stats(); st.Observations != 0 {
		t.Fatalf("identity-free request observed: %+v", st)
	}

	// Two ring members sharing the booking reference braid into one
	// flagged component: 2 fps + 2 ips + 1 bk = size 5, three types.
	other := httpgate.ClientInfo{IP: "203.0.5.10", Fingerprint: 0xbeef, HasFingerprint: true}
	f.OnDecision(hold, info, "")
	f.OnDecision(hold, other, "")
	if !g.Flagged(entitygraph.FingerprintKey(0xfeed)) || !g.Flagged(entitygraph.FingerprintKey(0xbeef)) {
		t.Fatalf("ring not flagged: %+v", g.Stats())
	}

	// Keys longer than the feeder's stack buffer land on the same nodes
	// the string constructors name.
	long := strings.Repeat("R", 200)
	v6 := httpgate.ClientInfo{IP: "2001:db8:85a3::8a2e:370:7334", Fingerprint: 0xffffffffffffffff, HasFingerprint: true}
	f.OnDecision(httptest.NewRequest(http.MethodGet, PathHold+"?pnr="+long, nil), v6, "")
	for _, k := range []string{entitygraph.FingerprintKey(v6.Fingerprint), entitygraph.IPKey(v6.IP), entitygraph.BookingKey(long)} {
		if c, ok := g.Lookup(k); !ok || c.Size != 3 {
			t.Fatalf("%q: component %+v ok=%v, want the 3-node observation", k, c, ok)
		}
	}
}

// TestGraphFeederZeroAllocs pins the steady-state write hook: once a
// request's fingerprint, address and booking reference are known nodes,
// observing it allocates nothing — no query parse, no key strings.
func TestGraphFeederZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under the race detector")
	}
	g := entitygraph.New(entitygraph.Config{})
	f := NewGraphFeeder(GraphFeederConfig{Graph: g, Weak: 0.01, Paths: []string{PathHold}})
	r := httptest.NewRequest(http.MethodGet, PathHold+"?seat=12A&pnr=PNR00001", nil)
	info := httpgate.ClientInfo{IP: "203.0.5.9", Fingerprint: 0xfeed, HasFingerprint: true}
	f.OnDecision(r, info, "")
	if avg := testing.AllocsPerRun(256, func() { f.OnDecision(r, info, "") }); avg != 0 {
		t.Fatalf("GraphFeeder.OnDecision allocates %v/op on known entities, want 0", avg)
	}
	if st := g.Stats(); st.Nodes != 3 || st.Edges != 2 {
		t.Fatalf("graph %+v, want the 3-node star", st)
	}
}

// TestTargetEntityWiring builds the defended gate with an entity graph
// and replays a hand-rolled ring: the volume threshold never fires, the
// graph flags the shared component, and from then on the gate denies the
// ring's requests with the entity reason while a clean client passes.
func TestTargetEntityWiring(t *testing.T) {
	clock := simclock.NewManual(t0)
	g := entitygraph.New(entitygraph.Config{MinSize: 5, MinTypes: 3, FlagScore: 2})
	gate, _, deployer := NewTargetGate(TargetConfig{
		Clock:         clock,
		RuleThreshold: 80,
		RuleWindow:    20 * time.Second,
		RulePaths:     []string{PathHold, PathSMS},
		EntityGraph:   g,
		EntityPaths:   []string{PathHold, PathSMS},
		EntityWeak:    0.5,
	})

	ring := []httpgate.ClientInfo{
		{IP: "203.0.9.1", Fingerprint: 0xa1, HasFingerprint: true, ClientKey: "syn-0"},
		{IP: "203.0.9.2", Fingerprint: 0xa2, HasFingerprint: true, ClientKey: "syn-1"},
		{IP: "203.0.9.3", Fingerprint: 0xa3, HasFingerprint: true, ClientKey: "syn-2"},
	}
	r := httptest.NewRequest(http.MethodGet, PathHold+"?pnr=PNR00007", nil)
	var denied int
	for i := range 12 {
		d := gate.Decide(r, ring[i%len(ring)])
		if d.Denied() {
			if d.Reason != httpgate.ReasonEntity {
				t.Fatalf("request %d denied by %q, want %q", i, d.Reason, httpgate.ReasonEntity)
			}
			denied++
		}
	}
	if denied == 0 {
		t.Fatalf("ring never denied; graph stats %+v", g.Stats())
	}
	if d := gate.Decide(r, ring[0]); d.Reason != httpgate.ReasonEntity {
		t.Fatalf("flagged ring member admitted: %+v", d)
	}
	clean := httpgate.ClientInfo{IP: "198.51.0.9", Fingerprint: 0xc1ea4, HasFingerprint: true, ClientKey: "user-9"}
	if d := gate.Decide(r, clean); d.Denied() {
		t.Fatalf("clean client denied: %+v", d)
	}
	if rules := deployer.Rules(); len(rules) != 0 {
		t.Fatalf("volume defender deployed %d rules; the ring should stay under its threshold", len(rules))
	}
}
