package main

import (
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"time"

	"funabuse/internal/account"
	"funabuse/internal/entitygraph"
	"funabuse/internal/httpgate"
	"funabuse/internal/loadgen"
	"funabuse/internal/mitigate"
	"funabuse/internal/simclock"
)

// The inproc_fullstack workload: every layer and every write hook on,
// driven by per-request Gate.Decide through loadgen.RunDirect on a
// virtual clock. Traffic is inprocRings copies of the E17 syndicate ring
// and of the E18 seat-map enumerator, plus honest members pre-registered
// as gold accounts. Scaling is by client count — one more ring, one more
// enumerator, ten more honest clients per copy — so every per-identity
// rate keeps its E17/E18 calibration.
const (
	inprocRings = 24
	// inprocArrivals is the expected plan size of one pass.
	inprocArrivals = 300_000
	// inprocChunk bounds how many requests RunDirect pre-builds at once
	// (about 1.2 KB each).
	inprocChunk = 25_000
	// inprocSampleEvery times one decision in this many on untraced
	// passes, for the latency percentiles.
	inprocSampleEvery = 8
	// pipelineArrivals is the prefix of the plan the cumulative-pipeline
	// runs decide, and pipelineRounds how often each depth is repeated.
	pipelineArrivals = 100_000
	pipelineRounds   = 7
)

// inprocEpoch anchors the virtual clock.
var inprocEpoch = time.Date(2023, 3, 1, 0, 0, 0, 0, time.UTC)

// inprocScenario builds the full-stack traffic mix for one seed.
func inprocScenario(seed uint64) loadgen.Scenario {
	const perCopyRate = 3 + 12 + 12 // honest + ring + enumerator, E17/E18
	dur := time.Duration(inprocArrivals * int64(time.Second) / (perCopyRate * inprocRings))
	classes := []loadgen.Class{{
		Name:    "honest",
		Kind:    loadgen.Honest,
		Clients: 10 * inprocRings,
		Paths:   []string{loadgen.PathSearch, loadgen.PathHold, loadgen.PathSMS},
		Phases:  []loadgen.Phase{{Dur: dur, Rate: 3 * inprocRings}},
	}}
	attack := []loadgen.Phase{{Dur: 5 * time.Second}, {Dur: dur - 5*time.Second, Rate: 12}}
	for j := range inprocRings {
		classes = append(classes, loadgen.Class{
			Name:         fmt.Sprintf("syndicate-%d", j),
			Kind:         loadgen.Syndicate,
			Clients:      8,
			Paths:        []string{loadgen.PathHold, loadgen.PathSMS},
			Resources:    12,
			ResourceBase: 12 * j,
			Phases:       attack,
		}, loadgen.Class{
			Name:         fmt.Sprintf("enumerator-%d", j),
			Kind:         loadgen.SeatSpin,
			Clients:      4,
			Paths:        []string{loadgen.PathSeatMap, loadgen.PathHold},
			Resources:    60,
			ResourceBase: 1000 + 60*j,
			Phases:       attack,
		})
	}
	return loadgen.Scenario{Seed: seed, Start: inprocEpoch, Classes: classes}
}

// inprocState is one pass's defender state, populated during set-up.
type inprocState struct {
	clock  *simclock.Manual
	graph  *entitygraph.Graph
	store  *account.Store
	decoys *mitigate.DecoySet
}

// newInprocState builds the graph, the account store with the honest
// fleet pre-registered as gold, and the decoy inventory seeded into the
// enumerators' reference ranges.
func newInprocState(sc loadgen.Scenario) *inprocState {
	st := &inprocState{
		clock: simclock.NewManual(sc.Start),
		graph: entitygraph.New(entitygraph.Config{MinSize: 6, MinTypes: 3, FlagScore: 4}),
		store: account.NewStore(account.Config{}),
	}
	var refs []string
	for ci, c := range sc.Classes {
		switch {
		case c.Kind == loadgen.Honest:
			for i := range c.Clients {
				st.store.Register(fmt.Sprintf("%s-%d", c.Name, i), sc.Start.Add(-365*24*time.Hour), 25, sc.Start)
			}
		case c.Kind == loadgen.SeatSpin:
			refs = append(refs, sc.ClassRefs(ci)...)
		}
	}
	st.decoys = mitigate.NewDecoySet(sc.Seed, refs, 0.3)
	return st
}

// config is the full-stack gate over this state at the given depth.
func (st *inprocState) config(depth int, blocks *mitigate.BlockList, tr *tracer) stackConfig {
	return stackConfig{
		clock:  st.clock,
		depth:  depth,
		blocks: blocks,
		graph:  st.graph,
		store:  st.store,
		decoys: st.decoys,
		limits: limits{
			profile: 100, profileWin: time.Minute,
			resource: 30, resourceWin: time.Minute,
			path: 60 * 50 * inprocRings, pathWin: time.Minute,
		},
		ruleThreshold: 80,
		ruleWindow:    20 * time.Second,
		rulePaths:     []string{loadgen.PathHold, loadgen.PathSMS},
		restricted:    map[string]int{loadgen.PathSeatMap: int(account.Member)},
		accountBase:   40,
		accountWin:    time.Minute,
		bookingPaths:  []string{loadgen.PathHold},
		feeders:       true,
		entityPaths:   []string{loadgen.PathHold, loadgen.PathSMS},
		entityWeak:    0.25,
		tr:            tr,
	}
}

// countingTarget is the DirectTarget the benchmark hands RunDirect: it
// forwards each request to the gate and tallies the verdict against the
// arrival's class. Untraced, it times one decision in
// inprocSampleEvery; traced, it times every decision and derives the
// gate's self time from the nested spans.
type countingTarget struct {
	gate    *httpgate.Gate
	abusive []bool // by class index
	classes []int  // class of each arrival of the current chunk
	pos     int
	tally   tally
	seq     uint64 // FNV-1a over the verdict sequence
	bad     int64  // unknown verdicts and degraded decisions

	onStart func() // called before the chunk's first decision
	lat     []int64
	tr      *tracer
	decide  *spanLog
	self    *spanLog
}

// FNV-1a 64-bit parameters for the verdict-sequence digest.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func newCountingTarget(sc loadgen.Scenario, tr *tracer) *countingTarget {
	t := &countingTarget{seq: fnvOffset, tr: tr}
	for _, c := range sc.Classes {
		t.abusive = append(t.abusive, c.Kind.Abusive())
	}
	if tr != nil {
		t.decide = tr.log(spanDecide)
		t.self = tr.log(spanDecideSelf)
	}
	return t
}

func (t *countingTarget) Decide(r *http.Request, info httpgate.ClientInfo) httpgate.Decision {
	if t.pos == 0 && t.onStart != nil {
		t.onStart()
	}
	var d httpgate.Decision
	switch {
	case t.tr != nil:
		t.tr.child.Store(0)
		start := time.Now()
		d = t.gate.Decide(r, info)
		el := time.Since(start)
		t.decide.add(el)
		t.self.add(el - time.Duration(t.tr.child.Load()))
	case t.pos%inprocSampleEvery == 0:
		start := time.Now()
		d = t.gate.Decide(r, info)
		t.lat = append(t.lat, int64(time.Since(start)))
	default:
		d = t.gate.Decide(r, info)
	}
	v := verdictIndex(d.Reason)
	if v == verdictUnknown || d.Degraded != 0 {
		t.bad++
	}
	kind := 0
	if t.abusive[t.classes[t.pos]] {
		kind = 1
	}
	t.tally[kind][v]++
	t.seq = (t.seq ^ uint64(v)) * fnvPrime
	t.pos++
	return d
}

// DecideBatch is unused: the workload drives per-request Decide.
func (t *countingTarget) DecideBatch(reqs []httpgate.Request, out []httpgate.Decision) []httpgate.Decision {
	return t.gate.DecideBatch(reqs, out)
}

// passResult is one complete replay of the plan.
type passResult struct {
	setup    time.Duration
	decide   time.Duration // summed decision loops
	wall     time.Duration // every RunDirect call, pre-build included
	rt       delta         // runtime counters over the decision loops
	decided  int64
	target   *countingTarget
	planHash uint64
	st       *inprocState
	stack    *stack
}

// runPass builds the seed's plan, state and full stack — the pass's
// set-up — and replays the plan through it in chunks.
func runPass(seed uint64, tr *tracer) (*passResult, error) {
	setupStart := time.Now()
	plan, err := loadgen.BuildPlan(inprocScenario(seed))
	if err != nil {
		return nil, err
	}
	sc := plan.Scenario
	st := newInprocState(sc)
	stk := buildStack(st.config(depthFull, nil, tr))
	res := &passResult{planHash: plan.Hash(), st: st, stack: stk, setup: time.Since(setupStart)}

	target := newCountingTarget(sc, tr)
	target.gate = stk.gate
	res.target = target
	arrivals := plan.Arrivals
	var t0 time.Time
	var rt0 runtimeSample
	target.onStart = func() {
		// Collect the pre-build garbage so it is not charged to the
		// decisions, then open the measured region.
		runtime.GC()
		rt0 = sampleRuntime()
		t0 = time.Now()
	}
	for lo := 0; lo < len(arrivals); lo += inprocChunk {
		hi := min(lo+inprocChunk, len(arrivals))
		target.classes = target.classes[:0]
		for _, a := range arrivals[lo:hi] {
			target.classes = append(target.classes, a.Class)
		}
		target.pos = 0
		callStart := time.Now()
		if _, err := loadgen.RunDirect(loadgen.DirectConfig{
			Plan:    &loadgen.Plan{Scenario: sc, Arrivals: arrivals[lo:hi]},
			Target:  target,
			Batch:   1,
			Virtual: st.clock,
		}); err != nil {
			return nil, err
		}
		end := time.Now()
		res.rt.add(sampleRuntime().since(rt0))
		res.decide += end.Sub(t0)
		res.wall += end.Sub(callStart)
		res.decided += int64(hi - lo)
	}
	return res, nil
}

// runInproc drives the full-stack workload.
func runInproc(p params) (*outcome, error) {
	if p.trace {
		return runInprocTraced(p)
	}
	out := &outcome{}
	deadline := time.Now().Add(time.Duration(p.seconds * float64(time.Second)))
	var first *passResult
	var setups, walls []float64
	var decided int64
	var decide time.Duration
	var rt delta
	var lat []int64
	var heapMB float64
	for pass := 0; pass < 2 || time.Now().Before(deadline); pass++ {
		res, err := runPass(p.seed, nil)
		if err != nil {
			return nil, err
		}
		out.attempted += res.decided
		out.failed += res.target.bad
		setups = append(setups, res.setup.Seconds())
		if first == nil {
			first = res
			checkInprocOutcome(out, res)
		} else {
			comparePasses(out, first, res, "pass")
		}
		if pass == 0 {
			continue // warm-up: lazy set-up and caches
		}
		decided += res.decided
		decide += res.decide
		rt.add(res.rt)
		walls = append(walls, res.wall.Seconds())
		lat = append(lat, res.target.lat...)
		// Retained heap of the system under test: the live heap with the
		// stack alive, minus the live heap once it is dropped.
		withStack := liveHeap()
		runtime.KeepAlive(res.stack)
		runtime.KeepAlive(res.st)
		res.stack, res.st, res.target = nil, nil, nil
		heapMB = float64(int64(withStack)-int64(liveHeap())) / (1 << 20)
	}
	t := &first.target.tally
	fmt.Printf("inproc_fullstack: %d decisions/pass, %d passes, plan %016x, honest admit %.4f, attack leak %.4f\n",
		first.decided, len(setups), first.planHash, t.admitRate(0), t.admitRate(1))
	fmt.Printf("inproc_fullstack verdicts (honest, abusive) by %q: %v %v\n", verdicts, t[0], t[1])
	// Rates are totals over every timed pass: on a shared host slow
	// phases last seconds to minutes, and a total over the whole run
	// averages over more of them than the median of its passes.
	out.set("throughput_ops_s", float64(decided)/decide.Seconds(), "1/s")
	out.set("latency_p50_us", durQuantile(lat, 0.5), "us")
	out.set("latency_p99_us", durQuantile(lat, 0.99), "us")
	out.set("cpu_us_per_op", rt.CPU.Seconds()*1e6/float64(decided), "us")
	out.set("allocs_per_op", float64(rt.Allocs)/float64(decided), "count")
	out.set("honest_admit", t.admitRate(0), "ratio")
	out.set("attack_leak", t.admitRate(1), "ratio")
	out.set("suite_s", mean(walls), "s")
	out.set("heap_mb", heapMB, "MB")
	out.set("setup_s", median(setups), "s")
	return out, nil
}

// checkInprocOutcome checks one pass against what the full stack must
// do at any seed: honest members pass, the rings and enumerators are
// contained, and every layer with a job does some of it.
func checkInprocOutcome(out *outcome, res *passResult) {
	t := &res.target.tally
	if r := t.admitRate(0); r < 0.95 {
		out.fail("honest admit %.4f below 0.95", r)
	}
	if r := t.admitRate(1); r <= 0 || r > 0.5 {
		out.fail("attack leak %.4f outside (0, 0.5]", r)
	}
	for _, slot := range []int{1, 2, 3} {
		if t[1][slot] == 0 {
			out.fail("no %q denials of abusive traffic", verdicts[slot])
		}
	}
	if st := res.st.graph.Stats(); st.FlaggedComponents == 0 {
		out.fail("entity graph flagged no component")
	}
	if res.st.decoys.HitCount() == 0 {
		out.fail("no decoy hits")
	}
}

// comparePasses fails the run when two replays of one seed disagree on
// the plan or on any verdict.
func comparePasses(out *outcome, a, b *passResult, what string) {
	if a.planHash != b.planHash {
		out.fail("%s plan hash %016x differs from %016x", what, b.planHash, a.planHash)
	}
	if a.target.seq != b.target.seq || a.target.tally != b.target.tally {
		out.fail("%s verdict sequence differs from the first pass", what)
		out.failed++
	}
}

// runInprocTraced is the per-layer run: an untraced warm-up and
// reference pass, one traced pass with spans on every seam, the
// cumulative-pipeline runs that split the gate's own time across its
// layers, and the loopback probe of the front.
func runInprocTraced(p params) (*outcome, error) {
	out := &outcome{spans: newTracer()}
	var plain []*passResult
	for range 2 {
		res, err := runPass(p.seed, nil)
		if err != nil {
			return nil, err
		}
		plain = append(plain, res)
	}
	traced, err := runPass(p.seed, out.spans)
	if err != nil {
		return nil, err
	}
	ref := plain[0]
	comparePasses(out, ref, plain[1], "pass")
	comparePasses(out, ref, traced, "traced pass")
	for _, r := range []*passResult{plain[0], plain[1], traced} {
		out.attempted += r.decided
		out.failed += r.target.bad
	}

	untracedRate := float64(plain[1].decided) / plain[1].decide.Seconds()
	tracedRate := float64(traced.decided) / traced.decide.Seconds()
	out.set("trace.overhead_share", 1-tracedRate/untracedRate, "ratio")
	tr := out.spans
	out.set("httpgate.decide_self_ns", tr.log(spanDecideSelf).meanNS(), "ns")
	out.set("entitygraph.lookup_ns", tr.log(spanEntity).meanNS(), "ns")
	out.set("entitygraph.observe_ns", tr.log(spanGraphFeed).meanNS(), "ns")
	out.set("account.tier_ns", tr.log(spanAccount).meanNS(), "ns")
	out.set("account.feed_ns", tr.log(spanAcctFeed).meanNS(), "ns")
	out.set("loadgen.ruledeployer_ns", tr.log(spanDeployer).meanNS(), "ns")

	ref.target.tally.setLayerCounts(out)
	gs := ref.st.graph.Stats()
	out.set("entitygraph.nodes", float64(gs.Nodes), "count")
	out.set("entitygraph.flagged_components", float64(gs.FlaggedComponents), "count")
	out.set("entitygraph.evicted", float64(gs.Evicted), "count")
	out.set("account.accounts", float64(ref.st.store.Len()), "count")
	out.set("account.evicted", float64(ref.st.store.Evicted()), "count")
	rules := ref.stack.deployer.Rules()
	out.set("mitigate.rules", float64(len(rules)), "count")
	out.set("mitigate.decoy_hits", float64(ref.st.decoys.HitCount()), "count")
	out.set("runtime.gc_cpu_share", ratio(plain[1].rt.GCCPU, plain[1].rt.TotalCPU), "ratio")
	out.set("runtime.gc_cycles", float64(plain[1].rt.GCCycles), "count")

	// Cumulative pipeline: the end state of the reference pass — its
	// deployed rules, flagged graph and accrued accounts — read-only
	// under every depth, with fresh limiters per run.
	blocks := mitigate.NewBlockList(0)
	for _, r := range rules {
		blocks.Block(entitygraph.FingerprintKey(r.FP), r.At)
	}
	plan, err := loadgen.BuildPlan(inprocScenario(p.seed))
	if err != nil {
		return nil, err
	}
	cfg := func(depth int, clock *simclock.Manual) stackConfig {
		st := *ref.st
		st.clock = clock
		return st.config(depth, blocks, nil)
	}
	if err := pipeline(out, &loadgen.Plan{Scenario: plan.Scenario, Arrivals: plan.Arrivals[:pipelineArrivals]}, cfg); err != nil {
		return nil, err
	}
	return out, probeFront(out, p.seed, p.seconds)
}

// pipeline runs the cumulative-pipeline depths over plan's requests,
// recorded once as RunDirect builds them, and reports each layer's cost
// as the difference between the ns/decision of its depth and of the
// depth before it. Rounds interleave the depths and each depth keeps its
// fastest round, the one least disturbed by the shared host.
func pipeline(out *outcome, plan *loadgen.Plan, cfg func(depth int, clock *simclock.Manual) stackConfig) error {
	sample, err := recordRequests(plan)
	if err != nil {
		return err
	}
	// measure decides the sample on fresh gates at one depth until at
	// least pipelineArrivals decisions are timed.
	measure := func(depth int) float64 {
		var el time.Duration
		n := 0
		for n < pipelineArrivals {
			clock := simclock.NewManual(plan.Scenario.Start)
			e, _ := decideAll(out, buildStack(cfg(depth, clock)).gate, clock, sample, plan)
			el += e
			n += len(sample)
		}
		return float64(el.Nanoseconds()) / float64(n)
	}
	perDepth := make([][]float64, depthTelemetry+1)
	for range pipelineRounds {
		for d := depthBase; d <= depthTelemetry; d++ {
			perDepth[d] = append(perDepth[d], measure(d))
		}
	}
	for d := depthBlocklist; d < len(perDepth); d++ {
		out.set(depthLayer[d], slices.Min(perDepth[d])-slices.Min(perDepth[d-1]), "ns")
	}
	return nil
}

// decideAll decides the recorded requests in order on g, setting clock
// to each arrival's instant, and returns the elapsed time and runtime
// counters.
func decideAll(out *outcome, g *httpgate.Gate, clock *simclock.Manual, sample []httpgate.Request, plan *loadgen.Plan) (time.Duration, delta) {
	rt0 := sampleRuntime()
	start := time.Now()
	for i, rq := range sample {
		clock.SetAt(plan.Arrivals[i].At)
		if d := g.Decide(rq.R, rq.Info); verdictIndex(d.Reason) == verdictUnknown {
			out.failed++
		}
	}
	out.attempted += int64(len(sample))
	return time.Since(start), sampleRuntime().since(rt0)
}

// recorder is a DirectTarget that keeps the requests RunDirect builds
// instead of deciding them, so cumulative-pipeline runs can replay one
// identical request set against several gates.
type recorder struct{ reqs []httpgate.Request }

func (r *recorder) Decide(req *http.Request, info httpgate.ClientInfo) httpgate.Decision {
	r.reqs = append(r.reqs, httpgate.Request{R: req, Info: info})
	return httpgate.Decision{}
}

func (r *recorder) DecideBatch(reqs []httpgate.Request, out []httpgate.Decision) []httpgate.Decision {
	r.reqs = append(r.reqs, reqs...)
	return append(out[:0], make([]httpgate.Decision, len(reqs))...)
}

// recordRequests builds the plan's requests exactly as RunDirect does.
func recordRequests(plan *loadgen.Plan) ([]httpgate.Request, error) {
	rec := &recorder{}
	_, err := loadgen.RunDirect(loadgen.DirectConfig{Plan: plan, Target: rec, Batch: 1})
	return rec.reqs, err
}
