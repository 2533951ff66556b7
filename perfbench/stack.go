package main

import (
	"net/http"
	"time"

	"funabuse/internal/account"
	"funabuse/internal/entitygraph"
	"funabuse/internal/httpgate"
	"funabuse/internal/loadgen"
	"funabuse/internal/mitigate"
	"funabuse/internal/obs"
	"funabuse/internal/simclock"
)

// Pipeline depths, in the gate's evaluation order. A cumulative-pipeline
// run at depth d enables every layer up to and including d; the cost
// difference between adjacent depths is that layer's share of the
// decision. depthFull adds the decision hooks on top of everything.
const (
	depthBase = iota
	depthBlocklist
	depthEntity
	depthAccount
	depthProfile
	depthResource
	depthPath
	depthTelemetry
	depthFull
)

// depthLayer names the per-layer metric each depth adds.
var depthLayer = [...]string{
	depthBlocklist: "httpgate.blocklist_ns",
	depthEntity:    "httpgate.entity_ns",
	depthAccount:   "httpgate.account_ns",
	depthProfile:   "httpgate.profile_ns",
	depthResource:  "httpgate.resource_ns",
	depthPath:      "httpgate.path_ns",
	depthTelemetry: "obs.telemetry_ns",
}

// limits are the three limiter layers' budgets.
type limits struct {
	profile, resource, path          int
	profileWin, resourceWin, pathWin time.Duration
}

// stackConfig describes one defended gate. State objects (blocklist,
// graph, store, decoys) are owned by the caller so set-up can populate
// them and pipeline runs can share them read-only.
type stackConfig struct {
	clock  simclock.Clock
	depth  int
	blocks *mitigate.BlockList
	graph  *entitygraph.Graph
	store  *account.Store
	decoys *mitigate.DecoySet
	limits limits

	// Rule deployer (the arms-race defender), wired at depthFull.
	ruleThreshold int
	ruleWindow    time.Duration
	rulePaths     []string

	// Account policy.
	restricted   map[string]int
	accountBase  int
	accountWin   time.Duration
	bookingPaths []string

	// feeders adds the write hooks — GraphFeeder and AccountFeeder — at
	// depthFull; without them the graph and store are read-only.
	feeders     bool
	entityPaths []string
	entityWeak  float64

	// tr, when non-nil, times the lookup seams and every hook.
	tr *tracer
}

// stack is a built gate and the rule deployer feeding its blocklist.
type stack struct {
	gate     *httpgate.Gate
	deployer *loadgen.RuleDeployer
}

// buildStack assembles the gate from public constructors, in the same
// wiring loadgen.NewTargetGate uses, with the lookup seams and hooks
// exposed so the traced run can put spans around them.
func buildStack(c stackConfig) *stack {
	s := &stack{}
	blocks := c.blocks
	if blocks == nil {
		blocks = mitigate.NewBlockList(0)
	}
	gcfg := httpgate.Config{
		Clock:              c.clock,
		TrustForwardedFor:  true,
		RequireFingerprint: true,
	}
	var opts []httpgate.Option
	if c.depth >= depthBlocklist {
		gcfg.Blocks = blocks
	}
	if c.depth >= depthEntity && c.graph != nil {
		if c.tr != nil {
			gcfg.Entities = timedGraph{g: c.graph, t: c.tr, sp: c.tr.log(spanEntity)}
		} else {
			gcfg.Entities = c.graph
		}
	}
	if c.depth >= depthAccount && c.store != nil {
		var lookup httpgate.AccountLookup = c.store
		if c.tr != nil {
			lookup = timedAccounts{s: c.store, t: c.tr, sp: c.tr.log(spanAccount)}
		}
		opts = append(opts, httpgate.WithAccounts(httpgate.AccountPolicy{
			Lookup:     lookup,
			Restricted: c.restricted,
			BaseLimit:  c.accountBase,
			Window:     c.accountWin,
		}))
	}
	if c.depth >= depthProfile {
		gcfg.ProfileLimit, gcfg.ProfileWindow = c.limits.profile, c.limits.profileWin
	}
	if c.depth >= depthResource {
		gcfg.ResourceLimit, gcfg.ResourceWindow = c.limits.resource, c.limits.resourceWin
		gcfg.ResourceKey = func(r *http.Request) string { return r.URL.Query().Get("pnr") }
	}
	if c.depth >= depthPath {
		gcfg.PathLimit, gcfg.PathWindow = c.limits.path, c.limits.pathWin
	}
	if c.depth >= depthTelemetry {
		opts = append(opts,
			httpgate.WithTelemetry(obs.NewRegistry()),
			httpgate.WithTraces(obs.NewTraceRing(obs.DefaultTraceCapacity)))
	}
	if c.depth >= depthFull {
		var hooks []hook
		if c.ruleThreshold > 0 || c.decoys != nil {
			s.deployer = loadgen.NewRuleDeployer(loadgen.RuleDeployerConfig{
				Blocks:    blocks,
				Clock:     c.clock,
				Threshold: c.ruleThreshold,
				Window:    c.ruleWindow,
				Paths:     c.rulePaths,
				Decoys:    c.decoys,
			})
			hooks = append(hooks, c.timed(spanDeployer, s.deployer.OnDecision))
		}
		if c.feeders && c.store != nil {
			f := loadgen.NewAccountFeeder(loadgen.AccountFeederConfig{
				Store: c.store, Clock: c.clock, BookingPaths: c.bookingPaths,
			})
			hooks = append(hooks, c.timed(spanAcctFeed, f.OnDecision))
		}
		if c.feeders && c.graph != nil {
			f := loadgen.NewGraphFeeder(loadgen.GraphFeederConfig{
				Graph: c.graph, Weak: c.entityWeak, Paths: c.entityPaths,
			})
			hooks = append(hooks, c.timed(spanGraphFeed, f.OnDecision))
		}
		switch len(hooks) {
		case 0:
		case 1:
			gcfg.OnDecision = hooks[0]
		default:
			gcfg.OnDecision = func(r *http.Request, info httpgate.ClientInfo, deniedBy string) {
				for _, h := range hooks {
					h(r, info, deniedBy)
				}
			}
		}
	}
	s.gate = httpgate.New(gcfg, opts...)
	return s
}

// timed wraps h in a span when the stack is traced.
func (c stackConfig) timed(name string, h hook) hook {
	if c.tr == nil {
		return h
	}
	return c.tr.timedHook(name, h)
}

// verdicts the gate can return, indexed for per-class tallies. Index 0
// is an admit; verdictUnknown marks anything else and fails the run.
var verdicts = []string{
	"",
	httpgate.ReasonBlocklist,
	httpgate.ReasonEntity,
	httpgate.ReasonAccountTier,
	httpgate.ReasonAccountLimit,
	httpgate.ReasonChallenge,
	httpgate.ReasonProfile,
	httpgate.ReasonResource,
	httpgate.ReasonPathLimit,
	httpgate.ReasonDecision,
}

const verdictUnknown = 10

// verdictIndex maps a denial reason to its tally slot.
func verdictIndex(reason string) int {
	for i, v := range verdicts {
		if reason == v {
			return i
		}
	}
	return verdictUnknown
}

// layerVerdicts groups the verdict slots into the per-layer metric names
// (the account layer owns both its tier wall and its tier limit).
var layerVerdicts = []struct {
	name  string
	slots []int
}{
	{"blocklist", []int{1}},
	{"entity", []int{2}},
	{"account", []int{3, 4}},
	{"profile", []int{6}},
	{"resource", []int{7}},
	{"path", []int{8}},
}

// tally is per-class-kind verdict counts: [0] honest, [1] abusive.
type tally [2][verdictUnknown + 1]uint64

// total is every decision of one kind.
func (t *tally) total(kind int) uint64 {
	var n uint64
	for _, c := range t[kind] {
		n += c
	}
	return n
}

// admitRate is the admitted share of one kind.
func (t *tally) admitRate(kind int) float64 {
	return ratio(float64(t[kind][0]), float64(t.total(kind)))
}

// setLayerCounts reports each layer's denials and catch ratio — the
// share of its denials that landed on abusive traffic.
func (t *tally) setLayerCounts(o *outcome) {
	for _, l := range layerVerdicts {
		var honest, abusive uint64
		for _, s := range l.slots {
			honest += t[0][s]
			abusive += t[1][s]
		}
		o.set("httpgate."+l.name+".denials", float64(honest+abusive), "count")
		o.set("httpgate."+l.name+".catch_ratio", ratio(float64(abusive), float64(honest+abusive)), "ratio")
	}
}
