// Package httpgate adapts the fraud-prevention pipeline to real HTTP
// traffic as net/http middleware. It is the deployment surface for the
// defences the simulation study evaluates: a production service wraps its
// sensitive handlers with a Gate and wires the same blocklists, rate
// limiters and challenge hooks the defender manages.
//
// Client attribution follows the paper's operational reality:
//
//   - the network address comes from the connection (or a trusted
//     forwarding header when configured);
//   - the device fingerprint arrives as a hash in a header set by the
//     site's client-side collector script;
//   - the client key is the session cookie or authenticated profile.
//
// The gate enforces, in order: blocklists (fingerprint, IP, client key),
// a challenge hook, then rate limits keyed per client profile, per
// caller-chosen resource (e.g. a booking reference) and per path. Denials
// are returned as 403/429 with machine-readable reason headers so that
// downstream analytics — and honest clients — can tell the layers apart.
//
// # Hot path
//
// The admitted path is allocation-free: each decision borrows a pooled
// scratch context (attribution, key-assembly buffer, the decision's
// shared clock reading), the layer order with its call adapters, fail
// policies and denial reasons is resolved once at construction into a
// step table, and built-in layers are probed with byte keys assembled in
// scratch space. Callers holding many requests use DecideBatch, which
// additionally shares one clock read and one breaker-state snapshot per
// round and probes the built-in limiters in bulk.
//
// # Resilience
//
// Each fallible layer runs behind its own circuit breaker with an
// explicit fail policy: the availability of a defence layer is itself a
// fraud surface (a silently failing rate limit re-opens the abuse window
// it closed), so the gate never lets a layer fail silently. A layer that
// errors, panics, or whose breaker is open is resolved by its
// resilience.Policy — FailOpen skips the layer, FailClosed denies the
// request — the decision is counted, and the response carries the
// affected layer names in DegradedHeader so downstream analytics can
// discount decisions made in degraded mode. Hook panics (Challenge,
// OnDecision, ResourceKey) are always recovered, with or without
// breakers: a misbehaving operator hook must not take down the serving
// goroutine.
package httpgate

import (
	"net"
	"net/http"
	"net/netip"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"funabuse/internal/mitigate"
	"funabuse/internal/obs"
	"funabuse/internal/resilience"
	"funabuse/internal/signal"
	"funabuse/internal/simclock"
)

// Header and cookie names used for client attribution.
const (
	// FingerprintHeader carries the client-side collector's fingerprint
	// hash (hexadecimal).
	FingerprintHeader = "X-Device-Fingerprint"
	// ClientCookie is the session cookie used as the client key.
	ClientCookie = "sid"
	// ReasonHeader names the defence layer that denied a request.
	ReasonHeader = "X-Denied-By"
	// DegradedHeader lists the layers (comma-separated) that were
	// unavailable — breaker open, error, or panic — while this decision
	// was made. Absent on healthy decisions.
	DegradedHeader = "X-Gate-Degraded"
)

// Denial reasons reported in ReasonHeader.
const (
	ReasonBlocklist = "blocklist"
	// ReasonEntity is reported when one of the request's identities sits
	// in a flagged entity-linkage component.
	ReasonEntity = "entity-graph"
	// ReasonAccountTier is reported when the request's path requires a
	// loyalty tier the client's account has not earned.
	ReasonAccountTier = "account-tier"
	// ReasonAccountLimit is reported when the client exceeded its
	// tier's rate allowance.
	ReasonAccountLimit = "rate-limit-account"
	ReasonChallenge    = "challenge"
	ReasonPathLimit    = "rate-limit-path"
	ReasonProfile      = "rate-limit-profile"
	ReasonResource     = "rate-limit-resource"
	// ReasonDecision is reported when the decision journal is unavailable
	// and the journal layer is configured fail-closed (audit-mandatory
	// deployments).
	ReasonDecision = "decision-journal"
)

// Layer identifies one guarded stage of the pipeline.
type Layer int

// Pipeline layers, in evaluation order.
const (
	LayerBlocklist Layer = iota
	LayerEntity
	LayerAccount
	LayerChallenge
	LayerProfile
	LayerResource
	LayerPath
	LayerDecision
	numLayers
)

// String names the layer as reported in DegradedHeader.
func (l Layer) String() string {
	switch l {
	case LayerBlocklist:
		return "blocklist"
	case LayerEntity:
		return "entity"
	case LayerAccount:
		return "account"
	case LayerChallenge:
		return "challenge"
	case LayerProfile:
		return "profile"
	case LayerResource:
		return "resource"
	case LayerPath:
		return "path"
	case LayerDecision:
		return "decision"
	default:
		return "unknown"
	}
}

// degradedNames[mask] is the DegradedHeader value for each combination of
// degraded layers, precomputed so the degraded path does not rebuild it.
var degradedNames = func() [1 << numLayers]string {
	var names [1 << numLayers]string
	for mask := 1; mask < len(names); mask++ {
		var parts []string
		for l := LayerBlocklist; l < numLayers; l++ {
			if mask&(1<<l) != 0 {
				parts = append(parts, l.String())
			}
		}
		names[mask] = strings.Join(parts, ",")
	}
	return names
}()

// ClientInfo is the gate's view of one request's origin.
type ClientInfo struct {
	IP          string
	Fingerprint uint64
	// HasFingerprint reports whether the collector header was present.
	HasFingerprint bool
	ClientKey      string
}

// Decision is the outcome of one gate evaluation.
type Decision struct {
	// Reason is the denying layer's ReasonHeader value; empty on admit.
	Reason string
	// Status is the denial's HTTP status; zero on admit.
	Status int
	// Degraded is the degraded-layer bitmask (bit 1<<Layer for each layer
	// that was unavailable while deciding); DegradedLayers renders it.
	Degraded uint8
}

// Denied reports whether the request was denied.
func (d Decision) Denied() bool { return d.Reason != "" }

// DegradedLayers renders the degraded bitmask as the DegradedHeader
// value; empty for a healthy decision.
func (d Decision) DegradedLayers() string { return degradedNames[d.Degraded] }

// Request is one decision input for DecideBatch: the HTTP request (seen
// by the challenge, resource-key and decision hooks) and the client
// attribution, extracted by the caller — typically via Gate.Client.
type Request struct {
	R    *http.Request
	Info ClientInfo
}

// CheckFunc is a fallible keyed layer check: a blocklist lookup (true
// means blocked) or a limiter decision (true means allowed). In-process
// implementations never fail; remote ones — and fault-injection wrappers —
// return errors, which the layer's breaker and policy absorb.
type CheckFunc func(key string, now time.Time) (bool, error)

// EntityLookup answers whether an entity key belongs to a flagged
// linkage component. The gate probes it with byte keys assembled in
// per-decision scratch, so implementations must not retain the slice;
// entitygraph.Graph's FlaggedBytes is the canonical implementation. The
// interface keeps httpgate decoupled from the graph package.
type EntityLookup interface {
	FlaggedBytes(key []byte) bool
}

// ResilienceConfig wires per-layer circuit breakers and fail policies
// into a Gate.
type ResilienceConfig struct {
	// Breaker is the per-layer breaker template (every enabled layer gets
	// its own instance); zero fields select resilience defaults.
	Breaker resilience.BreakerConfig
	// Per-layer fail policies. The zero value, FailOpen, skips an
	// unavailable layer; FailClosed denies the request instead. See
	// DESIGN.md for guidance on choosing per layer.
	Blocklist resilience.Policy
	Entity    resilience.Policy
	Account   resilience.Policy
	Challenge resilience.Policy
	Profile   resilience.Policy
	Resource  resilience.Policy
	Path      resilience.Policy
	// Decision governs the OnDecision journal write: FailClosed turns an
	// unavailable audit journal into a 503 denial (audit-mandatory
	// postures); FailOpen serves the request and counts the lost record.
	Decision resilience.Policy
}

// Config assembles a Gate.
type Config struct {
	// Clock supplies time; defaults to the real clock.
	Clock simclock.Clock
	// Blocks is the shared deny list; nil disables the layer (unless
	// BlocklistFunc is set).
	Blocks *mitigate.BlockList
	// BlocklistFunc, when non-nil, replaces Blocks as the lookup — the
	// hook for remote deny lists and fault injection. Keys arrive
	// prefixed ("fp:", "ip:", "ck:") exactly as with Blocks.
	BlocklistFunc CheckFunc
	// Entities, when non-nil, enables the entity-linkage layer: each of
	// the request's identity keys is looked up against flagged graph
	// components, and a hit denies with 403/entity-graph. The hot path
	// only reads the graph — feeding observations into it belongs off the
	// serving path (an OnDecision hook, a log tail). entitygraph.Graph
	// satisfies this.
	Entities EntityLookup
	// EntityCheck, when non-nil, replaces Entities as the lookup — the
	// hook for remote graph services and fault injection. Keys arrive
	// prefixed ("fp:", "ip:", "ck:") exactly as with Entities.
	EntityCheck CheckFunc
	// Accounts, when non-nil, enables the account-lifecycle layer:
	// per-tier feature access and per-tier rate multipliers resolved
	// against the client key's loyalty tier. As with the entity layer,
	// the hot path only reads the account store — creating and aging
	// accounts belongs off the serving path (an OnDecision hook).
	Accounts *AccountPolicy
	// Challenge, when non-nil, is invoked for every admitted-so-far
	// request; returning false denies with 403/challenge. Wire it to a
	// CAPTCHA or proof-of-work verifier.
	Challenge func(r *http.Request, info ClientInfo) bool
	// ChallengeFunc is the fallible variant of Challenge and wins when
	// both are set.
	ChallengeFunc func(r *http.Request, info ClientInfo) (bool, error)
	// PathLimit caps requests per path per window; zero disables.
	PathLimit  int
	PathWindow time.Duration
	// ProfileLimit caps requests per client key per window; zero disables.
	ProfileLimit  int
	ProfileWindow time.Duration
	// ResourceKey extracts a resource identity (booking reference, phone
	// number, ...) from the request for per-resource limiting; nil or an
	// empty return disables the layer for that request.
	ResourceKey func(r *http.Request) string
	// ResourceLimit caps requests per resource per window; zero disables.
	ResourceLimit  int
	ResourceWindow time.Duration
	// PathCheck, ProfileCheck and ResourceCheck, when non-nil, replace
	// the corresponding built-in sharded limiter (which is then not
	// constructed). Keys arrive prefixed ("path:", "pf:", "rs:").
	PathCheck     CheckFunc
	ProfileCheck  CheckFunc
	ResourceCheck CheckFunc
	// TrustForwardedFor reads the client IP from X-Forwarded-For's first
	// hop. Enable only behind a trusted proxy.
	TrustForwardedFor bool
	// RequireFingerprint denies requests missing the collector header —
	// a soft bot gate: real browsers run the collector, trivial scripts
	// do not.
	RequireFingerprint bool
	// OnDecision, when non-nil, observes every decision (for logging or
	// the defender's journals). It may run concurrently and must be safe
	// for concurrent use.
	OnDecision func(r *http.Request, info ClientInfo, deniedBy string)
	// OnDecisionFunc is the fallible variant of OnDecision and wins when
	// both are set.
	OnDecisionFunc func(r *http.Request, info ClientInfo, deniedBy string) error
	// Resilience, when non-nil, puts every enabled fallible layer behind
	// its own circuit breaker with the configured fail policies. When nil
	// the gate still recovers hook panics and applies (fail-open) layer
	// policies; it just never short-circuits a flapping layer.
	Resilience *ResilienceConfig
	// Shards is the lock-stripe count for each rate-limiting layer,
	// rounded up to a power of two; zero selects signal.DefaultShards.
	Shards int
	// WindowBuckets is the expiry granularity of the limiter bucket
	// rings; zero selects signal.DefaultWindowBuckets.
	WindowBuckets int

	// telemetry, telLabels and traces are set only through WithTelemetry,
	// WithTelemetryLabels and WithTraces: new cross-cutting concerns
	// arrive as options, not as further growth of this struct.
	telemetry *obs.Registry
	telLabels []obs.Label
	traces    *obs.TraceRing
}

// layerGuard is one layer's resilience state: its breaker (nil without a
// ResilienceConfig), fail policy, and degradation counters.
type layerGuard struct {
	breaker  *resilience.Breaker
	policy   resilience.Policy
	errors   atomic.Uint64
	panics   atomic.Uint64
	degraded atomic.Uint64
}

// stepKind selects a layer step's call adapter and its batch strategy.
type stepKind uint8

const (
	stepBlocklist stepKind = iota
	stepEntity
	stepAccountGate
	stepAccountLimit
	stepChallenge
	stepProfile
	stepResource
	stepPath
)

// layerStep is one enabled pipeline stage, fully resolved at New time:
// evaluation order is the table order, the call adapter is a static
// function value, and the denial reason and status are bound here so the
// hot path never rebuilds or re-derives them per request.
type layerStep struct {
	kind  stepKind
	layer Layer
	// passVal is the verdict that lets the request continue — false for
	// the blocklist ("not blocked"), true for challenge and the limiters
	// ("allowed"). It doubles as the FailOpen resolution of an
	// unavailable layer.
	passVal bool
	// builtin marks an infallible in-process layer (the shared BlockList
	// or a built-in sharded limiter). DecideBatch snapshots a built-in
	// layer's breaker once per round and probes the limiters in bulk;
	// custom checks — the remote-lookup and fault-injection seam — keep
	// per-request breaker semantics.
	builtin bool
	call    func(*Gate, *decisionCtx) (bool, error)
	reason  string
	status  int
}

// decisionCtx is the pooled per-decision scratch: the request under
// evaluation, its attribution, the decision's shared clock reading and a
// key-assembly buffer. Pooling it keeps the admitted hot path free of
// heap allocations. A context never outlives the decision that borrowed
// it: every layer call runs under panic isolation (safeCall), so no
// panic can carry a pooled context out of decide before it is released.
type decisionCtx struct {
	r    *http.Request
	info ClientInfo
	now  time.Time
	buf  []byte
}

// ctxBufCap is the key scratch's initial capacity; buffers grown past
// ctxBufMax by pathological inputs are dropped on release rather than
// pinned in the pool.
const (
	ctxBufCap = 128
	ctxBufMax = 4096
)

var ctxPool = sync.Pool{
	New: func() any { return &decisionCtx{buf: make([]byte, 0, ctxBufCap)} },
}

func acquireCtx(r *http.Request, info ClientInfo, now time.Time) *decisionCtx {
	ctx := ctxPool.Get().(*decisionCtx)
	ctx.r, ctx.info, ctx.now = r, info, now
	return ctx
}

// releaseCtx returns ctx to the pool, dropping request references so the
// pool never pins request memory between decisions.
func releaseCtx(ctx *decisionCtx) {
	ctx.r = nil
	ctx.info = ClientInfo{}
	if cap(ctx.buf) > ctxBufMax {
		ctx.buf = make([]byte, 0, ctxBufCap)
	}
	ctx.buf = ctx.buf[:0]
	ctxPool.Put(ctx)
}

// Gate is an http.Handler middleware enforcing the defence pipeline. It is
// safe for concurrent use without a global lock: each rate-limiting layer
// is a lock-striped signal.Limiter, the block list synchronises itself,
// and the counters are atomics, so decisions for unrelated keys proceed in
// parallel. The Challenge and OnDecision hooks are called outside any gate
// lock and must be concurrency-safe; panics in them are recovered and
// resolved by the layer's fail policy.
type Gate struct {
	cfg   Config
	clock simclock.Clock

	// Built-in layer state; nil when the layer is disabled or replaced by
	// a custom CheckFunc. The built-ins are the byte-keyed fast path.
	blocks   *mitigate.BlockList
	entities EntityLookup
	path     *signal.Limiter
	profile  *signal.Limiter
	resource *signal.Limiter

	// Account layer state: the normalized policy, the per-tier limiter
	// table, and which account step owns the per-tier telemetry counter
	// (so a request's tier is counted exactly once when both account
	// steps are enabled).
	accounts       *AccountPolicy
	accountLims    [numAccountTiers]*signal.Limiter
	accountCountIn stepKind

	// Custom fallible layer calls; nil means the built-in (or nothing)
	// serves the layer.
	blockCheck    CheckFunc
	entityCheck   CheckFunc
	challenge     func(r *http.Request, info ClientInfo) (bool, error)
	pathCheck     CheckFunc
	profileCheck  CheckFunc
	resourceCheck CheckFunc
	onDecision    func(r *http.Request, info ClientInfo, deniedBy string) error

	// steps is the pre-resolved pipeline: only enabled layers appear, in
	// evaluation order, with their call adapters and denial verdicts
	// bound at construction.
	steps []layerStep

	guards [numLayers]layerGuard

	admitted atomic.Uint64
	denied   atomic.Uint64
	degraded atomic.Uint64

	// tel holds pre-resolved telemetry handles; nil without WithTelemetry
	// or WithTraces.
	tel *gateTelemetry
}

// New builds a Gate from cfg, then applies opts in order. Options are the
// growth surface for cross-cutting concerns (WithClock, WithResilience,
// WithTelemetry, ...); plain New(cfg) construction keeps working.
func New(cfg Config, opts ...Option) *Gate {
	for _, opt := range opts {
		opt(&cfg)
	}
	clock := cfg.Clock
	if clock == nil {
		clock = simclock.Real{}
	}
	g := &Gate{cfg: cfg, clock: clock}

	g.blockCheck = cfg.BlocklistFunc
	if g.blockCheck == nil && cfg.Blocks != nil {
		g.blocks = cfg.Blocks
	}
	g.entityCheck = cfg.EntityCheck
	if g.entityCheck == nil && cfg.Entities != nil {
		g.entities = cfg.Entities
	}
	g.challenge = cfg.ChallengeFunc
	if g.challenge == nil && cfg.Challenge != nil {
		hook := cfg.Challenge
		g.challenge = func(r *http.Request, info ClientInfo) (bool, error) {
			return hook(r, info), nil
		}
	}
	g.onDecision = cfg.OnDecisionFunc
	if g.onDecision == nil && cfg.OnDecision != nil {
		hook := cfg.OnDecision
		g.onDecision = func(r *http.Request, info ClientInfo, deniedBy string) error {
			hook(r, info, deniedBy)
			return nil
		}
	}

	g.pathCheck = cfg.PathCheck
	if g.pathCheck == nil && cfg.PathLimit > 0 {
		g.path = signal.NewLimiter(signal.LimiterConfig{
			Window: cfg.PathWindow, Limit: cfg.PathLimit,
			Buckets: cfg.WindowBuckets, Shards: cfg.Shards,
		})
	}
	g.profileCheck = cfg.ProfileCheck
	if g.profileCheck == nil && cfg.ProfileLimit > 0 {
		g.profile = signal.NewLimiter(signal.LimiterConfig{
			Window: cfg.ProfileWindow, Limit: cfg.ProfileLimit,
			Buckets: cfg.WindowBuckets, Shards: cfg.Shards,
		})
	}
	g.resourceCheck = cfg.ResourceCheck
	if g.resourceCheck == nil && cfg.ResourceLimit > 0 {
		g.resource = signal.NewLimiter(signal.LimiterConfig{
			Window: cfg.ResourceWindow, Limit: cfg.ResourceLimit,
			Buckets: cfg.WindowBuckets, Shards: cfg.Shards,
		})
	}
	g.buildAccounts()

	g.buildSteps()

	if rc := cfg.Resilience; rc != nil {
		policies := [numLayers]resilience.Policy{
			LayerBlocklist: rc.Blocklist,
			LayerEntity:    rc.Entity,
			LayerAccount:   rc.Account,
			LayerChallenge: rc.Challenge,
			LayerProfile:   rc.Profile,
			LayerResource:  rc.Resource,
			LayerPath:      rc.Path,
			LayerDecision:  rc.Decision,
		}
		for l := LayerBlocklist; l < numLayers; l++ {
			g.guards[l].policy = policies[l]
		}
		for i := range g.steps {
			g.guards[g.steps[i].layer].breaker = resilience.NewBreaker(rc.Breaker)
		}
		if g.onDecision != nil {
			g.guards[LayerDecision].breaker = resilience.NewBreaker(rc.Breaker)
		}
	}
	g.initTelemetry(cfg.telemetry, cfg.traces)
	return g
}

// buildSteps resolves the decision table: one entry per enabled layer in
// evaluation order, each carrying its static call adapter, continue
// verdict and denial reason/status.
func (g *Gate) buildSteps() {
	if g.blocks != nil || g.blockCheck != nil {
		g.steps = append(g.steps, layerStep{
			kind: stepBlocklist, layer: LayerBlocklist, passVal: false,
			builtin: g.blocks != nil, call: callBlocklist,
			reason: ReasonBlocklist, status: http.StatusForbidden,
		})
	}
	if g.entities != nil || g.entityCheck != nil {
		g.steps = append(g.steps, layerStep{
			kind: stepEntity, layer: LayerEntity, passVal: false,
			builtin: g.entities != nil, call: callEntity,
			reason: ReasonEntity, status: http.StatusForbidden,
		})
	}
	if p := g.accounts; p != nil {
		// A custom TierFunc is the remote-lookup/fault-injection seam, so
		// it keeps per-request breaker semantics in batch rounds.
		builtin := p.TierFunc == nil
		g.accountCountIn = stepAccountLimit
		if len(p.Restricted) > 0 {
			g.accountCountIn = stepAccountGate
			g.steps = append(g.steps, layerStep{
				kind: stepAccountGate, layer: LayerAccount, passVal: true,
				builtin: builtin, call: callAccountGate,
				reason: ReasonAccountTier, status: http.StatusForbidden,
			})
		}
		if p.BaseLimit > 0 {
			g.steps = append(g.steps, layerStep{
				kind: stepAccountLimit, layer: LayerAccount, passVal: true,
				builtin: builtin, call: callAccountLimit,
				reason: ReasonAccountLimit, status: http.StatusTooManyRequests,
			})
		}
	}
	if g.challenge != nil {
		g.steps = append(g.steps, layerStep{
			kind: stepChallenge, layer: LayerChallenge, passVal: true,
			call: callChallenge, reason: ReasonChallenge, status: http.StatusForbidden,
		})
	}
	if g.profile != nil || g.profileCheck != nil {
		g.steps = append(g.steps, layerStep{
			kind: stepProfile, layer: LayerProfile, passVal: true,
			builtin: g.profile != nil, call: callProfile,
			reason: ReasonProfile, status: http.StatusTooManyRequests,
		})
	}
	// The resource step stays non-builtin even over the built-in limiter:
	// its key extractor is an operator hook, so batch rounds keep
	// per-request guard semantics around it.
	if (g.resource != nil || g.resourceCheck != nil) && g.cfg.ResourceKey != nil {
		g.steps = append(g.steps, layerStep{
			kind: stepResource, layer: LayerResource, passVal: true,
			call: callResource, reason: ReasonResource, status: http.StatusTooManyRequests,
		})
	}
	if g.path != nil || g.pathCheck != nil {
		g.steps = append(g.steps, layerStep{
			kind: stepPath, layer: LayerPath, passVal: true,
			builtin: g.path != nil, call: callPath,
			reason: ReasonPathLimit, status: http.StatusTooManyRequests,
		})
	}
}

// Breaker exposes a layer's breaker for tests and dashboards; nil without
// a ResilienceConfig or for a disabled layer.
func (g *Gate) Breaker(l Layer) *resilience.Breaker { return g.guards[l].breaker }

// Wrap returns next guarded by the gate.
func (g *Gate) Wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		d := g.Decide(r, g.client(r))
		if d.Degraded != 0 {
			w.Header().Set(DegradedHeader, degradedNames[d.Degraded])
		}
		if d.Reason != "" {
			w.Header().Set(ReasonHeader, d.Reason)
			http.Error(w, http.StatusText(d.Status), d.Status)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// Decide evaluates the full pipeline for one request — layers, the
// decision journal, counters and telemetry — and returns the verdict. It
// is everything Wrap does short of writing the HTTP response, exported so
// in-process callers (load generators, batch fronts) can drive the gate
// without a socket. Callers that already hold many requests should prefer
// DecideBatch, which amortizes the per-request overhead.
func (g *Gate) Decide(r *http.Request, info ClientInfo) Decision {
	now := g.clock.Now()
	reason, status, mask := g.decideAt(r, info, now)
	return g.finish(r, info, now, reason, status, mask)
}

// Client extracts the gate's view of the request's origin — the
// attribution Wrap computes before deciding, exported for Decide and
// DecideBatch callers.
func (g *Gate) Client(r *http.Request) ClientInfo { return g.client(r) }

// finish runs the decision journal and the accounting shared by Wrap,
// Decide and DecideBatch: the journal hook behind its guard, the
// admit/deny/degraded counters, and the telemetry record.
func (g *Gate) finish(r *http.Request, info ClientInfo, start time.Time, reason string, status int, mask uint8) Decision {
	if g.onDecision != nil {
		if !g.runDecisionHook(r, info, reason, start) {
			mask |= 1 << LayerDecision
			if g.guards[LayerDecision].policy == resilience.FailClosed && reason == "" {
				reason, status = ReasonDecision, http.StatusServiceUnavailable
			}
		}
	}
	if reason != "" {
		g.denied.Add(1)
	} else {
		g.admitted.Add(1)
	}
	g.observeDecision(start, r.URL.Path, reason, mask)
	if mask != 0 {
		g.degraded.Add(1)
	}
	return Decision{Reason: reason, Status: status, Degraded: mask}
}

// runDecisionHook journals the decision behind the decision layer's guard,
// reporting whether the journal write succeeded.
func (g *Gate) runDecisionHook(r *http.Request, info ClientInfo, reason string, now time.Time) bool {
	gd := &g.guards[LayerDecision]
	if gd.breaker != nil && !gd.breaker.Allow(now) {
		gd.degraded.Add(1)
		return false
	}
	err := g.safeDecision(gd, r, info, reason)
	if gd.breaker != nil {
		gd.breaker.Record(now, err == nil)
	}
	if err != nil {
		gd.errors.Add(1)
		gd.degraded.Add(1)
		return false
	}
	return true
}

// safeDecision invokes the decision hook with panic isolation.
func (g *Gate) safeDecision(gd *layerGuard, r *http.Request, info ClientInfo, reason string) (err error) {
	defer func() {
		if p := recover(); p != nil {
			gd.panics.Add(1)
			err = &resilience.PanicError{Value: p}
		}
	}()
	return g.onDecision(r, info, reason)
}

// decide runs the layers in order, returning the denial reason, HTTP
// status and the degraded-layer bitmask, or ("", 0, mask) to admit.
func (g *Gate) decide(r *http.Request, info ClientInfo) (string, int, uint8) {
	return g.decideAt(r, info, g.clock.Now())
}

// decideAt is decide with the clock reading hoisted out, so batch callers
// share one reading across a round.
func (g *Gate) decideAt(r *http.Request, info ClientInfo, now time.Time) (string, int, uint8) {
	ctx := acquireCtx(r, info, now)
	reason, status, mask := g.run(ctx)
	releaseCtx(ctx)
	return reason, status, mask
}

// run evaluates the pre-resolved step table against ctx.
func (g *Gate) run(ctx *decisionCtx) (string, int, uint8) {
	var mask uint8
	if g.cfg.RequireFingerprint && !ctx.info.HasFingerprint {
		return ReasonChallenge, http.StatusForbidden, mask
	}
	for i := range g.steps {
		st := &g.steps[i]
		if st.skipFor(&ctx.info) {
			continue
		}
		v, deg := g.runCheck(st, ctx)
		mask |= deg
		if v != st.passVal {
			return st.reason, st.status, mask
		}
	}
	return "", 0, mask
}

// runCheck runs one guarded layer call. An unavailable layer — breaker
// open, error, or panic — is resolved by its policy: FailOpen yields the
// step's continue verdict, FailClosed its negation. The returned deg is
// the layer's degraded-mask bit, 0 on a healthy call.
func (g *Gate) runCheck(st *layerStep, ctx *decisionCtx) (verdict bool, deg uint8) {
	gd := &g.guards[st.layer]
	if gd.breaker != nil && !gd.breaker.Allow(ctx.now) {
		return gd.degrade(st.layer, st.passVal)
	}
	v, err := g.safeCall(gd, st, ctx)
	if gd.breaker != nil {
		gd.breaker.Record(ctx.now, err == nil)
	}
	if err != nil {
		gd.errors.Add(1)
		return gd.degrade(st.layer, st.passVal)
	}
	return v, 0
}

// degrade resolves an unavailable layer by its policy and counts it.
func (gd *layerGuard) degrade(l Layer, failOpen bool) (bool, uint8) {
	gd.degraded.Add(1)
	bit := uint8(1) << uint(l)
	if gd.policy == resilience.FailClosed {
		return !failOpen, bit
	}
	return failOpen, bit
}

// safeCall invokes a layer's call adapter with panic isolation.
func (g *Gate) safeCall(gd *layerGuard, st *layerStep, ctx *decisionCtx) (v bool, err error) {
	defer func() {
		if p := recover(); p != nil {
			gd.panics.Add(1)
			v, err = false, &resilience.PanicError{Value: p}
		}
	}()
	return st.call(g, ctx)
}

// callBlocklist screens the request's identities against the deny list,
// stopping at the first hit or error. The built-in list is probed with
// byte keys assembled in the context's scratch buffer; a custom
// BlocklistFunc receives the same prefixed keys as strings.
func callBlocklist(g *Gate, ctx *decisionCtx) (bool, error) {
	info := &ctx.info
	if g.blocks != nil {
		if info.HasFingerprint {
			buf := append(ctx.buf[:0], "fp:"...)
			buf = strconv.AppendUint(buf, info.Fingerprint, 16)
			ctx.buf = buf
			if g.blocks.BlockedBytes(buf, ctx.now) {
				return true, nil
			}
		}
		buf := append(ctx.buf[:0], "ip:"...)
		buf = append(buf, info.IP...)
		ctx.buf = buf
		if g.blocks.BlockedBytes(buf, ctx.now) {
			return true, nil
		}
		if info.ClientKey != "" {
			buf = append(ctx.buf[:0], "ck:"...)
			buf = append(buf, info.ClientKey...)
			ctx.buf = buf
			if g.blocks.BlockedBytes(buf, ctx.now) {
				return true, nil
			}
		}
		return false, nil
	}
	if info.HasFingerprint {
		blocked, err := g.blockCheck("fp:"+strconv.FormatUint(info.Fingerprint, 16), ctx.now)
		if blocked || err != nil {
			return blocked, err
		}
	}
	blocked, err := g.blockCheck("ip:"+info.IP, ctx.now)
	if blocked || err != nil {
		return blocked, err
	}
	if info.ClientKey != "" {
		return g.blockCheck("ck:"+info.ClientKey, ctx.now)
	}
	return false, nil
}

// callEntity screens the request's identities against the flagged
// entity-linkage components, stopping at the first hit or error. Keys are
// assembled exactly as for the blocklist: byte keys in the context's
// scratch for the in-process graph, prefixed strings for a custom
// EntityCheck.
func callEntity(g *Gate, ctx *decisionCtx) (bool, error) {
	info := &ctx.info
	if g.entities != nil {
		if info.HasFingerprint {
			buf := append(ctx.buf[:0], "fp:"...)
			buf = strconv.AppendUint(buf, info.Fingerprint, 16)
			ctx.buf = buf
			if g.entities.FlaggedBytes(buf) {
				return true, nil
			}
		}
		buf := append(ctx.buf[:0], "ip:"...)
		buf = append(buf, info.IP...)
		ctx.buf = buf
		if g.entities.FlaggedBytes(buf) {
			return true, nil
		}
		if info.ClientKey != "" {
			buf = append(ctx.buf[:0], "ck:"...)
			buf = append(buf, info.ClientKey...)
			ctx.buf = buf
			if g.entities.FlaggedBytes(buf) {
				return true, nil
			}
		}
		return false, nil
	}
	if info.HasFingerprint {
		flagged, err := g.entityCheck("fp:"+strconv.FormatUint(info.Fingerprint, 16), ctx.now)
		if flagged || err != nil {
			return flagged, err
		}
	}
	flagged, err := g.entityCheck("ip:"+info.IP, ctx.now)
	if flagged || err != nil {
		return flagged, err
	}
	if info.ClientKey != "" {
		return g.entityCheck("ck:"+info.ClientKey, ctx.now)
	}
	return false, nil
}

// callChallenge invokes the challenge hook.
func callChallenge(g *Gate, ctx *decisionCtx) (bool, error) {
	return g.challenge(ctx.r, ctx.info)
}

// callProfile probes the per-client-key limiter.
func callProfile(g *Gate, ctx *decisionCtx) (bool, error) {
	if g.profile != nil {
		buf := append(ctx.buf[:0], "pf:"...)
		buf = append(buf, ctx.info.ClientKey...)
		ctx.buf = buf
		return g.profile.AllowBytes(buf, ctx.now), nil
	}
	return g.profileCheck("pf:"+ctx.info.ClientKey, ctx.now)
}

// callResource probes the per-resource limiter. Key extraction is an
// operator hook: it runs inside the guard so its panics degrade the layer
// rather than the goroutine.
func callResource(g *Gate, ctx *decisionCtx) (bool, error) {
	key := g.cfg.ResourceKey(ctx.r)
	if key == "" {
		return true, nil
	}
	if g.resource != nil {
		buf := append(ctx.buf[:0], "rs:"...)
		buf = append(buf, key...)
		ctx.buf = buf
		return g.resource.AllowBytes(buf, ctx.now), nil
	}
	return g.resourceCheck("rs:"+key, ctx.now)
}

// callPath probes the per-path limiter.
func callPath(g *Gate, ctx *decisionCtx) (bool, error) {
	if g.path != nil {
		buf := append(ctx.buf[:0], "path:"...)
		buf = append(buf, ctx.r.URL.Path...)
		ctx.buf = buf
		return g.path.AllowBytes(buf, ctx.now), nil
	}
	return g.pathCheck("path:"+ctx.r.URL.Path, ctx.now)
}

// client extracts attribution from the request.
func (g *Gate) client(r *http.Request) ClientInfo {
	var info ClientInfo

	info.IP = remoteIP(r, g.cfg.TrustForwardedFor)

	if raw := r.Header.Get(FingerprintHeader); raw != "" {
		if v, err := strconv.ParseUint(raw, 16, 64); err == nil {
			info.Fingerprint = v
			info.HasFingerprint = true
		}
	}
	if v := cookieValue(r, ClientCookie); v != "" {
		info.ClientKey = v
	}
	return info
}

// cookieValue scans the Cookie headers for name's value without
// allocating: net/http's Cookie accessor parses every cookie into fresh
// structs per call, which was the last allocation on the attribution
// path. The value is returned as a substring of the header, with
// surrounding double quotes stripped as net/http does.
func cookieValue(r *http.Request, name string) string {
	for _, line := range r.Header["Cookie"] {
		for len(line) > 0 {
			part := line
			if i := strings.IndexByte(line, ';'); i >= 0 {
				part, line = line[:i], line[i+1:]
			} else {
				line = ""
			}
			part = strings.TrimSpace(part)
			eq := strings.IndexByte(part, '=')
			if eq <= 0 || part[:eq] != name {
				continue
			}
			val := part[eq+1:]
			if len(val) >= 2 && val[0] == '"' && val[len(val)-1] == '"' {
				val = val[1 : len(val)-1]
			}
			return val
		}
	}
	return ""
}

// QueryValue returns key's first value in rawQuery — exactly what
// url.ParseQuery(rawQuery).Get(key) returns — without building the
// url.Values map. Pairs holding a ';' or a malformed escape are skipped,
// as ParseQuery skips them. The value is a substring of rawQuery unless
// it holds a '%' or '+', the only case that allocates, so decision hooks
// and ResourceKey functions can read a request's parameters per request
// for free.
func QueryValue(rawQuery, key string) string {
	for rawQuery != "" {
		var pair string
		pair, rawQuery, _ = strings.Cut(rawQuery, "&")
		if pair == "" || strings.IndexByte(pair, ';') >= 0 {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		if !queryKeyIs(k, key) {
			continue
		}
		if !strings.ContainsAny(v, "%+") {
			return v
		}
		if u, err := url.QueryUnescape(v); err == nil {
			return u
		}
	}
	return ""
}

// queryKeyIs reports whether the query-escaped k unescapes to want,
// decoding in step with the comparison. A malformed escape never matches.
func queryKeyIs(k, want string) bool {
	j := 0
	for i := 0; i < len(k); i++ {
		c := k[i]
		switch c {
		case '%':
			if i+2 >= len(k) {
				return false
			}
			hi, okh := unhex(k[i+1])
			lo, okl := unhex(k[i+2])
			if !okh || !okl {
				return false
			}
			c = hi<<4 | lo
			i += 2
		case '+':
			c = ' '
		}
		if j >= len(want) || want[j] != c {
			return false
		}
		j++
	}
	return j == len(want)
}

// unhex decodes one hexadecimal digit.
func unhex(c byte) (byte, bool) {
	switch {
	case '0' <= c && c <= '9':
		return c - '0', true
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10, true
	case 'A' <= c && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

// remoteIP resolves the client address, honouring X-Forwarded-For only
// when trusted. A malformed first hop (empty, whitespace, or not an IP
// address — e.g. the header ",1.2.3.4") falls back to RemoteAddr rather
// than attributing every such request to the shared degenerate "ip:" key.
func remoteIP(r *http.Request, trustXFF bool) string {
	if trustXFF {
		if xff := r.Header.Get("X-Forwarded-For"); xff != "" {
			first := xff
			if i := strings.IndexByte(xff, ','); i >= 0 {
				first = xff[:i]
			}
			first = strings.TrimSpace(first)
			if _, err := netip.ParseAddr(first); err == nil {
				return first
			}
		}
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}
