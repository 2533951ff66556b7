package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"time"

	"funabuse/internal/account"
	"funabuse/internal/entitygraph"
	"funabuse/internal/loadgen"
	"funabuse/internal/simclock"
)

// The loopback front probe: the E14 traffic shape — honest browsing,
// Case A seat-spinning and Table I SMS pumping, with bots that rotate
// fingerprints after a blocking rule catches them — replayed open-loop
// in wall time by loadgen.Runner over real 127.0.0.1 sockets. The target
// is the same benchmark binary re-executed as a server, so its CPU and
// allocations are the server's alone. Its gate runs the blocklist with a
// RuleDeployer, the profile, resource and path limiters, telemetry, and
// the entity and account layers read-only: populated during set-up, with
// no feeders.
const (
	// serveArg re-executes the binary as the loopback target.
	serveArg = "serve"

	// e14Rate is the E14 scenario's total request rate; a run at rate r
	// scales every class's client count by r/e14Rate, keeping each
	// client's own rate.
	e14Rate = 4 + 10 + 12

	// referenceRate is well below the knee; the latency, CPU and
	// allocation metrics are measured there.
	referenceRate = 5_000
	// loopbackWorkers is the generator's worker and connection count.
	loopbackWorkers = 2
	// p99Bound is the ladder's intended-start latency limit.
	p99Bound = 50 * time.Millisecond
	// refSegments splits the reference replay; its CPU and allocation
	// metrics are medians over the segments, so a stall of the shared
	// host moves a segment, not the result.
	refSegments = 6
	// warmupTime is the set-up replay that warms both processes.
	warmupTime = 300 * time.Millisecond
)

// ladder is the fixed offered-rate ladder, spanning the knee in steps
// of 5%.
var ladder = []float64{10000, 10500, 11000, 11600, 12200, 12800, 13400, 14100, 14800, 15500, 16300, 17100, 18000, 18900, 19800, 20800, 21800}

// maxLadderRate bounds the client counts the target pre-populates for.
var maxLadderRate = ladder[len(ladder)-1]

var loopbackEpoch = time.Date(2023, 3, 1, 0, 0, 0, 0, time.UTC)

// scaled rounds n*k up to at least one.
func scaled(n int, k float64) int { return max(1, int(math.Ceil(float64(n)*k))) }

// loopbackScenario is the E14 shape at the given total rate for dur.
func loopbackScenario(seed uint64, rate float64, dur time.Duration) loadgen.Scenario {
	k := rate / e14Rate
	return loadgen.Scenario{
		Seed:  seed,
		Start: loopbackEpoch,
		Classes: []loadgen.Class{
			{
				Name:    "honest",
				Kind:    loadgen.Honest,
				Clients: scaled(12, k),
				Paths:   []string{loadgen.PathSearch, loadgen.PathHold, loadgen.PathSMS},
				Phases:  []loadgen.Phase{{Dur: dur, Rate: 4 * k}},
			},
			{
				Name:         "seatspin",
				Kind:         loadgen.SeatSpin,
				Clients:      scaled(3, k),
				Paths:        []string{loadgen.PathHold},
				ReactionMean: 2 * time.Second,
				Phases:       []loadgen.Phase{{Dur: dur, Rate: 10 * k}},
			},
			{
				Name:         "smspump",
				Kind:         loadgen.SMSPump,
				Clients:      scaled(3, k),
				Paths:        []string{loadgen.PathSMS},
				Resources:    scaled(80, k),
				ReactionMean: 2 * time.Second,
				Phases:       []loadgen.Phase{{Dur: dur, Rate: 12 * k}},
			},
		},
	}
}

// loopbackState is the target's read-only entity and account state.
type loopbackState struct {
	graph *entitygraph.Graph
	store *account.Store
}

// newLoopbackState populates the graph and store the way an operator's
// history would: every honest client known as a gold member and as an
// unflagged fingerprint-free session/address pair, and one SMS pumper in
// five already tied, by an earlier investigation, to a flagged ring.
func newLoopbackState() *loopbackState {
	st := &loopbackState{
		graph: entitygraph.New(entitygraph.Config{MinSize: 6, MinTypes: 3, FlagScore: 4}),
		store: account.NewStore(account.Config{}),
	}
	sc := loopbackScenario(0, maxLadderRate, time.Second)
	for ci, c := range sc.Classes {
		for i := range c.Clients {
			sid := fmt.Sprintf("%s-%d", c.Name, i)
			switch c.Kind {
			case loadgen.Honest:
				st.store.Register(sid, loopbackEpoch.Add(-365*24*time.Hour), 25, loopbackEpoch)
				ip := fmt.Sprintf("198.51.%d.%d", (ci*16+i/250)%240, 1+i%250)
				st.graph.Observe([]string{"ck:" + sid, entitygraph.IPKey(ip)}, 0)
			case loadgen.SMSPump:
				if i%5 == 0 {
					ring := i / 40
					st.graph.Observe([]string{"ck:" + sid + "-r0",
						entitygraph.IPKey(fmt.Sprintf("192.0.2.%d", ring%250)),
						entitygraph.BookingKey(fmt.Sprintf("RING%d", ring))}, 1)
				}
			}
		}
	}
	return st
}

// loopbackConfig is the target gate over st.
func loopbackConfig(st *loopbackState, clock simclock.Clock, depth int, tr *tracer) stackConfig {
	return stackConfig{
		clock: clock,
		depth: depth,
		graph: st.graph,
		store: st.store,
		limits: limits{
			profile: 20, profileWin: 10 * time.Second,
			resource: 3, resourceWin: 10 * time.Second,
			path: int(2 * maxLadderRate * 10), pathWin: 10 * time.Second,
		},
		ruleThreshold: 12,
		ruleWindow:    10 * time.Second,
		rulePaths:     []string{loadgen.PathHold, loadgen.PathSMS},
		accountBase:   15,
		accountWin:    10 * time.Second,
		tr:            tr,
	}
}

// serverStats is the target's answer to a stats command.
type serverStats struct {
	Runtime runtimeSample `json:"runtime"`
	Rules   int           `json:"rules"`
}

// serveTarget is the re-executed target process. It prints "ready
// <url>" once listening, answers each "stats" line on standard input
// with one JSON line, and shuts down at end of input.
func serveTarget() error {
	st := newLoopbackState()
	stk := buildStack(loopbackConfig(st, simclock.Real{}, depthFull, nil))
	backend := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("ok\n"))
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: stk.gate.Wrap(backend)}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	fmt.Printf("ready http://%s\n", ln.Addr())

	in := bufio.NewScanner(os.Stdin)
	enc := json.NewEncoder(os.Stdout)
	for in.Scan() {
		if in.Text() != "stats" {
			return fmt.Errorf("unknown command %q", in.Text())
		}
		s := serverStats{Runtime: sampleRuntime(), Rules: len(stk.deployer.Rules())}
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := srv.Close(); err != nil {
		return err
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return in.Err()
}

// target is a running loopback server process.
type target struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
	url string
}

// startTarget re-executes the benchmark binary as the server.
func startTarget() (*target, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, serveArg)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	outPipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	t := &target{cmd: cmd, in: in, out: bufio.NewReader(outPipe)}
	line, err := t.out.ReadString('\n')
	if err != nil {
		t.stop()
		return nil, fmt.Errorf("target did not start: %w", err)
	}
	if _, err := fmt.Sscanf(line, "ready %s", &t.url); err != nil {
		t.stop()
		return nil, fmt.Errorf("target said %q: %w", line, err)
	}
	return t, nil
}

// query sends one command and decodes the answer.
func (t *target) query(cmd string) (serverStats, error) {
	var s serverStats
	if _, err := io.WriteString(t.in, cmd+"\n"); err != nil {
		return s, err
	}
	line, err := t.out.ReadBytes('\n')
	if err != nil {
		return s, err
	}
	return s, json.Unmarshal(line, &s)
}

// stop ends the server process and waits for it to exit.
func (t *target) stop() error {
	_ = t.in.Close()
	return t.cmd.Wait()
}

// Response headers the client transport adds: when the request was
// handed to the transport and when the response headers came back.
const (
	hdrSent = "X-Bench-Sent"
	hdrRecv = "X-Bench-Recv"
)

// stampTransport is the client-side span: it stamps each response with
// the send and header-receipt instants so the Observe hook can split
// generator lateness, service time and full-response latency.
type stampTransport struct{ base http.RoundTripper }

func (s stampTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	sent := time.Now()
	resp, err := s.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	recv := time.Now()
	resp.Header[hdrSent] = []string{strconv.FormatInt(sent.UnixNano(), 10)}
	resp.Header[hdrRecv] = []string{strconv.FormatInt(recv.UnixNano(), 10)}
	return resp, nil
}

// newClient is the generator's HTTP client: at most loopbackWorkers
// connections, each reused.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: stampTransport{base: &http.Transport{
			MaxIdleConnsPerHost: loopbackWorkers,
			MaxConnsPerHost:     loopbackWorkers,
		}},
	}
}

// phase is one replay's per-request record.
type phase struct {
	mu        sync.Mutex
	abusive   []bool
	wallStart time.Time
	epoch     time.Time
	late      []int64 // send - intended
	service   []int64 // send - response headers
	full      []int64 // send - full response
	intended  []int64 // intended start - full response
	at        []int64 // arrival offset into the plan
	doneAt    []int64 // completion instant
	lastDone  time.Time
	busy      time.Duration // summed service time: worker occupancy
	tally     tally
	bad       int64
	completed int64
}

func (ph *phase) observe(o loadgen.Observation) {
	done := time.Now()
	ph.mu.Lock()
	defer ph.mu.Unlock()
	if done.After(ph.lastDone) {
		ph.lastDone = done
	}
	v := verdictIndex(o.Verdict)
	if o.Status == 0 || v == verdictUnknown || (v == 0 && o.Status != http.StatusOK) {
		ph.bad++
		return
	}
	ph.completed++
	kind := 0
	if ph.abusive[o.Arrival.Class] {
		kind = 1
	}
	ph.tally[kind][v]++
	sent, err1 := strconv.ParseInt(o.Header.Get(hdrSent), 10, 64)
	recv, err2 := strconv.ParseInt(o.Header.Get(hdrRecv), 10, 64)
	if err1 != nil || err2 != nil {
		ph.bad++
		return
	}
	intended := ph.wallStart.Add(o.Arrival.At.Sub(ph.epoch)).UnixNano()
	ph.late = append(ph.late, sent-intended)
	ph.service = append(ph.service, recv-sent)
	ph.full = append(ph.full, done.UnixNano()-sent)
	ph.intended = append(ph.intended, done.UnixNano()-intended)
	ph.at = append(ph.at, int64(o.Arrival.At.Sub(ph.epoch)))
	ph.doneAt = append(ph.doneAt, done.UnixNano())
	ph.busy += time.Duration(recv - sent)
}

// replay drives one plan against the target open-loop in wall time.
// started, when non-nil, runs as the schedule's clock starts.
func replay(url string, plan *loadgen.Plan, client *http.Client, started func(time.Time)) (*phase, error) {
	ph := &phase{epoch: plan.Scenario.Start}
	for _, c := range plan.Scenario.Classes {
		ph.abusive = append(ph.abusive, c.Kind.Abusive())
	}
	r, err := loadgen.NewRunner(loadgen.RunnerConfig{
		Plan:    plan,
		BaseURL: url,
		Workers: loopbackWorkers,
		Client:  client,
		Observe: ph.observe,
	})
	if err != nil {
		return nil, err
	}
	ph.wallStart = time.Now()
	if started != nil {
		started(ph.wallStart)
	}
	if _, err := r.Run(); err != nil {
		return nil, err
	}
	return ph, nil
}

// rung is one ladder step's verdict.
type rung struct {
	offered, achieved, ratio float64
	lateP50, lateP99         float64 // us
	serviceP99, p99          float64 // us
	tailMedian               float64 // us, final tenth of arrivals
	occupancy                float64
	pass                     bool
	cause                    string
}

// judge applies the ladder's pass rule to a replayed step: the
// intended-start p99 within p99Bound, no backlog still growing in the
// final tenth, and the offered rate achieved. A failure is blamed on
// the server when the workers spent most of the step waiting on it, and
// on the generator otherwise — a late generator is never a pass. It
// sorts the phase's late, service and intended slices in place.
func judge(ph *phase, offered float64, planned int, dur time.Duration) rung {
	elapsed := ph.lastDone.Sub(ph.wallStart)
	r := rung{offered: offered}
	r.achieved = float64(ph.completed) / max(dur, elapsed).Seconds()
	r.ratio = ratio(float64(ph.completed), float64(planned)) * dur.Seconds() / max(dur, elapsed).Seconds()
	tail := append([]int64(nil), ph.intended[len(ph.intended)*9/10:]...)
	r.tailMedian = durQuantile(tail, 0.5)
	r.lateP50 = durQuantile(ph.late, 0.5)
	r.lateP99 = durQuantile(ph.late, 0.99)
	r.serviceP99 = durQuantile(ph.service, 0.99)
	r.p99 = durQuantile(ph.intended, 0.99)
	r.occupancy = ph.busy.Seconds() / (loopbackWorkers * max(dur, elapsed).Seconds())
	bound := float64(p99Bound.Microseconds())
	switch {
	case ph.bad > 0:
		r.cause = "errors"
	case r.p99 > bound || r.tailMedian > bound/4 || r.ratio < 0.97:
		if r.occupancy >= 0.7 || r.serviceP99 > bound/2 {
			r.cause = "server"
		} else {
			r.cause = "generator"
		}
	default:
		r.pass = true
		r.cause = "pass"
	}
	return r
}

// loopbackPlans are every schedule one run replays, built in set-up.
type loopbackPlans struct {
	warmup, reference *loadgen.Plan
	rungs             []*loadgen.Plan
	refDur, rungDur   time.Duration
}

func buildLoopbackPlans(seed uint64, seconds float64) (*loopbackPlans, error) {
	lp := &loopbackPlans{
		refDur:  time.Duration(0.2 * seconds * float64(time.Second)),
		rungDur: max(300*time.Millisecond, time.Duration(seconds/20*float64(time.Second))),
	}
	var err error
	if lp.warmup, err = loadgen.BuildPlan(loopbackScenario(seed, referenceRate, warmupTime)); err != nil {
		return nil, err
	}
	if lp.reference, err = loadgen.BuildPlan(loopbackScenario(seed, referenceRate, lp.refDur)); err != nil {
		return nil, err
	}
	for _, rate := range ladder {
		pl, err := loadgen.BuildPlan(loopbackScenario(seed, rate, lp.rungDur))
		if err != nil {
			return nil, err
		}
		lp.rungs = append(lp.rungs, pl)
	}
	return lp, nil
}

// setUpLoopback builds the plans, boots a target and warms both sides.
func setUpLoopback(seed uint64, seconds float64, client *http.Client) (*loopbackPlans, *target, error) {
	lp, err := buildLoopbackPlans(seed, seconds)
	if err != nil {
		return nil, nil, err
	}
	t, err := startTarget()
	if err != nil {
		return nil, nil, err
	}
	if _, err := replay(t.url, lp.warmup, client, nil); err != nil {
		_ = t.stop()
		return nil, nil, err
	}
	return lp, t, nil
}

// measured is a replay bracketed by target counter reads, with reads
// at every segment boundary in between.
type measured struct {
	ph      *phase
	before  serverStats
	after   serverStats
	marks   []serverStats // at wallStart + i*seg, i = 1..segments-1
	seg     time.Duration
	planned int
}

// segments splits the replay into equal spans of the schedule and
// returns, per span, the full-response latencies of the arrivals due in
// it and the target's CPU and allocations per request completed in it.
func (m *measured) segments() (lat [][]int64, cpuUS, allocs []float64) {
	n := len(m.marks) + 1
	lat = make([][]int64, n)
	done := make([]int, n)
	start := m.ph.wallStart.UnixNano()
	slot := func(offset int64) int { return min(int(offset/int64(m.seg)), n-1) }
	for i, at := range m.ph.at {
		lat[slot(at)] = append(lat[slot(at)], m.ph.full[i])
		done[slot(m.ph.doneAt[i]-start)]++
	}
	reads := append(append([]serverStats{m.before}, m.marks...), m.after)
	for i := range n {
		d := reads[i+1].Runtime.since(reads[i].Runtime)
		cpuUS = append(cpuUS, ratio(d.CPU.Seconds()*1e6, float64(done[i])))
		allocs = append(allocs, ratio(float64(d.Allocs), float64(done[i])))
	}
	return lat, cpuUS, allocs
}

// perRequest is the median over segments of the target's CPU and heap
// allocations per request.
func (m *measured) perRequest() (cpuUS, allocs float64) {
	_, c, a := m.segments()
	return median(c), median(a)
}

// measure replays plan against t, reading the target's counters before,
// after and at segments-1 evenly spaced instants in between.
func measure(t *target, plan *loadgen.Plan, client *http.Client, segments int) (*measured, error) {
	before, err := t.query("stats")
	if err != nil {
		return nil, err
	}
	m := &measured{before: before, planned: len(plan.Arrivals), seg: plan.Duration() / time.Duration(segments)}
	polled := make(chan error, 1)
	ph, err := replay(t.url, plan, client, func(start time.Time) {
		go func() {
			for i := 1; i < segments; i++ {
				time.Sleep(time.Until(start.Add(time.Duration(i) * m.seg)))
				s, err := t.query("stats")
				if err != nil {
					polled <- err
					return
				}
				m.marks = append(m.marks, s)
			}
			polled <- nil
		}()
	})
	if err != nil {
		return nil, err
	}
	if err := <-polled; err != nil {
		return nil, err
	}
	if m.after, err = t.query("stats"); err != nil {
		return nil, err
	}
	m.ph = ph
	return m, nil
}

// account charges a replay's requests to the outcome; every scheduled
// request that did not complete with a known verdict failed.
func (o *outcome) account(m *measured) {
	o.attempted += int64(m.planned)
	o.failed += int64(m.planned) - m.ph.completed
}

// checkReference checks the reference replay's outputs: honest clients
// pass, the arms race is neither lost nor trivially won, and rules get
// deployed. A reference replay that misses the ladder rule — the shared
// host stalled, or the knee fell below the reference rate — makes the
// timings suspect but the outputs no less correct, so it is reported,
// not failed.
func checkReference(out *outcome, m *measured, dur time.Duration) rung {
	r := judge(m.ph, referenceRate, m.planned, dur)
	if !r.pass {
		fmt.Fprintf(os.Stderr, "perfbench: warning: reference rate %v req/s missed the ladder rule (%s): p99 %.0fus, achieved ratio %.3f\n",
			referenceRate, r.cause, r.p99, r.ratio)
	}
	t := &m.ph.tally
	if a := t.admitRate(0); a < 0.95 {
		out.fail("honest admit %.4f below 0.95", a)
	}
	if l := t.admitRate(1); l <= 0 || l >= 1 {
		out.fail("attack leak %.4f outside (0, 1)", l)
	}
	if m.after.Rules == 0 {
		out.fail("the rule deployer deployed no rule")
	}
	return r
}

// probeFront is the front-layer probe of the traced in-process run:
// one target process, the reference replay, then the ladder. It
// reports the front (net/http and httpgate.Wrap) and the generator's
// validity metrics; their wall-clock numbers move with the shared host
// too much to gate on, which is why they are per-layer metrics.
func probeFront(out *outcome, seed uint64, seconds float64) error {
	client := newClient()
	defer client.CloseIdleConnections()
	lp, t, err := setUpLoopback(seed, seconds, client)
	if err != nil {
		return err
	}
	defer t.stop()

	ref, err := measure(t, lp.reference, client, refSegments)
	if err != nil {
		return err
	}
	out.account(ref)
	refRung := checkReference(out, ref, lp.refDur)
	fmt.Printf("front probe: reference %.0f req/s, achieved ratio %.3f, late p50/p99 %.0f/%.0fus, intended-start p99 %.0fus, %d rules\n",
		float64(referenceRate), refRung.ratio, refRung.lateP50, refRung.lateP99, refRung.p99, ref.after.Rules)
	segLat, segCPU, _ := ref.segments()
	for i, l := range segLat {
		fmt.Printf("  segment %d: %d requests, latency p50/p90/p99 %.0f/%.0f/%.0fus, server CPU %.1fus/request\n",
			i, len(l), durQuantile(l, 0.5), durQuantile(l, 0.9), durQuantile(l, 0.99), segCPU[i])
	}

	// The ladder: a failed step is replayed once, so one transient
	// stall on the shared host cannot end the climb; stop after two
	// consecutive steps fail twice. The reference replay is its floor.
	fmt.Printf("%10s %10s %7s %9s %9s %11s %9s %6s  %s\n",
		"offered", "achieved", "ratio", "late_p50", "late_p99", "service_p99", "p99", "busy", "verdict")
	knee, fails := 0.0, 0
	if refRung.pass {
		knee = refRung.achieved
	}
	for i, pl := range lp.rungs {
		var r rung
		for try := 0; try < 2 && !r.pass; try++ {
			ph, err := replay(t.url, pl, client, nil)
			if err != nil {
				return err
			}
			m := &measured{ph: ph, planned: len(pl.Arrivals)}
			out.account(m)
			r = judge(ph, ladder[i], m.planned, lp.rungDur)
			fmt.Printf("%10.0f %10.0f %7.3f %9.0f %9.0f %11.0f %9.0f %6.2f  %s\n",
				r.offered, r.achieved, r.ratio, r.lateP50, r.lateP99, r.serviceP99, r.p99, r.occupancy, r.cause)
		}
		if r.pass {
			knee, fails = r.achieved, 0
		} else if fails++; fails == 2 {
			break
		}
	}
	if knee == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: warning: no ladder rate met the %v p99 bound\n", p99Bound)
	}

	// The gate's own allocations for the same requests, decided
	// in-process, separate the front's share of the server's.
	st := newLoopbackState()
	sample, err := recordRequests(lp.reference)
	if err != nil {
		return err
	}
	clock := simclock.NewManual(lp.reference.Scenario.Start)
	g := buildStack(loopbackConfig(st, clock, depthFull, nil)).gate
	_, rt := decideAll(out, g, clock, sample, lp.reference)
	cpuUS, allocs := ref.perRequest()

	out.set("front.service_p50_us", durQuantile(ref.ph.service, 0.5), "us")
	out.set("front.service_p99_us", durQuantile(ref.ph.service, 0.99), "us")
	out.set("front.allocs_per_req", allocs-float64(rt.Allocs)/float64(len(sample)), "count")
	out.set("front.cpu_us_per_req", cpuUS, "us")
	out.set("front.knee_ops_s", knee, "1/s")
	out.set("loadgen.late_p50_us", refRung.lateP50, "us")
	out.set("loadgen.late_p99_us", refRung.lateP99, "us")
	out.set("loadgen.intended_p99_us", refRung.p99, "us")
	out.set("loadgen.achieved_ratio", refRung.ratio, "ratio")
	return nil
}
