package main

import (
	"fmt"
	"time"

	"funabuse/internal/core"
)

// The paper_suite workload: E1–E13 through the offline core simulator,
// serially on one goroutine at the run's seed. It bypasses httpgate
// entirely; suite_s is the wall time of one pass.

// experiment is one paper artefact and its shape check: the assertions
// the repository's own benchmarks make, so a run that regresses the
// reproduction counts as failed.
type experiment struct {
	id  string
	run func(seed uint64) (string, error)
}

var experiments = []experiment{
	{"fig1", func(s uint64) (string, error) {
		r, err := core.RunFig1(core.DefaultFig1Config(s))
		return check(err, r.AttackerFinalNiP == 4, "attacker final NiP %d, want 4", r.AttackerFinalNiP)
	}},
	{"table1", func(s uint64) (string, error) {
		r, err := core.RunTable1(core.DefaultTable1Config(s))
		return check(err, len(r.Top10) == 10, "Table I has %d rows, want 10", len(r.Top10))
	}},
	{"caseA", func(s uint64) (string, error) {
		r, err := core.RunCaseA(core.DefaultCaseAConfig(s))
		return check(err, r.Rotations > 0, "case A rotations %d, want > 0", r.Rotations)
	}},
	{"caseB", func(s uint64) (string, error) {
		r, err := core.RunCaseB(s)
		return check(err, r.AutoFlagged && r.ManualFlagged, "case B attackers flagged auto=%v manual=%v", r.AutoFlagged, r.ManualFlagged)
	}},
	{"caseC", func(s uint64) (string, error) {
		r, err := core.RunCaseC(s)
		return check(err, len(r.Variants) == 5, "case C has %d postures, want 5", len(r.Variants))
	}},
	{"detection", func(s uint64) (string, error) {
		r, err := core.RunDetectionComparison(s)
		return check(err, len(r.Scores) == 8, "detection has %d arms, want 8", len(r.Scores))
	}},
	{"honeypot", func(s uint64) (string, error) {
		r, err := core.RunHoneypot(s)
		return check(err, len(r.Arms) == 2, "honeypot has %d arms, want 2", len(r.Arms))
	}},
	{"economics", func(s uint64) (string, error) {
		r, err := core.RunEconomics(s)
		return check(err, len(r.CaptchaSweep) > 0, "economics captcha sweep is empty")
	}},
	{"biometric", func(s uint64) (string, error) {
		r, err := core.RunBiometric(s)
		return check(err, len(r.Scores) == 4, "biometric has %d classes, want 4", len(r.Scores))
	}},
	{"ablations", func(s uint64) (string, error) {
		r, err := core.RunAblations(s)
		return check(err, len(r.TTL) > 0 && len(r.Granularity) > 0 && len(r.Gaps) > 0, "ablations incomplete")
	}},
	{"carrier", func(s uint64) (string, error) {
		r, err := core.RunCarrier(s)
		return check(err, len(r.Arms) == 3, "carrier has %d arms, want 3", len(r.Arms))
	}},
	{"pricing", func(s uint64) (string, error) {
		r, err := core.RunPricing(s)
		return check(err, r.Samples > 0, "pricing took no samples")
	}},
	{"chaos", func(s uint64) (string, error) {
		r, err := core.RunChaos(s)
		return check(err, len(r.Arms) > 0, "chaos has no arms")
	}},
}

// check turns an experiment's error and shape assertion into a problem
// string (empty when the artefact has its paper shape).
func check(err error, ok bool, format string, args ...any) (string, error) {
	if err != nil || ok {
		return "", err
	}
	return fmt.Sprintf(format, args...), nil
}

// chaosQuality is the defence quality of the one offline experiment that
// replays honest and abusive requests through a gate: the healthy gate's
// leak and the honest admit rate while a layer flaps.
func chaosQuality(seed uint64) (honestAdmit, attackLeak float64, err error) {
	r, err := core.RunChaos(seed)
	if err != nil {
		return 0, 0, err
	}
	var abuse, caught, legit, falseDenials int
	for _, a := range r.Arms {
		abuse += a.AbuseEvents
		caught += a.AbuseDeniedHealthy
		legit += a.LegitEvents
		falseDenials += a.FalseDenials
	}
	return 1 - ratio(float64(falseDenials), float64(legit)), 1 - ratio(float64(caught), float64(abuse)), nil
}

// suiteWarmup is the experiment run during set-up to fault in the
// simulator's lazily built tables before any pass is timed, and
// setupRuns how often: setup_s is the median of those runs.
const (
	suiteWarmup = "pricing"
	setupRuns   = 7
)

// runSuite drives the paper-suite workload: set-up, one warm-up pass,
// then timed passes over E1–E13 while the next pass is expected to fit
// the budget. Every pass is checked; only the timed ones are measured.
func runSuite(p params) (*outcome, error) {
	out := &outcome{}
	if p.trace {
		out.spans = newTracer()
	}
	var setups []float64
	for range setupRuns {
		start := time.Now()
		for _, e := range experiments {
			if e.id == suiteWarmup {
				if _, err := e.run(p.seed); err != nil {
					return nil, err
				}
			}
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	budget := time.Duration(p.seconds * float64(time.Second))
	began := time.Now()
	perExp := make([][]float64, len(experiments))
	var walls []float64
	var rt delta
	var recording, last time.Duration
	for pass := 0; pass < 2 || time.Since(began)+last <= budget; pass++ {
		rt0 := sampleRuntime()
		passStart := time.Now()
		for i, e := range experiments {
			start := time.Now()
			problem, err := e.run(p.seed)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", e.id, err)
			}
			el := time.Since(start)
			out.attempted++
			if problem != "" {
				out.failed++
				out.fail("%s: %s", e.id, problem)
			}
			if pass == 0 {
				continue // warm-up: lazy tables, heap growth, caches
			}
			perExp[i] = append(perExp[i], el.Seconds())
			if out.spans != nil {
				rec := time.Now()
				out.spans.log("core.Run." + e.id).add(el)
				recording += time.Since(rec)
			}
		}
		last = time.Since(passStart)
		if pass > 0 {
			walls = append(walls, last.Seconds())
			rt.add(sampleRuntime().since(rt0))
		}
	}
	fmt.Printf("paper_suite: warm-up and %d timed passes of %d experiments, pass wall %v s\n", len(walls), len(experiments), walls)

	passes := float64(len(walls))
	if p.trace {
		for i, e := range experiments {
			out.set("core."+e.id+"_s", mean(perExp[i]), "s")
		}
		out.set("runtime.gc_cpu_share", ratio(rt.GCCPU, rt.TotalCPU), "ratio")
		out.set("runtime.gc_cycles", float64(rt.GCCycles)/passes, "count")
		// The suite's only spans are the per-experiment timers the
		// untraced run takes as well; its overhead is their recording.
		out.set("trace.overhead_share", recording.Seconds()/sum(walls), "ratio")
		return out, nil
	}
	honest, leak, err := chaosQuality(p.seed)
	if err != nil {
		return nil, err
	}
	// An experiment is one operation: its mean wall time over the timed
	// passes is its latency.
	var expTimes []float64
	for i := range experiments {
		expTimes = append(expTimes, mean(perExp[i]))
	}
	ops := passes * float64(len(experiments))
	suite := mean(walls)
	out.set("throughput_ops_s", float64(len(experiments))/suite, "1/s")
	out.set("latency_p50_us", quantile(expTimes, 0.5)*1e6, "us")
	out.set("latency_p99_us", quantile(expTimes, 0.99)*1e6, "us")
	out.set("cpu_us_per_op", rt.CPU.Seconds()*1e6/ops, "us")
	out.set("allocs_per_op", float64(rt.Allocs)/ops, "count")
	out.set("honest_admit", honest, "ratio")
	out.set("attack_leak", leak, "ratio")
	out.set("suite_s", suite, "s")
	out.set("heap_mb", float64(liveHeap())/(1<<20), "MB")
	out.set("setup_s", median(setups), "s")
	return out, nil
}
