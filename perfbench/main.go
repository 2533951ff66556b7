// Command perfbench is the repository benchmark: one program that drives
// the defended booking stack under a named workload, checks its outputs,
// and prints every metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 the
// same workload runs again with in-memory spans around each layer's
// public seam and the metrics are the per-layer set. See README.md for
// what each workload exercises and how to read a trace.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload run hands back to main: counts, the
// metrics of the requested mode, and the correctness findings.
type outcome struct {
	attempted int64
	failed    int64
	problems  []string
	metrics   map[string]metric
	// spans, non-nil on traced runs, is written out as the trace file.
	spans *tracer
}

// set records a metric.
func (o *outcome) set(name string, v float64, unit string) {
	if o.metrics == nil {
		o.metrics = make(map[string]metric)
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

// fail records a correctness problem.
func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// params are the command-line inputs every workload receives.
type params struct {
	seed    uint64
	seconds float64
	trace   bool
}

// endToEnd lists the metrics every untraced run reports, with units.
var endToEnd = []metricName{
	{"throughput_ops_s", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_p99_us", "us"},
	{"cpu_us_per_op", "us"},
	{"allocs_per_op", "count"},
	{"honest_admit", "ratio"},
	{"attack_leak", "ratio"},
	{"suite_s", "s"},
	{"heap_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer lists the metrics every traced run reports. A workload that
// never calls a layer reports that layer's metrics as 0.
var perLayer = func() []metricName {
	ms := []metricName{
		{"front.service_p50_us", "us"},
		{"front.service_p99_us", "us"},
		{"front.allocs_per_req", "count"},
		{"front.cpu_us_per_req", "us"},
		{"front.knee_ops_s", "1/s"},
		{"httpgate.decide_self_ns", "ns"},
	}
	for d := depthBlocklist; d <= depthTelemetry; d++ {
		ms = append(ms, metricName{depthLayer[d], "ns"})
	}
	for _, l := range layerVerdicts {
		ms = append(ms,
			metricName{"httpgate." + l.name + ".denials", "count"},
			metricName{"httpgate." + l.name + ".catch_ratio", "ratio"})
	}
	ms = append(ms,
		metricName{"entitygraph.observe_ns", "ns"},
		metricName{"entitygraph.lookup_ns", "ns"},
		metricName{"entitygraph.nodes", "count"},
		metricName{"entitygraph.flagged_components", "count"},
		metricName{"entitygraph.evicted", "count"},
		metricName{"account.tier_ns", "ns"},
		metricName{"account.feed_ns", "ns"},
		metricName{"account.accounts", "count"},
		metricName{"account.evicted", "count"},
		metricName{"loadgen.ruledeployer_ns", "ns"},
		metricName{"mitigate.rules", "count"},
		metricName{"mitigate.decoy_hits", "count"},
		metricName{"loadgen.late_p50_us", "us"},
		metricName{"loadgen.late_p99_us", "us"},
		metricName{"loadgen.intended_p99_us", "us"},
		metricName{"loadgen.achieved_ratio", "ratio"},
		metricName{"runtime.gc_cpu_share", "ratio"},
		metricName{"runtime.gc_cycles", "count"},
	)
	for _, e := range experiments {
		ms = append(ms, metricName{"core." + e.id + "_s", "s"})
	}
	return append(ms, metricName{"trace.overhead_share", "ratio"})
}()

// metricName is a reported metric and its unit.
type metricName struct{ name, unit string }

// complete checks the run's metrics against the mode's list — a name
// outside it or with another unit is a bug — and reports the listed
// metrics the workload does not exercise as 0.
func (o *outcome) complete(list []metricName) error {
	want := make(map[string]string, len(list))
	for _, m := range list {
		want[m.name] = m.unit
	}
	for name, m := range o.metrics {
		if unit, ok := want[name]; !ok || unit != m.Unit {
			return fmt.Errorf("metric %q (%s) is not in the reported set", name, m.Unit)
		}
	}
	for _, m := range list {
		if _, ok := o.metrics[m.name]; !ok {
			o.set(m.name, 0, m.unit)
		}
	}
	return nil
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(params) (*outcome, error){
	"inproc_fullstack": runInproc,
	"paper_suite":      runSuite,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == serveArg {
		if err := serveTarget(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench serve:", err)
			os.Exit(1)
		}
		return
	}
	workload := flag.String("workload", "", "workload name: inproc_fullstack, paper_suite")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed builds the same inputs")
	seconds := flag.Float64("seconds", 50, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer variant")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %v)\n", *workload, names)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	start := time.Now()
	out, err := run(params{seed: *seed, seconds: *seconds, trace: *trace == 1})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	list := endToEnd
	if *trace == 1 {
		list = perLayer
	}
	if err := out.complete(list); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	if out.spans != nil {
		if path, err := out.spans.write(*workload, *seed, out.metrics); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: trace file:", err)
		} else {
			fmt.Printf("trace written to %s\n", path)
		}
	}
	fmt.Printf("workload %s seed %d trace %d ran %.1fs\n", *workload, *seed, *trace, time.Since(start).Seconds())
	line, err := json.Marshal(report{
		Correct:   len(out.problems) == 0 && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
