package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"

	"funabuse/internal/loadgen"
)

// TestPlanHashFollowsSeed: a seed always builds the same schedule and
// another seed builds a different one, for both generated workloads.
func TestPlanHashFollowsSeed(t *testing.T) {
	scenarios := map[string]func(uint64) loadgen.Scenario{
		"inproc_fullstack": inprocScenario,
		"front probe":      func(s uint64) loadgen.Scenario { return loopbackScenario(s, referenceRate, time.Second) },
	}
	for name, sc := range scenarios {
		hash := func(seed uint64) uint64 {
			p, err := loadgen.BuildPlan(sc(seed))
			if err != nil {
				t.Fatal(err)
			}
			return p.Hash()
		}
		if a, b := hash(1), hash(1); a != b {
			t.Errorf("%s: seed 1 built plans %016x and %016x", name, a, b)
		}
		if a, b := hash(1), hash(2); a == b {
			t.Errorf("%s: seeds 1 and 2 built the same plan %016x", name, a)
		}
	}
}

// TestInprocVerdictsRepeat: two replays of one seed agree on every
// verdict and keep honest members admitted while attackers are caught.
func TestInprocVerdictsRepeat(t *testing.T) {
	a, err := runPass(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runPass(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := &outcome{}
	comparePasses(out, a, b, "second pass")
	if len(out.problems) > 0 {
		t.Fatal(out.problems)
	}
	if a.target.bad != 0 {
		t.Fatalf("%d unknown or degraded verdicts", a.target.bad)
	}
	if r := a.target.tally.admitRate(0); r < 0.95 {
		t.Errorf("honest admit %.4f", r)
	}
	if r := a.target.tally.admitRate(1); r <= 0 || r >= 0.5 {
		t.Errorf("attack leak %.4f", r)
	}
}

// TestJudge pins the ladder rule: a kept schedule passes, a backlog the
// workers spent waiting on is the server's, and lateness with idle
// workers is the generator's.
func TestJudge(t *testing.T) {
	start := time.Unix(0, 0)
	mk := func(n int, late, service time.Duration) *phase {
		ph := &phase{wallStart: start, completed: int64(n)}
		for range n {
			ph.late = append(ph.late, int64(late))
			ph.service = append(ph.service, int64(service))
			ph.intended = append(ph.intended, int64(late+service))
			ph.busy += service
		}
		ph.lastDone = start.Add(time.Second)
		return ph
	}
	if r := judge(mk(1000, time.Millisecond, 100*time.Microsecond), 1000, 1000, time.Second); !r.pass {
		t.Errorf("kept schedule judged %q", r.cause)
	}
	if r := judge(mk(1000, 80*time.Millisecond, 1500*time.Microsecond), 1000, 1000, time.Second); r.pass || r.cause != "server" {
		t.Errorf("busy backlog judged %q", r.cause)
	}
	if r := judge(mk(1000, 80*time.Millisecond, 100*time.Microsecond), 1000, 1000, time.Second); r.pass || r.cause != "generator" {
		t.Errorf("idle lateness judged %q", r.cause)
	}
}

// TestBenchmarkFile: BENCHMARK.json names exactly the workloads and
// metrics the program reports, with the same units.
func TestBenchmarkFile(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	}
	var b struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not implemented", w.Name)
		}
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v, the program has %d workloads", names, len(workloads))
	}
	same := func(kind string, file []entry, prog []metricName) {
		var a, b []string
		for _, e := range file {
			a = append(a, e.Name+" "+e.Unit)
		}
		for _, m := range prog {
			b = append(b, m.name+" "+m.unit)
		}
		slices.Sort(a)
		slices.Sort(b)
		if !slices.Equal(a, b) {
			t.Errorf("%s metrics differ:\nfile    %v\nprogram %v", kind, a, b)
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	var setup float64
	for _, e := range b.EndToEnd {
		if e.Name == "setup_s" {
			setup = e.Bound
		}
	}
	for _, e := range b.EndToEnd {
		if e.Bound <= 0 || e.Bound > 0.25 || e.Bound > setup {
			t.Errorf("%s bound %v: want (0, 0.25] and at most setup_s's %v", e.Name, e.Bound, setup)
		}
	}
}

// TestLadderSpansReference: the reference rate sits below the ladder,
// which climbs strictly.
func TestLadderSpansReference(t *testing.T) {
	if referenceRate >= ladder[0] {
		t.Errorf("reference %v not below the ladder's first step %v", referenceRate, ladder[0])
	}
	for i := 1; i < len(ladder); i++ {
		if ladder[i] <= ladder[i-1] {
			t.Errorf("ladder step %d (%v) does not climb", i, ladder[i])
		}
	}
}
