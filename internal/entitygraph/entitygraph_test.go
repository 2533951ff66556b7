package entitygraph

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestKeyHelpers(t *testing.T) {
	cases := []struct {
		key  string
		want Type
	}{
		{FingerprintKey(0xdeadbeef), TypeFingerprint},
		{IPKey("203.0.113.9"), TypeIP},
		{NameKey("GARCIA"), TypeName},
		{BookingKey("PNR00042"), TypeBooking},
		{PhoneKey("+8821612345678"), TypePhone},
		{"weird", TypeOther},
		{"", TypeOther},
	}
	for _, c := range cases {
		if got := KeyType(c.key); got != c.want {
			t.Errorf("KeyType(%q) = %v, want %v", c.key, got, c.want)
		}
	}
	if k := NameKey("GARCIA"); k != "nm:garcia" {
		t.Errorf("NameKey not normalized: %q", k)
	}
	if k := PhoneKey("+8821612345678"); k != "ph:882161" {
		t.Errorf("PhoneKey = %q, want prefix-truncated", k)
	}
}

func TestObserveBuildsComponents(t *testing.T) {
	g := New(Config{})
	g.Observe([]string{"fp:a", "ip:1"}, 0)
	g.Observe([]string{"fp:b", "ip:2"}, 0)
	st := g.Stats()
	if st.Nodes != 4 || st.Components != 2 {
		t.Fatalf("want 4 nodes in 2 components, got %+v", st)
	}
	// Shared IP collapses the two components.
	g.Observe([]string{"fp:a", "ip:2"}, 0)
	if st = g.Stats(); st.Components != 1 {
		t.Fatalf("shared entity should merge components, got %+v", st)
	}
	c, ok := g.Lookup("fp:b")
	if !ok || c.Size != 4 || c.Types != 2 {
		t.Fatalf("merged component = %+v ok=%v, want size 4 types 2", c, ok)
	}
}

func TestFlaggingRequiresSizeTypesAndScore(t *testing.T) {
	g := New(Config{MinSize: 3, MinTypes: 2, FlagScore: 1.0})

	// An honest client: fp+ip pair, plenty of (hypothetical) score but
	// size 2 < MinSize — never flagged.
	for range 100 {
		g.Observe([]string{"fp:honest", "ip:home"}, 0.5)
	}
	if g.Flagged("fp:honest") {
		t.Fatal("size-2 component must not flag regardless of score")
	}

	// Structure without evidence: big and diverse, zero score.
	g.Observe([]string{"fp:s1", "ip:x1", "ip:x2", "bk:r1"}, 0)
	if g.Flagged("fp:s1") {
		t.Fatal("zero-score component must not flag")
	}
	// Weak evidence accumulates across observations of the same shared
	// infrastructure until the component crosses the threshold.
	g.Observe([]string{"fp:s1", "ip:x1"}, 0.5)
	if g.Flagged("fp:s1") {
		t.Fatal("score 0.5 < FlagScore 1.0 should not flag yet")
	}
	g.Observe([]string{"fp:s2", "ip:x2"}, 0.6)
	if !g.Flagged("fp:s1") || !g.Flagged("fp:s2") || !g.Flagged("bk:r1") {
		t.Fatal("accumulated weak score across the component should flag every member")
	}
	if !g.FlaggedBytes([]byte("ip:x1")) {
		t.Fatal("FlaggedBytes disagrees with Flagged")
	}
	if g.FlaggedBytes([]byte("ip:unknown")) {
		t.Fatal("unknown key must not be flagged")
	}
	if st := g.Stats(); st.FlaggedComponents != 1 {
		t.Fatalf("want 1 flagged component, got %+v", st)
	}
}

func TestFlagStickyAcrossMerge(t *testing.T) {
	g := New(Config{MinSize: 3, MinTypes: 2, FlagScore: 1.0})
	g.Observe([]string{"fp:a", "ip:1", "bk:1"}, 2.0) // flags immediately
	if !g.Flagged("fp:a") {
		t.Fatal("setup: component should be flagged")
	}
	g.Observe([]string{"fp:clean", "ip:clean"}, 0)
	g.Observe([]string{"fp:clean", "ip:1"}, 0) // merge into flagged component
	if !g.Flagged("fp:clean") {
		t.Fatal("merging into a flagged component should flag the newcomer")
	}
	if st := g.Stats(); st.FlaggedComponents != 1 {
		t.Fatalf("want 1 flagged component after merge, got %+v", st)
	}
}

func TestEvictionBoundsNodesDeterministically(t *testing.T) {
	build := func() *Graph {
		g := New(Config{MaxNodes: 64, MaxEdges: 1024})
		for i := range 200 {
			g.Observe([]string{
				fmt.Sprintf("fp:%03d", i),
				fmt.Sprintf("ip:%03d", i),
			}, 0.1)
		}
		return g
	}
	g1, g2 := build(), build()
	st1, st2 := g1.Stats(), g2.Stats()
	if st1.Nodes > 64 {
		t.Fatalf("node budget exceeded: %+v", st1)
	}
	if st1.Evicted == 0 {
		t.Fatal("expected evictions")
	}
	if st1 != st2 {
		t.Fatalf("eviction nondeterministic: %+v vs %+v", st1, st2)
	}
	// Most recently observed entities survive; the oldest are gone.
	if _, ok := g1.Lookup("fp:199"); !ok {
		t.Fatal("most recent node evicted")
	}
	if _, ok := g1.Lookup("fp:000"); ok {
		t.Fatal("oldest node survived a full-budget eviction")
	}
	// The two graphs agree on exactly which keys survived.
	for i := range 200 {
		k := fmt.Sprintf("fp:%03d", i)
		_, ok1 := g1.Lookup(k)
		_, ok2 := g2.Lookup(k)
		if ok1 != ok2 {
			t.Fatalf("graphs disagree on survivor %s: %v vs %v", k, ok1, ok2)
		}
	}
}

func TestEvictionPreservesFlagsAndScore(t *testing.T) {
	g := New(Config{MaxNodes: 16, MaxEdges: 1024, MinSize: 3, MinTypes: 2, FlagScore: 1.0})
	// Flag a syndicate component, then churn enough one-shot entities to
	// force evictions. The syndicate keys are re-observed throughout, so
	// they stay recent and must stay flagged.
	for i := range 100 {
		g.Observe([]string{"fp:syn", "ip:syn", "bk:syn"}, 0.5)
		g.Observe([]string{
			fmt.Sprintf("fp:churn%04d", i),
			fmt.Sprintf("ip:churn%04d", i),
		}, 0)
	}
	if st := g.Stats(); st.Nodes > 16 || st.Evicted == 0 {
		t.Fatalf("eviction did not bound nodes: %+v", st)
	}
	if !g.Flagged("fp:syn") || !g.Flagged("bk:syn") {
		t.Fatal("sticky flag lost across eviction rebuilds")
	}
	c, ok := g.Lookup("fp:syn")
	if !ok || !c.Flagged || c.Size != 3 {
		t.Fatalf("syndicate component corrupted by eviction: %+v ok=%v", c, ok)
	}
}

func TestEvictionRecountsFlaggedComponents(t *testing.T) {
	g := New(Config{MaxNodes: 16, MaxEdges: 1024, MinSize: 3, MinTypes: 2, FlagScore: 1.0})
	// Flag one component, then stop touching it so decay evicts it whole.
	for range 3 {
		g.Observe([]string{"fp:old", "ip:old", "bk:old"}, 0.5)
	}
	if st := g.Stats(); st.FlaggedComponents != 1 {
		t.Fatalf("setup: %+v", st)
	}
	// A second flagged component stays hot through a churn of one-shot
	// pairs that forces repeated budget evictions.
	for i := range 100 {
		g.Observe([]string{"fp:new", "ip:new", "bk:new"}, 0.5)
		g.Observe([]string{
			fmt.Sprintf("fp:churn%04d", i),
			fmt.Sprintf("ip:churn%04d", i),
		}, 0)
	}
	if _, ok := g.Lookup("fp:old"); ok {
		t.Fatal("cold flagged component survived 100 churn evictions")
	}
	if !g.Flagged("fp:new") {
		t.Fatal("hot flagged component lost its flag")
	}
	// The flagged-component count must be recounted from the rebuilt
	// forest, not carried over: the evicted component no longer counts.
	if st := g.Stats(); st.FlaggedComponents != 1 {
		t.Fatalf("flag count stale after eviction: %+v", st)
	}
}

// TestEvictionScoreBitIdentical is the regression for eviction unioning
// surviving edges in map-iteration order: the hub's component score is a
// float sum whose grouping followed that order, so identical runs used to
// disagree in the last bits. Every run must now give one bit pattern.
func TestEvictionScoreBitIdentical(t *testing.T) {
	seen := map[uint64]bool{}
	for range 200 {
		g := New(Config{MaxNodes: 40})
		for i := range 60 {
			g.Observe([]string{fmt.Sprintf("ip:%d", i), "fp:1"}, float64(i%9+1)/10)
		}
		if g.Stats().Evicted == 0 {
			t.Fatal("setup: no eviction")
		}
		c, _ := g.Lookup("fp:1")
		seen[math.Float64bits(c.Score)] = true
	}
	if len(seen) != 1 {
		t.Fatalf("200 identical runs gave %d distinct scores", len(seen))
	}
}

// TestObserveBytesMatchesObserve feeds one random observation sequence
// through Observe and through ObserveBytes (keys in a buffer reused and
// overwritten every call) under budgets small enough to hit node
// eviction and edge-only eviction. The graphs must agree on Stats after
// every step and bitwise on every key's component.
func TestObserveBytesMatchesObserve(t *testing.T) {
	for seed := range int64(8) {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{MaxNodes: 48, MaxEdges: 24, MinSize: 3, MinTypes: 2, FlagScore: 2}
		gs, gb := New(cfg), New(cfg)
		prefixes := []string{"fp:", "ip:", "bk:", "nm:", "ph:"}
		all := map[string]bool{}
		var nodeEvictions, edgeEvictions int
		var buf []byte
		for range 600 {
			n := 1 + rng.Intn(4)
			strs := make([]string, n)
			ends := make([]int, n)
			buf = buf[:0]
			for j := range strs {
				if rng.Intn(8) == 0 {
					strs[j] = "" // empty keys are skipped by both
				} else {
					// A small hot pool braids edges; rare cold keys
					// push the node count over its budget.
					id := rng.Intn(6)
					if rng.Intn(12) == 0 {
						id = rng.Intn(200)
					}
					strs[j] = fmt.Sprintf("%s%d", prefixes[rng.Intn(len(prefixes))], id)
				}
				buf = append(buf, strs[j]...)
				ends[j] = len(buf)
				all[strs[j]] = true
			}
			bs := make([][]byte, n)
			for j := range bs {
				start := 0
				if j > 0 {
					start = ends[j-1]
				}
				bs[j] = buf[start:ends[j]]
			}
			weak := float64(rng.Intn(10)) / 10
			before := gs.Stats()
			gs.Observe(strs, weak)
			gb.ObserveBytes(bs, weak)
			clear(buf)
			ss, sb := gs.Stats(), gb.Stats()
			if ss != sb {
				t.Fatalf("seed %d: Stats %+v (Observe) vs %+v (ObserveBytes)", seed, ss, sb)
			}
			switch {
			case ss.Evicted > before.Evicted:
				nodeEvictions++
			case ss.Edges < before.Edges:
				edgeEvictions++
			}
		}
		if nodeEvictions == 0 || edgeEvictions == 0 {
			t.Fatalf("seed %d: eviction paths not both hit (node %d, edge-only %d)", seed, nodeEvictions, edgeEvictions)
		}
		for k := range all {
			cs, oks := gs.Lookup(k)
			cb, okb := gb.Lookup(k)
			if oks != okb || cs.Size != cb.Size || cs.Types != cb.Types || cs.Flagged != cb.Flagged ||
				math.Float64bits(cs.Score) != math.Float64bits(cb.Score) {
				t.Fatalf("seed %d: %q: %+v/%v (Observe) vs %+v/%v (ObserveBytes)", seed, k, cs, oks, cb, okb)
			}
		}
	}
}

// TestObserveBytesKnownEntitiesZeroAllocs pins the steady-state write
// path: once every key is a known node, ObserveBytes allocates nothing.
func TestObserveBytesKnownEntitiesZeroAllocs(t *testing.T) {
	g := New(Config{})
	keys := [][]byte{[]byte("fp:1a2b"), []byte("ip:192.0.2.1"), []byte("bk:PNR00001")}
	g.ObserveBytes(keys, 0.1)
	if avg := testing.AllocsPerRun(256, func() { g.ObserveBytes(keys, 0.1) }); avg != 0 {
		t.Fatalf("ObserveBytes on known entities allocates %v/op, want 0", avg)
	}
}

func TestEdgeBudget(t *testing.T) {
	g := New(Config{MaxNodes: 1 << 10, MaxEdges: 32})
	for i := range 100 {
		g.Observe([]string{"fp:hub", fmt.Sprintf("ip:%03d", i)}, 0)
	}
	if st := g.Stats(); st.Edges > 32 {
		t.Fatalf("edge budget exceeded: %+v", st)
	}
}

func TestObserveSkipsEmptyKeys(t *testing.T) {
	g := New(Config{})
	g.Observe([]string{"", "fp:a", "", "ip:1"}, 0.1)
	g.Observe(nil, 1.0)
	g.Observe([]string{""}, 1.0)
	st := g.Stats()
	if st.Nodes != 2 || st.Observations != 1 {
		t.Fatalf("empty keys mishandled: %+v", st)
	}
	if c, _ := g.Lookup("fp:a"); c.Size != 2 {
		t.Fatalf("empty keys broke linking: %+v", c)
	}
}

func TestSelfLinkObservation(t *testing.T) {
	g := New(Config{})
	g.Observe([]string{"fp:a", "fp:a"}, 0.1)
	st := g.Stats()
	if st.Nodes != 1 || st.Edges != 0 || st.Components != 1 {
		t.Fatalf("self-co-occurrence should be a lone node, got %+v", st)
	}
}

func TestConcurrentLookupsDuringObserve(t *testing.T) {
	g := New(Config{MaxNodes: 128})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := []byte("fp:017")
			for {
				select {
				case <-stop:
					return
				default:
					g.FlaggedBytes(key)
					g.Stats()
				}
			}
		}()
	}
	for i := range 2000 {
		g.Observe([]string{
			fmt.Sprintf("fp:%03d", i%40),
			fmt.Sprintf("ip:%03d", i%23),
		}, 0.05)
	}
	close(stop)
	wg.Wait()
}

func BenchmarkFlaggedBytes(b *testing.B) {
	g := New(Config{})
	for i := range 1000 {
		g.Observe([]string{
			fmt.Sprintf("fp:%04d", i),
			fmt.Sprintf("ip:%04d", i%97),
		}, 0.1)
	}
	key := []byte("fp:0500")
	b.ReportAllocs()
	for b.Loop() {
		g.FlaggedBytes(key)
	}
}

// BenchmarkEntityGraphObserve measures one steady-state observation — a
// fingerprint, an address and a booking reference, all known nodes —
// through the string and the byte entry points.
func BenchmarkEntityGraphObserve(b *testing.B) {
	g := New(Config{})
	for i := range 1000 {
		g.Observe([]string{
			fmt.Sprintf("fp:%04d", i),
			fmt.Sprintf("ip:%04d", i%97),
			fmt.Sprintf("bk:%04d", i%31),
		}, 0.01)
	}
	strs := []string{"fp:0500", "ip:0015", "bk:0004"}
	bs := [][]byte{[]byte(strs[0]), []byte(strs[1]), []byte(strs[2])}
	b.Run("string", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			g.Observe(strs, 0.01)
		}
	})
	b.Run("bytes", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			g.ObserveBytes(bs, 0.01)
		}
	})
}
