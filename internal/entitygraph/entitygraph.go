// Package entitygraph maintains an incremental entity-linkage graph: the
// structural-risk-amplification defence of the Grab "Combating Organized
// Platform Abuse" line of work, applied to the paper's functional-abuse
// setting. Nodes are typed entity keys — fingerprint hashes, source IPs,
// normalized passenger-name tokens, booking references, phone prefixes —
// and an edge records that two entities co-occurred within one session or
// booking. Connected components are tracked online with a union-find
// (path compression on the write path, union by size), and each
// component carries a summary: size, the set of distinct entity types it
// spans, and a weak-signal score accumulated from low-confidence
// detector verdicts.
//
// The point is amplification. A low-and-slow syndicate keeps every
// individual session under every volume threshold, so each session
// contributes only a weak signal — but the sessions share rotating
// subsets of infrastructure, so their entities collapse into one
// component whose accumulated score is flagrant. A component is flagged
// once it is big enough (MinSize), structurally diverse enough
// (MinTypes), and has accumulated enough weak evidence (FlagScore);
// flags are sticky. Honest clients keep private infrastructure, so their
// components stay small and below every gate.
//
// Memory is bounded: the graph holds at most MaxNodes nodes and MaxEdges
// co-occurrence edges. When a budget is exceeded the graph decays
// deterministically — the nodes least recently observed (ties broken by
// key) are evicted down to 3/4 of the budget and the union-find is
// rebuilt from the surviving edges, in sorted edge order, preserving
// per-node accrued score and sticky flags. Two graphs fed the same
// observation sequence evict identically, down to the last bit of every
// component score, which is what the loadgen determinism goldens rely on.
//
// Edges are keyed by the packed pair of their endpoints' node indices, so
// the write path hashes one integer per link; eviction, which compacts
// the indices, remaps the surviving edges through an old→new table.
// ObserveBytes is the allocation-free write entry point for callers that
// assemble keys in a reused byte buffer: a known entity is resolved
// without materialising a string.
//
// The graph is safe for concurrent use: observations take the write
// lock; lookups — including the gate hot path's FlaggedBytes — take the
// read lock and never mutate (the read path walks parent pointers
// without compressing).
package entitygraph

import (
	"cmp"
	"math/bits"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// Type classifies an entity key.
type Type uint8

// Entity types, one per key prefix.
const (
	TypeFingerprint Type = iota
	TypeIP
	TypeName
	TypeBooking
	TypePhone
	TypeOther
	numTypes
)

// String names the type.
func (t Type) String() string {
	switch t {
	case TypeFingerprint:
		return "fingerprint"
	case TypeIP:
		return "ip"
	case TypeName:
		return "name"
	case TypeBooking:
		return "booking"
	case TypePhone:
		return "phone"
	default:
		return "other"
	}
}

// Key constructors. Prefixes match the byte keys httpgate assembles on
// the hot path ("fp:", "ip:"), so a gate probe and a detector
// observation of the same entity land on the same node.

// FingerprintKey returns the node key for a fingerprint hash.
func FingerprintKey(hash uint64) string { return "fp:" + strconv.FormatUint(hash, 16) }

// IPKey returns the node key for a source address.
func IPKey(ip string) string { return "ip:" + ip }

// NameKey returns the node key for a normalized passenger-name token.
func NameKey(token string) string { return "nm:" + strings.ToLower(token) }

// BookingKey returns the node key for a booking reference.
func BookingKey(ref string) string { return "bk:" + ref }

// PhonePrefixLen is how many leading digits of a destination number form
// its prefix node — enough to identify a premium-rate block without
// storing full numbers.
const PhonePrefixLen = 6

// PhoneKey returns the node key for a phone number's prefix.
func PhoneKey(number string) string {
	trimmed := strings.TrimPrefix(number, "+")
	if len(trimmed) > PhonePrefixLen {
		trimmed = trimmed[:PhonePrefixLen]
	}
	return "ph:" + trimmed
}

// KeyType classifies a node key by its prefix.
func KeyType(key string) Type {
	if len(key) < 3 || key[2] != ':' {
		return TypeOther
	}
	switch key[:2] {
	case "fp":
		return TypeFingerprint
	case "ip":
		return TypeIP
	case "nm":
		return TypeName
	case "bk":
		return TypeBooking
	case "ph":
		return TypePhone
	default:
		return TypeOther
	}
}

// Config tunes a Graph. Zero fields select defaults.
type Config struct {
	// MaxNodes and MaxEdges are the hard memory budgets; exceeding either
	// triggers a deterministic decay eviction down to 3/4 of the budget.
	// Defaults: 65536 nodes, 4x that many edges.
	MaxNodes int
	MaxEdges int
	// MinSize is the smallest component (node count) that can be flagged.
	// Default 3: a lone fingerprint+IP pair — every honest client — can
	// never be flagged on score alone.
	MinSize int
	// MinTypes is the minimum number of distinct entity types a flaggable
	// component must span. Default 2.
	MinTypes int
	// FlagScore is the accumulated weak-signal score at which a component
	// that meets the structural gates is flagged. Default 3.
	FlagScore float64
}

func (c Config) withDefaults() Config {
	if c.MaxNodes <= 0 {
		c.MaxNodes = 1 << 16
	}
	if c.MaxEdges <= 0 {
		c.MaxEdges = 4 * c.MaxNodes
	}
	if c.MinSize <= 0 {
		c.MinSize = 3
	}
	if c.MinTypes <= 0 {
		c.MinTypes = 2
	}
	if c.FlagScore <= 0 {
		c.FlagScore = 3
	}
	return c
}

// node is one entity. parent/size implement the union-find; size,
// typeMask, score and flagged are authoritative only at a root (except
// during eviction, when flags are propagated to members so they survive
// the rebuild). own is the node's personally accrued weak score — the
// quantity that survives eviction and from which root scores are rebuilt.
type node struct {
	key    string
	typ    Type
	parent int32
	tick   uint64

	size     int32
	typeMask uint16
	score    float64
	own      float64
	flagged  bool
}

// edgeID identifies the co-occurrence edge between node indices a and b:
// the smaller index in the high half, so (a,b) and (b,a) are one edge and
// sorted IDs order edges by (lo, hi). Indices are compacted on eviction,
// which remaps every surviving ID.
func edgeID(a, b int32) uint64 {
	if b < a {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// edgeEnds unpacks an edgeID into its (lo, hi) node indices.
func edgeEnds(id uint64) (lo, hi int32) { return int32(id >> 32), int32(uint32(id)) }

// Graph is the incremental entity-linkage graph.
type Graph struct {
	cfg Config

	mu    sync.RWMutex
	idx   map[string]int32
	nodes []node
	edges map[uint64]uint64 // edgeID → last tick the co-occurrence was observed

	tick       uint64
	components int
	flagRoots  int
	evicted    uint64

	scratch []int32
}

// New returns an empty graph under cfg's budgets.
func New(cfg Config) *Graph {
	cfg = cfg.withDefaults()
	return &Graph{
		cfg:   cfg,
		idx:   make(map[string]int32),
		edges: make(map[uint64]uint64),
	}
}

// Config returns the graph's resolved configuration.
func (g *Graph) Config() Config { return g.cfg }

// Observe records one co-occurrence: every key becomes (or refreshes) a
// node, all keys are linked into one component, and weak — a
// low-confidence risk score in [0,1] from whatever detector produced
// this observation — is accrued onto the component. Empty keys are
// ignored. Observations are the graph's logical clock: eviction order is
// least-recently-observed first.
func (g *Graph) Observe(keys []string, weak float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	ids := g.scratch[:0]
	for _, k := range keys {
		if k == "" {
			continue
		}
		i, ok := g.idx[k]
		if !ok {
			i = g.add(k)
		}
		ids = append(ids, i)
	}
	g.observeLocked(ids, weak)
}

// ObserveBytes is Observe for keys held in byte slices, typically
// assembled in a caller's reused buffer. A known entity is resolved
// without allocating; only a new node copies its key into a string. The
// graph keeps no reference to keys or their backing arrays.
func (g *Graph) ObserveBytes(keys [][]byte, weak float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	ids := g.scratch[:0]
	for _, k := range keys {
		if len(k) == 0 {
			continue
		}
		i, ok := g.idx[string(k)]
		if !ok {
			i = g.add(string(k))
		}
		ids = append(ids, i)
	}
	g.observeLocked(ids, weak)
}

// observeLocked is the write core both Observe entry points share: it
// stamps, links and scores the resolved node indices ids, then decays
// if a budget is exceeded. Callers hold the write lock.
func (g *Graph) observeLocked(ids []int32, weak float64) {
	g.scratch = ids
	if len(ids) == 0 {
		return
	}
	g.tick++
	for _, id := range ids {
		g.nodes[id].tick = g.tick
	}
	anchor := ids[0]
	for _, id := range ids[1:] {
		g.link(anchor, id)
	}
	root := g.find(anchor)
	if weak > 0 {
		g.nodes[anchor].own += weak
		g.nodes[root].score += weak
	}
	g.refreshFlag(root)

	if len(g.nodes) > g.cfg.MaxNodes || len(g.edges) > g.cfg.MaxEdges {
		g.evict()
	}
}

// add inserts key, known to be unseen, as a fresh singleton component.
// Callers hold the write lock.
func (g *Graph) add(key string) int32 {
	i := int32(len(g.nodes))
	typ := KeyType(key)
	g.nodes = append(g.nodes, node{
		key: key, typ: typ, parent: i,
		size: 1, typeMask: 1 << typ,
	})
	g.idx[key] = i
	g.components++
	return i
}

// link records the co-occurrence edge between two nodes and unions their
// components. Callers hold the write lock.
func (g *Graph) link(a, b int32) {
	if a == b {
		return
	}
	g.edges[edgeID(a, b)] = g.tick
	g.union(a, b)
}

// find resolves i's root with path compression. Write path only.
func (g *Graph) find(i int32) int32 {
	root := i
	for g.nodes[root].parent != root {
		root = g.nodes[root].parent
	}
	for g.nodes[i].parent != root {
		g.nodes[i].parent, i = root, g.nodes[i].parent
	}
	return root
}

// findRead resolves i's root without mutating, for lock-shared readers.
func (g *Graph) findRead(i int32) int32 {
	for g.nodes[i].parent != i {
		i = g.nodes[i].parent
	}
	return i
}

// union merges the components of a and b by size, folding the smaller
// root's aggregates into the larger. Callers hold the write lock.
func (g *Graph) union(a, b int32) {
	ra, rb := g.find(a), g.find(b)
	if ra == rb {
		return
	}
	if g.nodes[ra].size < g.nodes[rb].size {
		ra, rb = rb, ra
	}
	na, nb := &g.nodes[ra], &g.nodes[rb]
	nb.parent = ra
	na.size += nb.size
	na.typeMask |= nb.typeMask
	na.score += nb.score
	if na.flagged && nb.flagged {
		g.flagRoots--
	}
	na.flagged = na.flagged || nb.flagged
	g.components--
}

// refreshFlag flags root's component once it crosses every gate; flags
// are sticky. Callers hold the write lock.
func (g *Graph) refreshFlag(root int32) {
	n := &g.nodes[root]
	if n.flagged {
		return
	}
	if int(n.size) >= g.cfg.MinSize &&
		bits.OnesCount16(n.typeMask) >= g.cfg.MinTypes &&
		n.score >= g.cfg.FlagScore {
		n.flagged = true
		g.flagRoots++
	}
}

// evict is the deterministic decay step: drop the least recently
// observed nodes (ties by key) down to 3/4 of the node budget, drop
// edges that lost an endpoint (then the oldest edges, ties by endpoint
// keys, if still over budget), and rebuild the union-find from the
// survivors. Per-node accrued score and sticky flags survive; a flagged
// component that the eviction splits leaves every surviving fragment
// flagged.
func (g *Graph) evict() {
	// Sticky flags must survive the rebuild at node granularity.
	for i := range g.nodes {
		if g.nodes[g.findRead(int32(i))].flagged {
			g.nodes[i].flagged = true
		}
	}

	// remap takes each old node index to its new one, or -1 if evicted.
	remap := make([]int32, len(g.nodes))
	keep := g.nodes
	if target := g.cfg.MaxNodes * 3 / 4; len(g.nodes) > target {
		order := make([]int32, len(g.nodes))
		for i := range order {
			order[i] = int32(i)
			remap[i] = -1
		}
		slices.SortFunc(order, func(a, b int32) int {
			na, nb := &g.nodes[a], &g.nodes[b]
			if c := cmp.Compare(na.tick, nb.tick); c != 0 {
				return c
			}
			return cmp.Compare(na.key, nb.key)
		})
		keep = make([]node, 0, target)
		for _, i := range order[len(order)-target:] {
			remap[i] = int32(len(keep))
			keep = append(keep, g.nodes[i])
		}
		g.evicted += uint64(len(g.nodes) - target)
	} else {
		for i := range remap {
			remap[i] = int32(i)
		}
	}

	idx := make(map[string]int32, len(keep))
	for i := range keep {
		n := &keep[i]
		n.parent = int32(i)
		n.size = 1
		n.typeMask = 1 << n.typ
		n.score = n.own
		idx[n.key] = int32(i)
	}
	g.nodes, g.idx = keep, idx
	g.components = len(keep)

	// Surviving edges: both endpoints kept, renumbered.
	ids := make([]uint64, 0, len(g.edges))
	edges := make(map[uint64]uint64, len(g.edges))
	for id, t := range g.edges {
		a, b := edgeEnds(id)
		if ra, rb := remap[a], remap[b]; ra >= 0 && rb >= 0 {
			nid := edgeID(ra, rb)
			edges[nid] = t
			ids = append(ids, nid)
		}
	}
	g.edges = edges
	if target := g.cfg.MaxEdges * 3 / 4; len(ids) > target {
		// Drop the oldest edges, ties by their endpoints' keys: the order
		// is stable across index compaction.
		ends := func(id uint64) (string, string) {
			a, b := edgeEnds(id)
			ka, kb := g.nodes[a].key, g.nodes[b].key
			if kb < ka {
				ka, kb = kb, ka
			}
			return ka, kb
		}
		slices.SortFunc(ids, func(x, y uint64) int {
			if c := cmp.Compare(edges[x], edges[y]); c != 0 {
				return c
			}
			xa, xb := ends(x)
			ya, yb := ends(y)
			if c := cmp.Compare(xa, ya); c != 0 {
				return c
			}
			return cmp.Compare(xb, yb)
		})
		for _, id := range ids[:len(ids)-target] {
			delete(edges, id)
		}
		ids = ids[len(ids)-target:]
	}

	// Unions are folded in sorted edge order: float score sums depend on
	// the grouping, so map-iteration order would make them differ in the
	// last bits from run to run.
	slices.Sort(ids)
	for _, id := range ids {
		g.union(edgeEnds(id))
	}
	// union counts a flagged-flagged merge as losing one flagged root, so
	// recount from the rebuilt forest.
	g.flagRoots = 0
	for i := range g.nodes {
		if g.nodes[i].parent == int32(i) && g.nodes[i].flagged {
			g.flagRoots++
		}
	}
	for i := range g.nodes {
		if g.nodes[i].parent == int32(i) {
			g.refreshFlag(int32(i))
		}
	}
}

// FlaggedBytes reports whether key belongs to a flagged component. It is
// the gate hot path: the byte key is looked up without materialising a
// string, the root walk does not mutate, and no allocation occurs.
func (g *Graph) FlaggedBytes(key []byte) bool {
	g.mu.RLock()
	i, ok := g.idx[string(key)]
	if !ok {
		g.mu.RUnlock()
		return false
	}
	f := g.nodes[g.findRead(i)].flagged
	g.mu.RUnlock()
	return f
}

// Flagged reports whether key belongs to a flagged component.
func (g *Graph) Flagged(key string) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	i, ok := g.idx[key]
	if !ok {
		return false
	}
	return g.nodes[g.findRead(i)].flagged
}

// Component summarises the component a key belongs to.
type Component struct {
	// Size is the node count; Types the distinct entity-type count.
	Size  int
	Types int
	// Score is the accumulated weak-signal score.
	Score   float64
	Flagged bool
}

// Lookup returns the component summary for key; ok is false for an
// unknown entity.
func (g *Graph) Lookup(key string) (Component, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	i, ok := g.idx[key]
	if !ok {
		return Component{}, false
	}
	n := &g.nodes[g.findRead(i)]
	return Component{
		Size:    int(n.size),
		Types:   bits.OnesCount16(n.typeMask),
		Score:   n.score,
		Flagged: n.flagged,
	}, true
}

// Stats is the graph's observability snapshot.
type Stats struct {
	Nodes, Edges int
	// Components is the current connected-component count;
	// FlaggedComponents how many of them are flagged.
	Components        int
	FlaggedComponents int
	// Observations counts Observe calls that recorded at least one key;
	// Evicted counts nodes dropped by decay evictions.
	Observations uint64
	Evicted      uint64
}

// Stats snapshots the graph.
func (g *Graph) Stats() Stats {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return Stats{
		Nodes:             len(g.nodes),
		Edges:             len(g.edges),
		Components:        g.components,
		FlaggedComponents: g.flagRoots,
		Observations:      g.tick,
		Evicted:           g.evicted,
	}
}
