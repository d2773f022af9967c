// Package topology models the wide-area network graph of the case study:
// hosts and routers (with the IPs and reverse-DNS names that appear in
// the paper's traceroutes), unidirectional links realized as fluid links,
// per-domain ownership, and route computation.
//
// Route selection is pluggable: the default is delay-weighted Dijkstra,
// package bgppol layers valley-free inter-domain policy on top, and
// explicit per-pair overrides pin the handful of paths the paper observed
// directly (e.g. UBC's PacificWave hand-off to Google).
package topology

import (
	"fmt"
	"math"
	"sort"

	"detournet/internal/fluid"
	"detournet/internal/geo"
)

// NodeKind distinguishes end hosts from routers.
type NodeKind int

const (
	// Host is a traffic source or sink (client machines, DTNs, servers).
	Host NodeKind = iota
	// Router only forwards.
	Router
)

func (k NodeKind) String() string {
	if k == Host {
		return "host"
	}
	return "router"
}

// Node is a host or router in the topology.
type Node struct {
	Name     string // unique key, e.g. "ubc-pl" or "vncv1rtr2"
	Hostname string // reverse-DNS name shown by traceroute
	IP       string // primary interface address
	Kind     NodeKind
	Domain   string // owning network domain, e.g. "CANARIE"
	Site     geo.Site

	// RespondsICMP controls traceroute visibility; false renders the
	// paper's "* * *" hops (Fig 6 hops 2 and 10).
	RespondsICMP bool
}

// Edge is one direction of an adjacency, carrying the fluid link that
// transfers bytes over it.
type Edge struct {
	From, To *Node
	Link     *fluid.Link
	down     bool
	to       int // To's node index, for dijkstra
}

// Down reports whether the edge is administratively down.
func (e *Edge) Down() bool { return e.down }

// LinkSpec describes one direction of a link.
type LinkSpec struct {
	// CapacityBps is the capacity in bytes per second (not bits).
	CapacityBps float64
	// DelaySec is one-way propagation delay in seconds. If zero it is
	// derived from the endpoints' site coordinates.
	DelaySec float64
	// PerFlowCapBps, when positive, caps each flow crossing the link
	// individually (a stateful-firewall model; see fluid.Link.FlowCap).
	PerFlowCapBps float64
}

// Graph is the network topology bound to a fluid network.
type Graph struct {
	fl    *fluid.Network
	index map[string]int // node name -> index into nodes
	nodes []*Node        // in insertion order, for determinism
	out   [][]*Edge      // adjacency by node index, sorted by target name

	overrides    map[pair][]string // explicit routed node paths
	overridesOff map[pair]bool     // administratively suspended pins
	overrideVeto func(hops []*Node) bool

	router PathFinder

	// OnFlowKilled, when set, observes every in-flight fluid flow torn
	// down by SetLinkState taking an edge down, KillEdgeFlows, or
	// KillDomainBoundaryFlows. It runs inside the simulation, after the
	// flow's own OnAbort callback.
	OnFlowKilled func(from, to string, f *fluid.Flow)
}

type pair struct{ src, dst string }

// PathFinder computes a node path from src to dst. Implementations must
// be deterministic.
type PathFinder interface {
	Path(g *Graph, src, dst *Node) ([]*Node, error)
}

// New returns an empty graph over the fluid network. The default router
// is delay-weighted Dijkstra.
func New(fl *fluid.Network) *Graph {
	if fl == nil {
		panic("topology: nil fluid network")
	}
	return &Graph{
		fl:        fl,
		index:     make(map[string]int),
		overrides: make(map[pair][]string),
		router:    MinDelay{},
	}
}

// Fluid returns the underlying fluid network.
func (g *Graph) Fluid() *fluid.Network { return g.fl }

// SetRouter installs the route computation strategy.
func (g *Graph) SetRouter(r PathFinder) {
	if r == nil {
		panic("topology: nil router")
	}
	g.router = r
}

// AddNode registers a node. Duplicate names are an error.
func (g *Graph) AddNode(n *Node) (*Node, error) {
	if n == nil || n.Name == "" {
		return nil, fmt.Errorf("topology: node must have a name")
	}
	if _, ok := g.index[n.Name]; ok {
		return nil, fmt.Errorf("topology: duplicate node %q", n.Name)
	}
	if n.Hostname == "" {
		n.Hostname = n.Name
	}
	g.index[n.Name] = len(g.nodes)
	g.nodes = append(g.nodes, n)
	g.out = append(g.out, nil)
	return n, nil
}

// MustAddNode is AddNode for static topologies; it panics on error.
func (g *Graph) MustAddNode(n *Node) *Node {
	node, err := g.AddNode(n)
	if err != nil {
		panic(err)
	}
	return node
}

// Node returns a node by name.
func (g *Graph) Node(name string) (*Node, bool) {
	i, ok := g.index[name]
	if !ok {
		return nil, false
	}
	return g.nodes[i], true
}

// MustNode returns a node by name, panicking if absent.
func (g *Graph) MustNode(name string) *Node {
	n, ok := g.Node(name)
	if !ok {
		panic(fmt.Sprintf("topology: unknown node %q", name))
	}
	return n
}

// Nodes returns all nodes in insertion order.
func (g *Graph) Nodes() []*Node {
	return append([]*Node(nil), g.nodes...)
}

// Connect adds a bidirectional adjacency with symmetric specs.
func (g *Graph) Connect(a, b string, spec LinkSpec) error {
	if err := g.ConnectAsym(a, b, spec); err != nil {
		return err
	}
	return g.ConnectAsym(b, a, spec)
}

// MustConnect is Connect, panicking on error.
func (g *Graph) MustConnect(a, b string, spec LinkSpec) {
	if err := g.Connect(a, b, spec); err != nil {
		panic(err)
	}
}

// ConnectAsym adds one direction of an adjacency.
func (g *Graph) ConnectAsym(from, to string, spec LinkSpec) error {
	fi, ok := g.index[from]
	if !ok {
		return fmt.Errorf("topology: unknown node %q", from)
	}
	ti, ok := g.index[to]
	if !ok {
		return fmt.Errorf("topology: unknown node %q", to)
	}
	if from == to {
		return fmt.Errorf("topology: self-link at %q", from)
	}
	fn, tn := g.nodes[fi], g.nodes[ti]
	for _, e := range g.out[fi] {
		if e.To == tn {
			return fmt.Errorf("topology: duplicate edge %s->%s", from, to)
		}
	}
	if spec.CapacityBps <= 0 {
		return fmt.Errorf("topology: edge %s->%s capacity %v", from, to, spec.CapacityBps)
	}
	delay := spec.DelaySec
	if delay == 0 {
		delay = geo.PropagationDelay(fn.Site.Coord, tn.Site.Coord)
		if delay == 0 {
			delay = 0.0002 // same-site wire
		}
	}
	link := g.fl.AddLink(fmt.Sprintf("%s->%s", from, to), spec.CapacityBps, delay)
	link.FlowCap = spec.PerFlowCapBps
	out := append(g.out[fi], &Edge{From: fn, To: tn, Link: link, to: ti})
	sort.Slice(out, func(i, j int) bool { return out[i].To.Name < out[j].To.Name })
	g.out[fi] = out
	return nil
}

// MustConnectAsym is ConnectAsym, panicking on error.
func (g *Graph) MustConnectAsym(from, to string, spec LinkSpec) {
	if err := g.ConnectAsym(from, to, spec); err != nil {
		panic(err)
	}
}

// Edges returns the out-edges of a node, sorted by target name.
func (g *Graph) Edges(name string) []*Edge {
	i, ok := g.index[name]
	if !ok {
		return nil
	}
	return g.out[i]
}

// Edge returns the directed edge from->to.
func (g *Graph) Edge(from, to string) (*Edge, bool) {
	for _, e := range g.Edges(from) {
		if e.To.Name == to {
			return e, true
		}
	}
	return nil, false
}

// SetLinkState marks one direction of an adjacency up or down. Down
// edges are excluded from route computation, their fluid link is
// crushed to a trickle so any flow started before the teardown below
// lands would stall rather than silently completing, and — the part a
// routing change alone cannot express — every in-flight fluid flow
// traversing the edge is killed, running each flow's OnAbort callback
// and then the graph's OnFlowKilled hook. This is the primary
// failure-injection entry point for resilience tests. It reports
// whether the edge exists.
func (g *Graph) SetLinkState(from, to string, up bool) bool {
	e, ok := g.Edge(from, to)
	if !ok {
		return false
	}
	e.down = !up
	if up {
		g.fl.SetLinkLoad(e.Link, 0)
		return true
	}
	g.fl.SetLinkLoad(e.Link, 1) // clamped to the max load internally
	for _, f := range e.Link.Flows() {
		if g.fl.KillFlow(f) && g.OnFlowKilled != nil {
			g.OnFlowKilled(from, to, f)
		}
	}
	return true
}

// SetOverride pins the route from src to dst to the exact node sequence
// hops (which must start at src, end at dst, and follow existing edges).
// Overrides take precedence over the installed Router and are
// direction-specific.
func (g *Graph) SetOverride(hops ...string) error {
	if len(hops) < 2 {
		return fmt.Errorf("topology: override needs at least 2 hops")
	}
	for i := 0; i+1 < len(hops); i++ {
		if _, ok := g.Edge(hops[i], hops[i+1]); !ok {
			return fmt.Errorf("topology: override hop %s->%s has no edge", hops[i], hops[i+1])
		}
	}
	g.overrides[pair{hops[0], hops[len(hops)-1]}] = append([]string(nil), hops...)
	return nil
}

// MustSetOverride is SetOverride, panicking on error.
func (g *Graph) MustSetOverride(hops ...string) {
	if err := g.SetOverride(hops...); err != nil {
		panic(err)
	}
}

// Override returns the pinned hop sequence for src->dst, if one exists
// (enabled or not).
func (g *Graph) Override(src, dst string) ([]string, bool) {
	hops, ok := g.overrides[pair{src, dst}]
	if !ok {
		return nil, false
	}
	return append([]string(nil), hops...), true
}

// SetOverrideEnabled suspends or restores one pinned route without
// forgetting it — the churn model's "the hand-off flipped away and
// back". While disabled the pair routes through the installed Router.
// It reports whether the override exists.
func (g *Graph) SetOverrideEnabled(src, dst string, enabled bool) bool {
	if _, ok := g.overrides[pair{src, dst}]; !ok {
		return false
	}
	if g.overridesOff == nil {
		g.overridesOff = make(map[pair]bool)
	}
	if enabled {
		delete(g.overridesOff, pair{src, dst})
	} else {
		g.overridesOff[pair{src, dst}] = true
	}
	return true
}

// SetOverrideVeto installs a hook consulted before any pinned route is
// used; returning true makes the pair fall through to the Router. The
// routing plane uses it to break pins whose domain crossings ride a
// withdrawn BGP session.
func (g *Graph) SetOverrideVeto(veto func(hops []*Node) bool) {
	g.overrideVeto = veto
}

// KillEdgeFlows kills every in-flight fluid flow on the from->to edge
// (without taking the link down), running abort callbacks and the
// OnFlowKilled hook. It returns the number of flows killed.
func (g *Graph) KillEdgeFlows(from, to string) int {
	e, ok := g.Edge(from, to)
	if !ok {
		return 0
	}
	n := 0
	for _, f := range e.Link.Flows() {
		if g.fl.KillFlow(f) {
			if g.OnFlowKilled != nil {
				g.OnFlowKilled(from, to, f)
			}
			n++
		}
	}
	return n
}

// KillDomainBoundaryFlows kills every in-flight flow crossing the
// a~b domain boundary in either direction — the data-plane half of a
// BGP session withdrawal, where the forwarding adjacency disappears
// under whatever traffic was riding it. It returns the number of flows
// killed.
func (g *Graph) KillDomainBoundaryFlows(a, b string) int {
	n := 0
	for _, out := range g.out {
		for _, e := range out {
			ad, bd := e.From.Domain, e.To.Domain
			if (ad == a && bd == b) || (ad == b && bd == a) {
				n += g.KillEdgeFlows(e.From.Name, e.To.Name)
			}
		}
	}
	return n
}

// Path returns the routed node sequence from src to dst, honouring
// overrides first and the installed Router otherwise.
func (g *Graph) Path(src, dst string) ([]*Node, error) {
	s, ok := g.Node(src)
	if !ok {
		return nil, fmt.Errorf("topology: unknown src %q", src)
	}
	d, ok := g.Node(dst)
	if !ok {
		return nil, fmt.Errorf("topology: unknown dst %q", dst)
	}
	if src == dst {
		return []*Node{s}, nil
	}
	if hops, ok := g.overrides[pair{src, dst}]; ok && !g.overridesOff[pair{src, dst}] && g.overrideUsable(hops) {
		out := make([]*Node, len(hops))
		for i, h := range hops {
			out[i] = g.MustNode(h)
		}
		return out, nil
	}
	return g.router.Path(g, s, d)
}

// overrideUsable reports whether every edge of a pinned path is up and
// the veto hook (if any) allows it; otherwise the override falls
// through to the installed Router so failover can route around the
// failure.
func (g *Graph) overrideUsable(hops []string) bool {
	for i := 0; i+1 < len(hops); i++ {
		if e, ok := g.Edge(hops[i], hops[i+1]); !ok || e.down {
			return false
		}
	}
	if g.overrideVeto != nil {
		nodes := make([]*Node, len(hops))
		for i, h := range hops {
			nodes[i] = g.MustNode(h)
		}
		if g.overrideVeto(nodes) {
			return false
		}
	}
	return true
}

// LinkPath converts a routed node sequence into the fluid links it
// traverses, the form StartFlow consumes.
func (g *Graph) LinkPath(nodes []*Node) ([]*fluid.Link, error) {
	if len(nodes) < 2 {
		return nil, fmt.Errorf("topology: link path needs at least 2 nodes")
	}
	out := make([]*fluid.Link, 0, len(nodes)-1)
	for i := 0; i+1 < len(nodes); i++ {
		e, ok := g.Edge(nodes[i].Name, nodes[i+1].Name)
		if !ok {
			return nil, fmt.Errorf("topology: no edge %s->%s", nodes[i].Name, nodes[i+1].Name)
		}
		out = append(out, e.Link)
	}
	return out, nil
}

// RoutedLinks combines Path and LinkPath.
func (g *Graph) RoutedLinks(src, dst string) ([]*fluid.Link, error) {
	nodes, err := g.Path(src, dst)
	if err != nil {
		return nil, err
	}
	return g.LinkPath(nodes)
}

// RTT returns the round-trip propagation delay between two nodes along
// the currently routed forward and reverse paths.
func (g *Graph) RTT(a, b string) (float64, error) {
	fwd, err := g.RoutedLinks(a, b)
	if err != nil {
		return 0, err
	}
	rev, err := g.RoutedLinks(b, a)
	if err != nil {
		return 0, err
	}
	return fluid.PathDelay(fwd) + fluid.PathDelay(rev), nil
}

// MinDelay is the default PathFinder: Dijkstra weighted by link propagation
// delay, with deterministic lexicographic tie-breaking.
type MinDelay struct{}

// Path implements PathFinder.
func (MinDelay) Path(g *Graph, src, dst *Node) ([]*Node, error) {
	return dijkstra(g, src, dst, func(e *Edge) float64 { return e.Link.PropDelay }, nil)
}

// EdgeFilter decides whether a route from src to dst may use edge e.
type EdgeFilter func(e *Edge, src, dst *Node) bool

// MinDelayFiltered is delay-weighted Dijkstra restricted to edges the
// filter admits — the hook for lightweight routing policy such as
// "provider (stub) domains do not carry transit traffic", which on the
// real Internet is enforced by BGP export rules (see package bgppol for
// the full model).
type MinDelayFiltered struct {
	Allow EdgeFilter
}

// Path implements PathFinder.
func (r MinDelayFiltered) Path(g *Graph, src, dst *Node) ([]*Node, error) {
	if r.Allow == nil {
		return nil, fmt.Errorf("topology: MinDelayFiltered with nil filter")
	}
	return dijkstra(g, src, dst, func(e *Edge) float64 { return e.Link.PropDelay }, r.Allow)
}

// NoStubTransit returns an EdgeFilter that keeps routes out of the given
// stub domains except when the route originates or terminates there.
func NoStubTransit(stubDomains ...string) EdgeFilter {
	stubs := make(map[string]bool, len(stubDomains))
	for _, d := range stubDomains {
		stubs[d] = true
	}
	return func(e *Edge, src, dst *Node) bool {
		d := e.To.Domain
		if !stubs[d] {
			return true
		}
		return d == src.Domain || d == dst.Domain
	}
}

// WeightFunc scores an edge for MinWeight routing; lower is preferred.
type WeightFunc func(e *Edge) float64

// MinWeight routes by an arbitrary edge weight.
type MinWeight struct{ Weight WeightFunc }

// Path implements PathFinder.
func (r MinWeight) Path(g *Graph, src, dst *Node) ([]*Node, error) {
	if r.Weight == nil {
		return nil, fmt.Errorf("topology: MinWeight with nil weight func")
	}
	return dijkstra(g, src, dst, r.Weight, nil)
}

// dijkstra is the router's shortest-path search over dense node
// indices. The extract-min is a linear scan in insertion order with a
// strict "<", so among equal distances the earliest-added node wins:
// topologies here have tens of nodes, and the order makes ties
// deterministic.
func dijkstra(g *Graph, src, dst *Node, w WeightFunc, allow EdgeFilter) ([]*Node, error) {
	const unreached = math.MaxFloat64
	si, ok := g.index[src.Name]
	di, ok2 := g.index[dst.Name]
	if !ok || !ok2 {
		return nil, fmt.Errorf("topology: no route %s -> %s", src.Name, dst.Name)
	}
	type state struct {
		dist    float64
		prev    int
		visited bool
	}
	st := make([]state, len(g.nodes))
	for i := range st {
		st[i] = state{dist: unreached, prev: -1}
	}
	st[si].dist = 0
	for {
		cur := -1
		best := unreached
		for i := range st {
			if !st[i].visited && st[i].dist < best {
				best = st[i].dist
				cur = i
			}
		}
		if cur < 0 {
			return nil, fmt.Errorf("topology: no route %s -> %s", src.Name, dst.Name)
		}
		if cur == di {
			break
		}
		st[cur].visited = true
		for _, e := range g.out[cur] {
			if e.down {
				continue
			}
			if allow != nil && !allow(e, src, dst) {
				continue
			}
			ew := w(e)
			if ew < 0 {
				return nil, fmt.Errorf("topology: negative weight on %s->%s", e.From.Name, e.To.Name)
			}
			if nd := st[cur].dist + ew; nd < st[e.to].dist {
				st[e.to].dist = nd
				st[e.to].prev = cur
			}
		}
	}
	hops := 1
	for at := di; at != si; at = st[at].prev {
		hops++
	}
	out := make([]*Node, hops)
	out[0] = src
	for at, i := di, hops-1; i > 0; at, i = st[at].prev, i-1 {
		out[i] = g.nodes[at]
	}
	return out, nil
}

// PathNames renders a node path as names, for tests and diagnostics.
func PathNames(nodes []*Node) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.Name
	}
	return out
}
