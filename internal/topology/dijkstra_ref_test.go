package topology

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// referenceDijkstra is the search dijkstra replaced: the same linear
// extract-min in insertion order with a strict "<", over string-keyed
// dist/prev/visited maps.
func referenceDijkstra(g *Graph, src, dst *Node, w WeightFunc, allow EdgeFilter) ([]*Node, error) {
	const unreached = math.MaxFloat64
	nodes := g.Nodes()
	dist := make(map[string]float64, len(nodes))
	prev := make(map[string]string, len(nodes))
	visited := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		dist[n.Name] = unreached
	}
	dist[src.Name] = 0
	for {
		cur := ""
		best := unreached
		for _, n := range nodes {
			if !visited[n.Name] && dist[n.Name] < best {
				best = dist[n.Name]
				cur = n.Name
			}
		}
		if cur == "" {
			return nil, fmt.Errorf("topology: no route %s -> %s", src.Name, dst.Name)
		}
		if cur == dst.Name {
			break
		}
		visited[cur] = true
		for _, e := range g.Edges(cur) {
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
			if nd := dist[cur] + ew; nd < dist[e.To.Name] {
				dist[e.To.Name] = nd
				prev[e.To.Name] = cur
			}
		}
	}
	var rev []string
	for at := dst.Name; at != src.Name; at = prev[at] {
		rev = append(rev, at)
	}
	out := []*Node{src}
	for i := len(rev) - 1; i >= 0; i-- {
		out = append(out, g.MustNode(rev[i]))
	}
	return out, nil
}

// TestIndexDijkstraMatchesReference compares the index search with the
// map-based reference on random graphs whose delays come from a small
// set (so equal-delay ties are common), with down edges, an edge
// filter, and unreachable pairs: same path or same error, every pair.
func TestIndexDijkstraMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	delays := []float64{0.001, 0.002, 0.003, 0.004}
	for trial := 0; trial < 150; trial++ {
		g := newGraph()
		n := 3 + rng.Intn(12)
		for i := 0; i < n; i++ {
			// Shuffled insertion order, so index order is not name order.
			g.MustAddNode(&Node{Name: fmt.Sprintf("n%02d", rng.Intn(1000)*100+i), Domain: fmt.Sprint("d", rng.Intn(3))})
		}
		nodes := g.Nodes()
		for k := 0; k < n*3; k++ {
			a, b := nodes[rng.Intn(n)], nodes[rng.Intn(n)]
			if a == b {
				continue
			}
			_ = g.ConnectAsym(a.Name, b.Name, LinkSpec{CapacityBps: 1, DelaySec: delays[rng.Intn(len(delays))]})
		}
		for _, nd := range nodes {
			for _, e := range g.Edges(nd.Name) {
				if rng.Intn(6) == 0 {
					e.down = true
				}
			}
		}
		weight := func(e *Edge) float64 { return e.Link.PropDelay }
		var allow EdgeFilter
		if trial%2 == 1 {
			allow = NoStubTransit("d1")
		}
		for _, src := range nodes {
			for _, dst := range nodes {
				got, gotErr := dijkstra(g, src, dst, weight, allow)
				want, wantErr := referenceDijkstra(g, src, dst, weight, allow)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("trial %d %s->%s: error %v, reference %v", trial, src.Name, dst.Name, gotErr, wantErr)
				}
				if g, w := strings.Join(PathNames(got), ","), strings.Join(PathNames(want), ","); g != w {
					t.Fatalf("trial %d %s->%s: path %s, reference %s", trial, src.Name, dst.Name, g, w)
				}
			}
		}
	}
}
