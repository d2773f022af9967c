package scenario

import (
	"testing"

	"detournet/internal/topology"
)

// TestIdleWorldKeepsNoEvents pins lazy cross-traffic: a built world
// with no foreground flow, advanced one virtual hour, processes no
// event at all, yet its loaded links' cross-traffic has moved on when
// read.
func TestIdleWorldKeepsNoEvents(t *testing.T) {
	w := Build(2015)
	e, _ := w.Graph.Edge("vncv1", "pacificwave")
	start := e.Link.Load()
	w.Eng.Advance(0) // the servers' start-up events, all at t=0
	before := w.Eng.Processed()
	w.Eng.Advance(3600)
	if n := w.Eng.Processed() - before; n != 0 {
		t.Fatalf("idle hour processed %d events, want 0", n)
	}
	if w.Eng.Pending() != 0 {
		t.Fatalf("idle world keeps %d pending events, want 0", w.Eng.Pending())
	}
	if e.Link.Load() == start {
		t.Fatalf("vncv1->pacificwave load still %v after an hour", start)
	}
}

// BenchmarkGraphPath is one routed-path lookup in the paper's world,
// cycling over every ordered pair of hosts.
func BenchmarkGraphPath(b *testing.B) {
	w := Build(2015)
	var hosts []string
	for _, n := range w.Graph.Nodes() {
		if n.Kind == topology.Host {
			hosts = append(hosts, n.Name)
		}
	}
	type pair struct{ src, dst string }
	var pairs []pair
	for _, s := range hosts {
		for _, d := range hosts {
			if s != d {
				pairs = append(pairs, pair{s, d})
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		if _, err := w.Graph.Path(p.src, p.dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIdleCrossTraffic advances a built world with no foreground
// flow by one virtual hour per op: the cost of background load nobody
// reads.
func BenchmarkIdleCrossTraffic(b *testing.B) {
	w := Build(2015)
	w.Eng.Advance(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Eng.Advance(3600)
	}
}
