package fluid

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"detournet/internal/simclock"
)

// referenceMaxMin is the allocator computeMaxMin replaced: progressive
// filling over every link of the network, idle or not, with the
// effective caps in a map. It returns the rates it would assign and
// leaves the flows untouched.
func referenceMaxMin(n *Network) map[*Flow]float64 {
	rate := make(map[*Flow]float64, len(n.flows))
	frozen := make(map[*Flow]bool, len(n.flows))
	if len(n.flows) == 0 {
		return rate
	}
	caps := make(map[*Flow]float64, len(n.flows))
	for _, f := range n.flows {
		c := f.cap
		for _, l := range f.path {
			if l.FlowCap > 0 && l.FlowCap < c {
				c = l.FlowCap
			}
		}
		caps[f] = c
	}
	unfrozen := len(n.flows)
	for unfrozen > 0 {
		delta := math.Inf(1)
		for _, l := range n.links {
			cnt := 0
			used := 0.0
			for _, f := range l.flows {
				used += rate[f]
				if !frozen[f] {
					cnt++
				}
			}
			if cnt == 0 {
				continue
			}
			if d := (l.Available() - used) / float64(cnt); d < delta {
				delta = d
			}
		}
		for _, f := range n.flows {
			if !frozen[f] && caps[f]-rate[f] < delta {
				delta = caps[f] - rate[f]
			}
		}
		if delta < 0 {
			delta = 0
		}
		for _, f := range n.flows {
			if !frozen[f] {
				rate[f] += delta
			}
		}
		for _, l := range n.links {
			used := 0.0
			hasUnfrozen := false
			for _, f := range l.flows {
				used += rate[f]
				if !frozen[f] {
					hasUnfrozen = true
				}
			}
			if hasUnfrozen && l.Available()-used <= 1e-9*math.Max(1, l.Available()) {
				for _, f := range l.flows {
					if !frozen[f] {
						frozen[f] = true
						unfrozen--
					}
				}
			}
		}
		for _, f := range n.flows {
			c := caps[f]
			if !frozen[f] && !math.IsInf(c, 1) && c-rate[f] <= 1e-12*math.Max(1, c) {
				frozen[f] = true
				unfrozen--
			}
		}
		if delta == 0 {
			for _, f := range n.flows {
				if !frozen[f] {
					frozen[f] = true
					unfrozen--
				}
			}
		}
	}
	return rate
}

// TestBusyLinkMaxMinMatchesReference checks the busy-link allocator
// against the all-links reference on random networks — many idle
// links, firewalls, caps, cross-traffic, duplicate-free and repeated
// links on a path — and requires bit-equal rates after every change.
func TestBusyLinkMaxMinMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		eng := simclock.NewEngine()
		n := New(eng)
		links := make([]*Link, 5+rng.Intn(40))
		for i := range links {
			links[i] = n.AddLink(fmt.Sprint("l", i), 10+rng.Float64()*1000, 0)
			if rng.Intn(5) == 0 {
				links[i].FlowCap = 5 + rng.Float64()*200
			}
			if rng.Intn(2) == 0 {
				n.SetLinkLoad(links[i], rng.Float64())
			}
		}
		var flows []*Flow
		compare := func(what string) {
			t.Helper()
			want := referenceMaxMin(n)
			for _, f := range n.flows {
				if math.Float64bits(f.rate) != math.Float64bits(want[f]) {
					t.Fatalf("trial %d after %s: flow %d rate %v, reference %v", trial, what, f.id, f.rate, want[f])
				}
			}
		}
		for i := 0; i < 1+rng.Intn(60); i++ {
			path := make([]*Link, 1+rng.Intn(4))
			for j := range path {
				path[j] = links[rng.Intn(len(links))]
			}
			capBps := 0.0
			if rng.Intn(3) == 0 {
				capBps = 1 + rng.Float64()*300
			}
			flows = append(flows, n.StartFlow(path, 1e12, FlowOpts{RateCap: capBps}))
			compare("start")
			switch rng.Intn(4) {
			case 0:
				n.SetFlowCap(flows[rng.Intn(len(flows))], rng.Float64()*100)
				compare("cap")
			case 1:
				n.SetLinkLoad(links[rng.Intn(len(links))], rng.Float64())
				compare("load")
			case 2:
				n.CancelFlow(flows[rng.Intn(len(flows))])
				compare("cancel")
			}
		}
	}
}

// BenchmarkReallocate measures one reallocation (a flow-cap change, as
// a TCP ramp step makes) with N flows active on a 2000-link network.
func BenchmarkReallocate(b *testing.B) {
	for _, nf := range []int{10, 100, 1000} {
		b.Run(fmt.Sprint(nf), func(b *testing.B) {
			eng := simclock.NewEngine()
			n := New(eng)
			links := make([]*Link, 2000)
			for i := range links {
				links[i] = n.AddLink("l", 1e9, 0.001)
			}
			rng := rand.New(rand.NewSource(1))
			flows := make([]*Flow, nf)
			for i := range flows {
				path := make([]*Link, 1+rng.Intn(3))
				for j := range path {
					path[j] = links[rng.Intn(len(links))]
				}
				// Enormous flows so none complete during the benchmark.
				flows[i] = n.StartFlow(dedupLinks(path), 1e18, FlowOpts{RateCap: 1e6})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.SetFlowCap(flows[i%nf], float64(1e6+(i/nf)%2+1))
			}
		})
	}
}
