package xtraffic

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"detournet/internal/fluid"
	"detournet/internal/simclock"
	"detournet/internal/topology"
)

// The reference below is the eager implementation the lazy processes
// replaced: every process keeps an engine event at all times, busy link
// or idle. The tests drive one world of each kind through the same
// timeline and require the same bits at every observation.

type eagerProcess struct {
	fl      *fluid.Network
	link    *fluid.Link
	cfg     Config
	rng     *rand.Rand
	load    float64
	stopped bool
	next    *simclock.Event
}

func eagerAttach(fl *fluid.Network, link *fluid.Link, cfg Config, rng *rand.Rand) *eagerProcess {
	p := &eagerProcess{fl: fl, link: link, cfg: cfg.withDefaults(), rng: rng}
	c := p.cfg
	p.load = clampLoad(c.MeanLoad + p.noise()/math.Sqrt(1-c.Alpha*c.Alpha))
	fl.SetLinkLoad(link, p.load)
	p.schedule()
	return p
}

func (p *eagerProcess) noise() float64 {
	sigma := p.cfg.Burstiness * math.Max(p.cfg.MeanLoad, 0.05) * 0.6
	return p.rng.NormFloat64() * sigma
}

func (p *eagerProcess) schedule() {
	d := p.cfg.Interval * (0.9 + 0.2*p.rng.Float64())
	p.next = p.fl.Engine().After(d, p.step)
}

func (p *eagerProcess) step() {
	if p.stopped {
		return
	}
	c := p.cfg
	p.load = clampLoad(c.MeanLoad + c.Alpha*(p.load-c.MeanLoad) + p.noise())
	p.fl.SetLinkLoad(p.link, p.load)
	p.schedule()
}

func (p *eagerProcess) Stop() {
	if p.stopped {
		return
	}
	p.stopped = true
	p.fl.Engine().Cancel(p.next)
	p.fl.SetLinkLoad(p.link, 0)
}

type eagerOnOff struct {
	fl      *fluid.Network
	link    *fluid.Link
	cfg     OnOffConfig
	rng     *rand.Rand
	bad     bool
	stopped bool
	next    *simclock.Event
}

func eagerAttachOnOff(fl *fluid.Network, link *fluid.Link, cfg OnOffConfig, rng *rand.Rand) *eagerOnOff {
	p := &eagerOnOff{fl: fl, link: link, cfg: cfg, rng: rng}
	p.bad = rng.Float64() < cfg.MeanBad/(cfg.MeanGood+cfg.MeanBad)
	p.apply()
	p.schedule()
	return p
}

func (p *eagerOnOff) apply() {
	load := p.cfg.GoodLoad
	if p.bad {
		load = p.cfg.BadLoad
	}
	p.fl.SetLinkLoad(p.link, clampLoad(load))
}

func (p *eagerOnOff) schedule() {
	mean := p.cfg.MeanGood
	if p.bad {
		mean = p.cfg.MeanBad
	}
	p.next = p.fl.Engine().After(p.rng.ExpFloat64()*mean, p.step)
}

func (p *eagerOnOff) step() {
	if p.stopped {
		return
	}
	p.bad = !p.bad
	p.apply()
	p.schedule()
}

func (p *eagerOnOff) Stop() {
	if p.stopped {
		return
	}
	p.stopped = true
	p.fl.Engine().Cancel(p.next)
	p.fl.SetLinkLoad(p.link, 0)
}

// twin is one side of a lazy/eager comparison: a small fully meshed
// graph with a cross-traffic process on every directed edge.
type twin struct {
	eng   *simclock.Engine
	g     *topology.Graph
	edges []*topology.Edge
	rngs  []*rand.Rand
	flows []*fluid.Flow

	// Exactly one of these is set.
	ctl   *Controller
	eager []stopper
	start []func() stopper // eager re-attach, for restart
}

const twinNodes = 4

func newTwin(seed int64, lazy bool) *twin {
	eng := simclock.NewEngine()
	w := &twin{eng: eng, g: topology.New(fluid.New(eng))}
	for i := 0; i < twinNodes; i++ {
		w.g.MustAddNode(&topology.Node{Name: fmt.Sprintf("n%d", i)})
	}
	cfgRng := rand.New(rand.NewSource(seed))
	for i := 0; i < twinNodes; i++ {
		for j := i + 1; j < twinNodes; j++ {
			w.g.MustConnect(fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", j), topology.LinkSpec{
				CapacityBps: 50 + 100*cfgRng.Float64(), DelaySec: 0.001,
			})
		}
	}
	if lazy {
		w.ctl = NewController()
	}
	fl := w.g.Fluid()
	for _, n := range w.g.Nodes() {
		for _, e := range w.g.Edges(n.Name) {
			w.edges = append(w.edges, e)
			rng := rand.New(rand.NewSource(cfgRng.Int63()))
			w.rngs = append(w.rngs, rng)
			link := e.Link
			if cfgRng.Intn(3) == 0 {
				cfg := OnOffConfig{GoodLoad: 0.1, BadLoad: 0.8, MeanGood: 2 + 6*cfgRng.Float64(), MeanBad: 1 + 3*cfgRng.Float64()}
				if lazy {
					w.ctl.AttachOnOff(fl, link, cfg, rng)
				} else {
					w.start = append(w.start, func() stopper { return eagerAttachOnOff(fl, link, cfg, rng) })
				}
				continue
			}
			cfg := Config{MeanLoad: 0.2 + 0.5*cfgRng.Float64(), Burstiness: cfgRng.Float64(), Interval: 0.5 + 3*cfgRng.Float64()}
			if lazy {
				w.ctl.Attach(fl, link, cfg, rng)
			} else {
				w.start = append(w.start, func() stopper { return eagerAttach(fl, link, cfg, rng) })
			}
		}
	}
	w.restart()
	return w
}

func (w *twin) restart() {
	if w.ctl != nil {
		w.ctl.Restart()
		return
	}
	if len(w.eager) > 0 {
		return
	}
	for _, s := range w.start {
		w.eager = append(w.eager, s())
	}
}

func (w *twin) stopAll() {
	if w.ctl != nil {
		w.ctl.StopAll()
		return
	}
	for _, p := range w.eager {
		p.Stop()
	}
	w.eager = w.eager[:0]
}

// due returns when edge i's next re-sample is due.
func (w *twin) due(i int) simclock.Time {
	if w.ctl != nil {
		switch p := w.ctl.procs[i].(type) {
		case *Process:
			return p.lz.due
		case *OnOffProcess:
			return p.lz.due
		}
	}
	switch p := w.eager[i].(type) {
	case *eagerProcess:
		return p.next.At()
	case *eagerOnOff:
		return p.next.At()
	}
	panic("twin: unknown process")
}

// observe renders, bit for bit, the flows and the links that carry
// them, plus every idle link when all is set. Reading an idle link
// catches its process up, so the timeline reads idle links only now
// and then, leaving the lazy side's parked re-samples for the flow
// starts, load writes and stops to catch up.
func (w *twin) observe(all bool) string {
	s := fmt.Sprintf("t=%v", w.eng.Now())
	for _, e := range w.edges {
		if l := e.Link; all || l.NumFlows() > 0 {
			s += fmt.Sprintf(" %s:%x/%x/%x", l.Name, math.Float64bits(l.Load()),
				math.Float64bits(l.Available()), math.Float64bits(l.Utilization()))
		}
	}
	for k, f := range w.flows {
		s += fmt.Sprintf(" f%d:%d/%x/%x", k, f.State(), math.Float64bits(f.Rate()),
			math.Float64bits(w.g.Fluid().Remaining(f)))
	}
	return s
}

// startFlow starts a flow along the named nodes.
func (w *twin) startFlow(names []string, bytes float64) {
	var hops []*topology.Node
	for _, name := range names {
		hops = append(hops, w.g.MustNode(name))
	}
	links, err := w.g.LinkPath(hops)
	if err != nil {
		panic(err)
	}
	w.flows = append(w.flows, w.g.Fluid().StartFlow(links, bytes, fluid.FlowOpts{}))
}

// TestLazyMatchesEagerCrossTraffic drives lazy and eager worlds through
// seeded random timelines of flow starts, cancels, load writes, link
// flaps, reads, and stop/restart cycles, and requires bit-identical
// loads, rates, remaining bytes, rng streams and completion times.
func TestLazyMatchesEagerCrossTraffic(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		lz, eg := newTwin(seed, true), newTwin(seed, false)
		both := func(fn func(w *twin)) { fn(lz); fn(eg) }
		check := func(step int, what string, all bool) {
			t.Helper()
			if a, b := lz.observe(all), eg.observe(all); a != b {
				t.Fatalf("seed %d step %d (%s): lazy and eager diverge\nlazy:  %s\neager: %s", seed, step, what, a, b)
			}
		}
		tl := rand.New(rand.NewSource(seed * 7919))
		now := simclock.Time(0)
		check(0, "attach", true)
		for step := 1; step <= 120; step++ {
			now += simclock.Time(0.2 + 5*tl.Float64())
			op := tl.Intn(9)
			edge := tl.Intn(len(lz.edges))
			if op == 7 {
				// A re-sample due exactly at a flow start: pick an edge
				// and start the flow at its due time. Eager fires the
				// re-sample first (it was scheduled first); lazy must
				// catch it up when the flow wakes the link. Reading the
				// edge first brings its due time ahead of the clock.
				both(func(w *twin) { w.edges[edge].Link.Load() })
				d := lz.due(edge)
				if d != eg.due(edge) {
					t.Fatalf("seed %d step %d: due times diverge: %v vs %v", seed, step, d, eg.due(edge))
				}
				now = d
			}
			both(func(w *twin) { w.eng.RunUntil(now) })
			check(step, "advance", false)
			switch op {
			case 0, 1, 2, 7: // start a flow on a random 1-3 hop path
				var names []string
				for _, i := range tl.Perm(twinNodes)[:2+tl.Intn(3)] {
					names = append(names, fmt.Sprintf("n%d", i))
				}
				if op == 7 {
					e := lz.edges[edge]
					names = []string{e.From.Name, e.To.Name}
				}
				bytes := 20 + 800*tl.Float64()
				both(func(w *twin) { w.startFlow(names, bytes) })
			case 3: // cancel a random flow
				if len(lz.flows) > 0 {
					k := tl.Intn(len(lz.flows))
					both(func(w *twin) { w.g.Fluid().CancelFlow(w.flows[k]) })
				}
			case 4, 5: // write a load or flap a link, idle if one is
				for k := 0; k < len(lz.edges) && lz.edges[edge].Link.NumFlows() > 0; k++ {
					edge = (edge + 1) % len(lz.edges)
				}
				frac := tl.Float64()
				up := tl.Intn(2) == 0
				both(func(w *twin) {
					e := w.edges[edge]
					if op == 4 {
						w.g.Fluid().SetLinkLoad(e.Link, frac)
					} else {
						w.g.SetLinkState(e.From.Name, e.To.Name, up)
					}
				})
			case 6: // stop everything, compare rng streams, restart
				both(func(w *twin) { w.stopAll() })
				check(step, "stop", true)
				for i := range lz.rngs {
					if a, b := lz.rngs[i].Int63(), eg.rngs[i].Int63(); a != b {
						t.Fatalf("seed %d step %d: edge %d rng diverges after Stop", seed, step, i)
					}
				}
				now += simclock.Time(tl.Float64())
				both(func(w *twin) { w.eng.RunUntil(now); w.restart() })
			case 8: // read one accessor of a few links, idle or busy
				for _, i := range tl.Perm(len(lz.edges))[:1+tl.Intn(3)] {
					acc := tl.Intn(3)
					read := func(w *twin) float64 {
						l := w.edges[i].Link
						return [...]func() float64{l.Load, l.Available, l.Utilization}[acc]()
					}
					if a, b := read(lz), read(eg); a != b {
						t.Fatalf("seed %d step %d: edge %d accessor %d reads %v lazy, %v eager", seed, step, i, acc, a, b)
					}
				}
			}
			check(step, fmt.Sprintf("op %d", op), false)
		}
		both(func(w *twin) {
			for _, e := range w.edges {
				w.g.SetLinkState(e.From.Name, e.To.Name, true)
			}
			w.eng.RunUntil(now + 1e4)
			w.stopAll()
			w.eng.Run()
		})
		check(-1, "drain", true)
		for k := range lz.flows {
			a, b := lz.flows[k], eg.flows[k]
			if a.State() != b.State() || a.FinishedAt() != b.FinishedAt() {
				t.Fatalf("seed %d flow %d: lazy %v at %v, eager %v at %v",
					seed, k, a.State(), a.FinishedAt(), b.State(), b.FinishedAt())
			}
		}
	}
}
