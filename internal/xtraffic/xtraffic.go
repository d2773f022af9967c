// Package xtraffic generates background load on links: a seeded,
// autocorrelated (AR(1)) load process re-sampled at a fixed interval,
// standing in for the cross-traffic the paper's transfers competed with.
//
// Cross-traffic is what turns the paper's clean bandwidth story into the
// noisy one in Table IV: run-to-run variance, overlapping ±1σ error
// bars, and the file-size-dependent exceptions in Figs 8–9 all come from
// the foreground transfer sampling this process at different times.
//
// Processes are lazy. A process keeps an engine event only while its
// link carries a flow; on an idle link it draws the next interval as
// usual and parks with that due time. As the link's fluid.LoadSource it
// is caught up — every re-sample due at or before now applied in order,
// with the same rng draws and due+interval arithmetic an always-scheduled
// process would use — before anything reads or writes the link's load,
// and woken into a real event when a flow starts on the link. Stop
// catches up first, so Controller.Restart continues the same rng stream.
// An idle world therefore costs no events, and every load value a flow
// or a reader sees is bit-identical to eager re-sampling, up to the
// order of events at exactly equal times (see DESIGN.md §9).
package xtraffic

import (
	"math"
	"math/rand"

	"detournet/internal/fluid"
	"detournet/internal/simclock"
)

// Config shapes one link's background-load process.
type Config struct {
	// MeanLoad is the long-run average fraction of link capacity consumed
	// by cross-traffic, in [0, 0.95].
	MeanLoad float64
	// Burstiness in [0, 1] scales the noise amplitude around MeanLoad.
	// Zero gives a constant load; one gives swings comparable to the mean.
	Burstiness float64
	// Interval is the virtual-time spacing of re-samples in seconds.
	// Zero defaults to 5s.
	Interval float64
	// Alpha is the AR(1) autocorrelation in [0, 1). Zero defaults to 0.7:
	// congestion episodes persist for a few intervals, as real ones do.
	Alpha float64
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 5
	}
	if c.Alpha <= 0 {
		c.Alpha = 0.7
	}
	if c.Alpha >= 1 {
		c.Alpha = 0.99
	}
	if c.MeanLoad < 0 {
		c.MeanLoad = 0
	}
	if c.MeanLoad > 0.95 {
		c.MeanLoad = 0.95
	}
	if c.Burstiness < 0 {
		c.Burstiness = 0
	}
	if c.Burstiness > 1 {
		c.Burstiness = 1
	}
	return c
}

// lazy drives one process's re-samples: an engine event while its link
// carries a flow, a parked due time while the link is idle. It is the
// link's fluid.LoadSource, so the network catches it up before the
// link's load is read or written and wakes it when a flow arrives.
// Fired and caught-up re-samples run the same resample function and
// the same due+interval arithmetic, so the load sequence and the rng
// stream are those of a process that always kept its event.
type lazy struct {
	fl   *fluid.Network
	link *fluid.Link
	// resample applies one re-sample (drawing from the process's rng
	// and writing the link's load) and draws the interval to the next.
	resample func() simclock.Duration
	due      simclock.Time   // when the next re-sample is due
	next     *simclock.Event // pending re-sample while the link is busy
	parked   bool            // idle link: due is applied lazily
	stopped  bool
}

// start sets the first due time d from now and arms the process.
func (z *lazy) start(d simclock.Duration) {
	z.due = z.fl.Engine().Now() + simclock.Time(d)
	z.link.SetLoadSource(z)
	z.arm()
}

// arm keeps an engine event for the next re-sample only while the link
// carries a flow, and parks the process otherwise.
func (z *lazy) arm() {
	if z.link.NumFlows() > 0 {
		z.schedule()
	} else {
		z.parked = true
	}
}

func (z *lazy) schedule() {
	z.parked = false
	z.next = z.fl.Engine().Schedule(z.due, z.fire)
}

// advance applies the re-sample that is due and moves due one interval
// on.
func (z *lazy) advance() {
	z.due += simclock.Time(z.resample())
}

// fire is the engine event: re-sample, then re-arm.
func (z *lazy) fire() {
	z.next = nil
	z.advance()
	z.arm()
}

// CatchUp implements fluid.LoadSource: it applies every parked
// re-sample due at or before now, in order. The process is unparked
// while a re-sample runs, so the CatchUp nested in its SetLinkLoad
// returns at once.
func (z *lazy) CatchUp() {
	now := z.fl.Engine().Now()
	for z.parked && z.due <= now {
		z.parked = false
		z.advance()
		z.parked = true
	}
}

// Wake implements fluid.LoadSource: the link is about to carry a flow,
// so catch up and schedule the next re-sample as a real event.
func (z *lazy) Wake() {
	if !z.parked {
		return
	}
	z.CatchUp()
	z.schedule()
}

// stop catches up (so the rng stream stands where an always-scheduled
// process's would), cancels any pending event and releases the link.
func (z *lazy) stop() {
	if z.stopped {
		return
	}
	z.CatchUp()
	z.stopped = true
	z.parked = false
	if z.next != nil {
		z.fl.Engine().Cancel(z.next)
		z.next = nil
	}
	z.link.SetLoadSource(nil)
	z.fl.SetLinkLoad(z.link, 0)
}

// Process is one link's running load generator.
type Process struct {
	lz   lazy
	cfg  Config
	rng  *rand.Rand
	load float64
}

// Attach starts a load process on link, seeding the link's load
// immediately and re-sampling every Interval until Stop. The rng is
// owned by the process afterwards; give each process its own, because
// an idle link's re-samples draw from it only when they are caught up.
func Attach(fl *fluid.Network, link *fluid.Link, cfg Config, rng *rand.Rand) *Process {
	if fl == nil || link == nil || rng == nil {
		panic("xtraffic: nil argument")
	}
	p := &Process{lz: lazy{fl: fl, link: link}, cfg: cfg.withDefaults(), rng: rng}
	p.lz.resample = p.step
	p.load = p.sampleStationary()
	fl.SetLinkLoad(link, p.load)
	p.lz.start(p.interval())
	return p
}

// sampleStationary draws an initial load from around the stationary
// distribution so transfers starting at t=0 see typical conditions.
func (p *Process) sampleStationary() float64 {
	return clampLoad(p.cfg.MeanLoad + p.noise()/math.Sqrt(1-p.cfg.Alpha*p.cfg.Alpha))
}

func (p *Process) noise() float64 {
	sigma := p.cfg.Burstiness * math.Max(p.cfg.MeanLoad, 0.05) * 0.6
	return p.rng.NormFloat64() * sigma
}

func clampLoad(x float64) float64 {
	return math.Max(0, math.Min(0.95, x))
}

// interval draws the spacing to the next re-sample, slightly jittered
// so many processes never re-sample in lockstep, which would create
// artificial global synchronization.
func (p *Process) interval() simclock.Duration {
	return p.cfg.Interval * (0.9 + 0.2*p.rng.Float64())
}

// step is one AR(1) re-sample.
func (p *Process) step() simclock.Duration {
	c := p.cfg
	p.load = clampLoad(c.MeanLoad + c.Alpha*(p.load-c.MeanLoad) + p.noise())
	p.lz.fl.SetLinkLoad(p.lz.link, p.load)
	return p.interval()
}

// Load returns the process's current load fraction.
func (p *Process) Load() float64 {
	p.lz.CatchUp()
	return p.load
}

// Stop halts the process and releases the link back to zero load.
func (p *Process) Stop() { p.lz.stop() }

// OnOffConfig shapes a two-state Markov-modulated load process: the link
// alternates between a quiet state and a congestion episode, with
// exponentially distributed holding times. Long-transfer runs inevitably
// straddle episodes while short ones often dodge them — the mechanism
// behind the paper's size-dependent detour benefit and the large error
// bars from Purdue (Table IV, Figs 8–9).
type OnOffConfig struct {
	// GoodLoad/BadLoad are the cross-traffic fractions in each state.
	GoodLoad, BadLoad float64
	// MeanGood/MeanBad are the mean state holding times in seconds.
	MeanGood, MeanBad float64
}

// OnOffProcess is a running two-state load generator.
type OnOffProcess struct {
	lz  lazy
	cfg OnOffConfig
	rng *rand.Rand
	bad bool
}

// AttachOnOff starts a two-state process on link. The initial state is
// drawn from the stationary distribution. As with Attach, give each
// process its own rng.
func AttachOnOff(fl *fluid.Network, link *fluid.Link, cfg OnOffConfig, rng *rand.Rand) *OnOffProcess {
	if fl == nil || link == nil || rng == nil {
		panic("xtraffic: nil argument")
	}
	if cfg.MeanGood <= 0 || cfg.MeanBad <= 0 {
		panic("xtraffic: OnOff holding times must be positive")
	}
	p := &OnOffProcess{lz: lazy{fl: fl, link: link}, cfg: cfg, rng: rng}
	p.lz.resample = p.step
	pBad := cfg.MeanBad / (cfg.MeanGood + cfg.MeanBad)
	p.bad = rng.Float64() < pBad
	p.apply()
	p.lz.start(p.holding())
	return p
}

func (p *OnOffProcess) apply() {
	load := p.cfg.GoodLoad
	if p.bad {
		load = p.cfg.BadLoad
	}
	p.lz.fl.SetLinkLoad(p.lz.link, clampLoad(load))
}

// holding draws how long the current state lasts.
func (p *OnOffProcess) holding() simclock.Duration {
	mean := p.cfg.MeanGood
	if p.bad {
		mean = p.cfg.MeanBad
	}
	return p.rng.ExpFloat64() * mean
}

// step flips the state.
func (p *OnOffProcess) step() simclock.Duration {
	p.bad = !p.bad
	p.apply()
	return p.holding()
}

// Bad reports whether the link is currently in a congestion episode.
func (p *OnOffProcess) Bad() bool {
	p.lz.CatchUp()
	return p.bad
}

// Stop halts the process and releases the link.
func (p *OnOffProcess) Stop() { p.lz.stop() }

// Controller manages the cross-traffic processes of one experiment run
// so they can be torn down together when the foreground transfer ends
// (otherwise their re-sample events would keep the simulation alive
// forever) and restarted for the next run.
type Controller struct {
	starters []func() stopper
	procs    []stopper
	stopped  bool
}

type stopper interface{ Stop() }

// NewController returns an empty controller.
func NewController() *Controller { return &Controller{} }

// Attach starts an AR(1) process and tracks it for StopAll/Restart.
func (c *Controller) Attach(fl *fluid.Network, link *fluid.Link, cfg Config, rng *rand.Rand) *Process {
	start := func() stopper { return Attach(fl, link, cfg, rng) }
	c.starters = append(c.starters, start)
	p := Attach(fl, link, cfg, rng)
	c.procs = append(c.procs, p)
	return p
}

// AttachOnOff starts a two-state process and tracks it.
func (c *Controller) AttachOnOff(fl *fluid.Network, link *fluid.Link, cfg OnOffConfig, rng *rand.Rand) *OnOffProcess {
	start := func() stopper { return AttachOnOff(fl, link, cfg, rng) }
	c.starters = append(c.starters, start)
	p := AttachOnOff(fl, link, cfg, rng)
	c.procs = append(c.procs, p)
	return p
}

// StopAll stops every tracked process (so the event queue can drain
// between measurement phases).
func (c *Controller) StopAll() {
	for _, p := range c.procs {
		p.Stop()
	}
	c.stopped = true
}

// Restart re-attaches every tracked process after StopAll, continuing
// each link's seeded random sequence. It is a no-op while running.
func (c *Controller) Restart() {
	if !c.stopped {
		return
	}
	c.procs = c.procs[:0]
	for _, start := range c.starters {
		c.procs = append(c.procs, start())
	}
	c.stopped = false
}

// Len returns the number of tracked processes.
func (c *Controller) Len() int { return len(c.procs) }
