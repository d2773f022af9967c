package main

import (
	"fmt"

	"detournet/internal/core"
	"detournet/internal/fileutil"
	"detournet/internal/measure"
	"detournet/internal/scenario"
)

// paperSeed is the evaluation's committed seed; at it the grids must
// reproduce the paper's Table I labels.
const paperSeed = 2015

// tableI is the paper's Table I as the reproduction asserts it: per
// client→provider pair, the kind of the overall fastest route (and its
// DTN when the paper names one) and of the overall slowest.
var tableI = []struct {
	client, provider string
	fastest          core.RouteKind
	fastestVia       string
	slowest          core.RouteKind
}{
	{scenario.UBC, scenario.GoogleDrive, core.Detour, scenario.UAlberta, core.Detour},
	{scenario.UBC, scenario.Dropbox, core.Direct, "", core.Detour},
	{scenario.UBC, scenario.OneDrive, core.Direct, "", core.Detour},
	{scenario.Purdue, scenario.GoogleDrive, core.Detour, "", core.Direct},
	{scenario.Purdue, scenario.Dropbox, core.Direct, "", core.Detour},
	{scenario.Purdue, scenario.OneDrive, core.Detour, scenario.UAlberta, core.Direct},
	{scenario.UCLA, scenario.GoogleDrive, core.Direct, "", core.Detour},
	{scenario.UCLA, scenario.Dropbox, core.Direct, "", core.Detour},
	{scenario.UCLA, scenario.OneDrive, core.Direct, "", core.Detour},
}

// pairWorldSeed derives a pair's world seed exactly as the evaluation
// suite does, so that seed 2015 reproduces the committed grids.
func pairWorldSeed(seed int64, client, provider string) int64 {
	h := int64(17)
	for _, s := range []string{client, provider} {
		for _, c := range s {
			h = h*131 + int64(c)
		}
	}
	return seed*1000003 + h
}

type gridPair struct {
	client, provider string
	w                *scenario.World
}

// gridRun is the paper-grid workload: the nine client×provider grids at
// the paper protocol, each pair in a fresh world.
type gridRun struct {
	seed  int64
	tr    *tracer
	pairs []gridPair
}

func setupGrid(seed int64, tr *tracer) instance {
	g := &gridRun{seed: seed, tr: tr}
	for _, c := range scenario.Clients {
		for _, p := range scenario.ProviderNames {
			g.pairs = append(g.pairs, gridPair{c, p, scenario.Build(pairWorldSeed(seed, c, p))})
		}
	}
	return g
}

func (g *gridRun) run() *outcome {
	o := &outcome{}
	grids := make([]*measure.Grid, len(g.pairs))
	for i, p := range g.pairs {
		id := g.tr.begin(spanGrid, p.client+">"+p.provider)
		grids[i] = measure.RunGrid(p.w, measure.GridSpec{
			Client: p.client, Provider: p.provider,
			SizesMB: fileutil.PaperSizesMB, Runs: 7, Keep: 5, Seed: g.seed,
		})
		g.tr.end(id)
	}
	for i, p := range g.pairs {
		gr := grids[i]
		if n := len(gr.Cells); n != len(fileutil.PaperSizesMB)*len(gr.Spec.Routes) {
			o.failf("%s>%s: %d cells", p.client, p.provider, n)
		}
		for _, c := range gr.Cells {
			if len(c.Runs) != gr.Spec.Runs {
				o.failf("%s>%s %dMB %s: %d runs", p.client, p.provider, c.SizeMB, c.Route, len(c.Runs))
			}
			for _, sec := range c.Runs {
				o.jobs++
				if !(sec > 0) {
					o.failed++
					o.failf("%s>%s %dMB %s: run took %v s", p.client, p.provider, c.SizeMB, c.Route, sec)
					continue
				}
				o.vs = append(o.vs, sec)
				o.bytes += float64(c.SizeMB) * fileutil.MB
			}
			o.lines = append(o.lines, fmt.Sprintf("%s>%s %d %s %s",
				p.client, p.provider, c.SizeMB, c.Route, fmtF(c.Summary.Mean)))
		}
		o.vsec += float64(p.w.Eng.Now())
		o.events += p.w.Eng.Processed()
	}
	if g.seed == paperSeed {
		g.checkTableI(grids, o)
	}
	return o
}

// checkTableI asserts each pair's overall winner and loser.
func (g *gridRun) checkTableI(grids []*measure.Grid, o *outcome) {
	for _, e := range tableI {
		for i, p := range g.pairs {
			if p.client != e.client || p.provider != e.provider {
				continue
			}
			fast, slow := grids[i].OverallFastest()
			if fast.Kind != e.fastest || (e.fastestVia != "" && fast.Via != e.fastestVia) {
				o.failf("Table I %s>%s: fastest %s", p.client, p.provider, fast)
			}
			if slow.Kind != e.slowest {
				o.failf("Table I %s>%s: slowest %s", p.client, p.provider, slow)
			}
		}
	}
}
