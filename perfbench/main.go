// Command perfbench is detournet's layered benchmark. One run executes
// one workload for a fixed wall-clock budget and prints every metric by
// name, unit and better direction; its last line is one JSON object
// with the keys correct, attempted, failed and metrics.
//
//	perfbench --workload fleet --seed 7 --seconds 20 --trace 0
//
// Workloads (see README.md): paper-grid, fleet, crash-restart. Every
// workload is a closed batch generated from the seed, drained by one
// scheduler worker on the virtual clock, so every virtual result is a
// pure function of the seed.
//
// Each iteration runs in a child process of its own, with one P: a
// simulated world keeps its server goroutines parked for the life of
// the process, so iterations sharing one process would inherit each
// other's heaps.
//
// With --trace 0 the run reports the end-to-end metrics from untraced
// iterations. With --trace 1 it alternates untraced and traced
// iterations of the same inputs: traced ones record spans around every
// call into a layer and take a CPU profile; the run reports the
// per-layer metrics and the tracing overhead, and the last traced
// iteration writes its spans as JSON lines under $CARGO_TARGET_DIR
// (default .bench_build). --selftest runs every workload once untraced
// and once traced, and fails unless their digests agree and the gates
// pass.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"detournet/internal/stats"
)

// workloadDef is one benchmark input family. warmSeed picks the seed of
// the untimed warm-up iteration.
type workloadDef struct {
	name     string
	setup    func(seed int64, tr *tracer) instance
	warmSeed func(seed int64) int64
}

var workloads = []workloadDef{
	// The warm-up runs the committed evaluation seed, so every run also
	// re-checks the paper's Table I labels.
	{"paper-grid", setupGrid, func(int64) int64 { return paperSeed }},
	{"fleet", setupFleet, func(s int64) int64 { return subSeed(s, 0) }},
	{"crash-restart", setupCrash, func(s int64) int64 { return subSeed(s, 0) }},
}

func workloadNamed(name string) (workloadDef, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workloadDef{}, false
}

// subSeeds is how many distinct inputs one run measures. Iteration i
// runs sub-seed i mod subSeeds (in trace mode, each sub-seed runs once
// untraced and then once traced), so a run averages over several
// generated inputs, and a sub-seed met twice must reproduce its digest.
const subSeeds = 8

func subSeed(seed int64, k int) int64 { return seed*subSeeds + int64(k) }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// spawn runs one iteration in a child process and waits for it.
func spawn(wl workloadDef, seed int64, traced bool, spansPath string) (*iteration, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"--child", "--workload", wl.name, "--seed", strconv.FormatInt(seed, 10)}
	if traced {
		args = append(args, "--trace", "1", "--spans", spansPath)
	}
	cmd := exec.Command(self, args...)
	// One P: the simulation runs one workload at a time, so a second P
	// only turns every goroutine hand-off into a cross-thread wake-up
	// and lets the result depend on how busy the host's other CPU is.
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s iteration at seed %d: %w", wl.name, seed, err)
	}
	var it iteration
	if err := json.Unmarshal(out, &it); err != nil {
		return nil, fmt.Errorf("%s iteration at seed %d: %w", wl.name, seed, err)
	}
	return &it, nil
}

// bench runs one workload for the wall-clock budget.
func bench(wl workloadDef, seed int64, seconds float64, trace bool) (*result, error) {
	res := &result{Correct: true, Metrics: map[string]metric{}}
	var errs []string
	ref := map[int64]string{} // input seed → digest
	account := func(it *iteration) {
		res.Attempted += it.Jobs
		if len(it.Errs) > 0 {
			res.Failed += it.Jobs
			res.Correct = false
			errs = append(errs, it.Errs...)
		} else {
			res.Failed += it.Failed
		}
		if d, ok := ref[it.Seed]; !ok {
			ref[it.Seed] = it.Digest
		} else if d != it.Digest {
			res.Correct = false
			errs = append(errs, fmt.Sprintf("seed %d: digest %s differs from %s (traced=%v)",
				it.Seed, it.Digest, d, it.Traced))
		}
	}

	warm, err := spawn(wl, wl.warmSeed(seed), false, "")
	if err != nil {
		return nil, err
	}
	account(warm)
	fmt.Printf("perfbench %s seed=%d trace=%v: warm-up at seed %d setup %.4fs wall %.3fs\n",
		wl.name, seed, trace, warm.Seed, warm.Setup, warm.Wall)

	spansPath := filepath.Join(buildDir(), fmt.Sprintf("spans-%s-seed%d.jsonl", wl.name, seed))
	if trace {
		if err := os.MkdirAll(buildDir(), 0o755); err != nil {
			return nil, err
		}
	}
	var iters []*iteration
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; ; i++ {
		k, traced := i%subSeeds, false
		if trace {
			k, traced = (i/2)%subSeeds, i%2 == 1
		}
		if time.Now().After(deadline) && len(iters) >= subSeeds && !traced {
			break
		}
		it, err := spawn(wl, subSeed(seed, k), traced, spansPath)
		if err != nil {
			return nil, err
		}
		account(it)
		iters = append(iters, it)
		fmt.Printf("  iteration %2d seed %d traced=%-5v setup %.4fs wall %.3fs live %.1fMB digest %s\n",
			i, it.Seed, traced, it.Setup, it.Wall, it.Live/1e6, it.Digest)
		for _, f := range it.Failures {
			fmt.Printf("    failed job %s\n", f)
		}
	}
	for i, e := range errs {
		if i == 20 {
			fmt.Printf("  ... %d more gate violations\n", len(errs)-i)
			break
		}
		fmt.Printf("  GATE: %s\n", e)
	}
	p := pooled(iters)
	fmt.Printf("digest %s over the run's inputs\n", p.Digest)
	if trace {
		perLayer(res, iters)
		fmt.Printf("spans of the last traced iteration: %s\n", spansPath)
	} else {
		endToEnd(res, iters, p)
	}
	return res, nil
}

// pooled merges the virtual outputs of each distinct input once; its
// digest hashes the inputs' digests.
func pooled(iters []*iteration) *iteration {
	p := &iteration{}
	seen := map[int64]bool{}
	o := &outcome{}
	for _, it := range iters {
		if seen[it.Seed] {
			continue
		}
		seen[it.Seed] = true
		p.Jobs += it.Jobs
		p.Failed += it.Failed
		p.VS = append(p.VS, it.VS...)
		p.Bytes += it.Bytes
		p.VSec += it.VSec
		p.Resent += it.Resent
		o.lines = append(o.lines, it.Digest)
	}
	p.Digest = o.digest()
	return p
}

// perInput reduces a host metric over a run: the median over each
// input's iterations, then the mean over the inputs, so every input
// weighs the same however many times it ran.
func perInput(iters []*iteration, traced bool, f func(*iteration) float64) float64 {
	by := map[int64][]float64{}
	var seeds []int64
	for _, it := range iters {
		if it.Traced != traced {
			continue
		}
		if by[it.Seed] == nil {
			seeds = append(seeds, it.Seed)
		}
		by[it.Seed] = append(by[it.Seed], f(it))
	}
	var sum float64
	for _, s := range seeds {
		sum += median(by[s])
	}
	return ratio(sum, float64(len(seeds)))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Median(xs)
}

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Quantile(xs, q)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func report(res *result, spec metricSpec, v float64) {
	res.Metrics[spec.Name] = metric{v, spec.Unit}
	fmt.Printf("  %-26s %14.6g %-8s (%s is better)\n", spec.Name, v, spec.Unit, spec.Better)
}

// endToEnd reports the end-to-end metrics of the untraced iterations.
// setup_s comes from the set-ups each of them repeats after its timed
// phase, so that it is a median over many samples from many processes.
func endToEnd(res *result, iters []*iteration, p *iteration) {
	var setups []*iteration
	for _, it := range iters {
		for _, s := range it.SetupReps {
			setups = append(setups, &iteration{Seed: it.Seed, Setup: s})
		}
	}
	v := map[string]float64{
		"setup_s": perInput(setups, false, func(it *iteration) float64 { return it.Setup }),
		"jobs_per_s": perInput(iters, false, func(it *iteration) float64 {
			return float64(it.Jobs-it.Failed) / it.Wall
		}),
		"alloc_mb":     perInput(iters, false, func(it *iteration) float64 { return it.Alloc / 1e6 }),
		"heap_live_mb": perInput(iters, false, func(it *iteration) float64 { return it.Live / 1e6 }),
		"goodput_mbps": ratio(p.Bytes, p.VSec) / 1e6,
		"job_vs_p50":   quantile(p.VS, 0.5),
		"job_vs_p99":   quantile(p.VS, 0.99),
	}
	for _, spec := range endToEndSpec {
		report(res, spec, v[spec.Name])
	}
	fmt.Printf("  job_vs samples %d (%d beyond p99); failed %d of %d; resent %.1f MB\n",
		len(p.VS), len(p.VS)-int(float64(len(p.VS))*0.99+0.5), p.Failed, p.Jobs, p.Resent/1e6)
}

// perLayer reports, per metric, the median over traced iterations,
// plus the CPU profile split, the runtime's GC figures from the
// untraced iterations and the tracing overhead.
func perLayer(res *result, iters []*iteration) {
	vals := map[string][]float64{}
	cpu := map[string]float64{}
	var total float64
	for _, it := range iters {
		if !it.Traced {
			continue
		}
		for k, v := range it.Layers {
			vals[k] = append(vals[k], v)
		}
		for k, v := range it.CPULayers {
			cpu[k] += v
			total += v
		}
	}
	v := map[string]float64{}
	for k, xs := range vals {
		v[k] = median(xs)
	}
	for _, l := range cpuLayers {
		v["cpu."+l] = ratio(cpu[l], total)
	}
	untraced := perInput(iters, false, func(it *iteration) float64 { return it.Wall })
	traced := perInput(iters, true, func(it *iteration) float64 { return it.Wall })
	v["trace.overhead_s"] = traced - untraced
	v["trace.overhead_frac"] = ratio(traced-untraced, untraced)
	v["simclock.events_per_s"] = perInput(iters, false, func(it *iteration) float64 {
		return float64(it.Events) / it.Wall
	})
	v["sim.vsec_per_s"] = perInput(iters, false, func(it *iteration) float64 { return it.VSec / it.Wall })
	v["runtime.gc_cpu_frac"] = perInput(iters, false, func(it *iteration) float64 { return ratio(it.GCCPU, it.TotCPU) })
	v["runtime.gc_cycles"] = perInput(iters, false, func(it *iteration) float64 { return it.GCCycles })
	v["runtime.alloc_kb_per_job"] = perInput(iters, false, func(it *iteration) float64 {
		return ratio(it.Alloc/1024, float64(it.Jobs))
	})
	for _, spec := range perLayerSpec {
		report(res, spec, v[spec.Name])
	}
}

// buildDir is where the runner script builds and a traced run writes
// its span dump, inside the checkout.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

func main() {
	name := flag.String("workload", "", "workload name: paper-grid, fleet or crash-restart")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "wall-clock seconds to measure")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from traced iterations")
	selftest := flag.Bool("selftest", false, "check traced and untraced digests agree on every workload")
	child := flag.Bool("child", false, "run one iteration at --seed and print it as JSON (internal)")
	spans := flag.String("spans", "", "span dump path of a traced child iteration (internal)")
	flag.Parse()

	if *selftest {
		os.Exit(runSelftest(*seed))
	}
	wl, ok := workloadNamed(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *child {
		it, err := iterate(wl, *seed, *trace == 1, *spans)
		if err == nil {
			err = json.NewEncoder(os.Stdout).Encode(it)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	res, err := bench(wl, *seed, *seconds, *trace == 1)
	if err == nil {
		var line []byte
		if line, err = json.Marshal(res); err == nil {
			fmt.Println(string(line))
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// runSelftest runs one untraced and one traced iteration of every
// workload at the seed and fails unless each pair's digests agree and
// every gate passes, and unless BENCHMARK.json matches the program.
func runSelftest(seed int64) int {
	code := 0
	for _, wl := range workloads {
		plain, err := spawn(wl, seed, false, "")
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		traced, err := spawn(wl, seed, true, "")
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		status := "ok"
		if plain.Digest != traced.Digest || len(plain.Errs)+len(traced.Errs) > 0 {
			status, code = "FAIL", 1
		}
		fmt.Printf("selftest %-14s untraced %s traced %s gates %d/%d %s\n", wl.name,
			plain.Digest, traced.Digest, len(plain.Errs), len(traced.Errs), status)
	}
	if err := checkSpecFile("BENCHMARK.json"); err != nil {
		fmt.Printf("selftest BENCHMARK.json: %v\n", err)
		code = 1
	}
	return code
}
