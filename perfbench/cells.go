package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"time"

	"sentinel/internal/baseline"
	"sentinel/internal/exec"
	"sentinel/internal/experiment"
	"sentinel/internal/metrics"
	"sentinel/internal/model"
	"sentinel/internal/policyset"
)

// Cells are drawn from every zoo model at batch 8-64, the policies that
// plan without a solver (the ILP and GA baselines are served elsewhere),
// and a fast tier at 10-90% of the model's peak memory.
var (
	cellPolicies = []string{"sentinel", "sentinel-direct", "sentinel-detmi", "ial",
		"first-touch", "memory-mode", "um", "vdnn", "capuchin", "fast-only", "slow-only"}
	cellBatches = []int{8, 16, 32, 64}
	cellPcts    = []float64{10, 20, 30, 40, 50, 60, 70, 80, 90}
)

// cellPopulation returns every supported cell of the space above, each
// once, in a seeded order balanced so that any stretch of the stream has
// nearly the same mix: each run of len(models) cells covers every model,
// policies rotate across models, and each (model, policy) pair takes its
// batch and fast-tier size from its own seeded permutation, block after
// block. vDNN does not support recursive architectures, so those pairs are
// left out rather than sent to fail.
func cellPopulation(seed int64) []experiment.CellRequest {
	rng := rand.New(rand.NewSource(seed))
	models := model.Names()
	policies := append([]string(nil), cellPolicies...)
	rng.Shuffle(len(models), func(i, j int) { models[i], models[j] = models[j], models[i] })
	rng.Shuffle(len(policies), func(i, j int) { policies[i], policies[j] = policies[j], policies[i] })
	variants := len(cellBatches) * len(cellPcts)
	perm := map[[2]string][]int{}
	for _, m := range models {
		for _, p := range policies {
			perm[[2]string{m, p}] = rng.Perm(variants)
		}
	}
	var cells []experiment.CellRequest
	for block := 0; block < variants; block++ {
		for round := range policies {
			for j, m := range models {
				p := policies[(j+round)%len(policies)]
				if p == "vdnn" && !baseline.Supported(m) {
					continue
				}
				v := perm[[2]string{m, p}][block]
				r := experiment.CellRequest{Model: m, Batch: cellBatches[v/len(cellPcts)], Policy: p,
					FastPct: cellPcts[v%len(cellPcts)]}.Normalized()
				if r.Validate() == nil {
					cells = append(cells, r)
				}
			}
		}
	}
	return cells
}

// passCells is how many cells share one fresh cache: the stream runs in
// passes so the cache, and with it the process's memory, stays the same
// size however many cells a run completes.
const passCells = 1000

// cellStream is the cell-stream workload: one caller runs distinct cells
// back to back through experiment.RunCell, a fresh cache per pass of
// passCells cells, until the run's time is up. After each pass, outside
// the timed window, every result is checked against the cache-free
// decomposed path (model.Build, exec.NewRuntime, RunStep per step).
func cellStream(cfg *config) (*outcome, error) {
	out := newOutcome()
	var pop []experiment.CellRequest
	var setups []float64
	for i := 0; i <= setupProbes; i++ {
		t0 := now()
		pop = cellPopulation(cfg.seed)
		setups = append(setups, secs(since(t0)))
	}
	if cfg.traced {
		return cellTraced(cfg, pop, out)
	}
	var lat []float64
	var timed, cpu time.Duration
	for next := 0; next < len(pop) && (next == 0 || timed < cfg.seconds); {
		pass := pop[next:min(next+passCells, len(pop))]
		cpu0, _ := selfUsage()
		got, plat, elapsed := runCells(cfg.seconds-timed, pass, experiment.Options{Workers: 1, Cache: experiment.NewCache()})
		cpu1, _ := selfUsage()
		timed += elapsed
		cpu += cpu1 - cpu0
		lat = append(lat, plat...)
		for i, r := range got {
			ref, err := decomposed(nil, 0, pass[i], nil)
			out.check(r != nil && err == nil && reflect.DeepEqual(ref, r))
		}
		next += len(got)
	}
	_, rss := selfUsage()
	out.e2e["setup_s"] = median(setups)
	out.e2e["wall_s"] = median(lat) / 1e3
	out.e2e["cpu_s"] = secs(cpu) / float64(len(lat))
	out.e2e["peak_rss_mib"] = rss
	out.notes = append(out.notes, describe("cell latency", lat),
		fmt.Sprintf("cell-stream: %d cells in %.3f s, %.1f cells/s", len(lat), secs(timed),
			float64(len(lat))/secs(timed)))
	return out, nil
}

// runCells runs cells in order through experiment.RunCell until they are
// done or budget has passed, returning each cell's stats (nil on error),
// its latency in milliseconds, and the time taken.
func runCells(budget time.Duration, cells []experiment.CellRequest, opts experiment.Options) ([]*metrics.RunStats, []float64, time.Duration) {
	var got []*metrics.RunStats
	var lat []float64
	start := now()
	for i := 0; i < len(cells) && (i == 0 || since(start) < budget); i++ {
		t0 := now()
		r, err := experiment.RunCell(opts, cells[i])
		lat = append(lat, millis(since(t0)))
		if err != nil {
			r = nil
		}
		got = append(got, r)
	}
	return got, lat, since(start)
}

// stepAcc accumulates the steady (last) step's host time and op count.
type stepAcc struct {
	ns  time.Duration
	ops int
}

// decomposed runs one cell through the public path RunCell wraps —
// model.Build, exec.NewRuntime, then RunStep once per step — with no cache
// and a private graph, recording a span around each call. The first step
// of a Sentinel-family policy is its profiling step and is named for core.
func decomposed(tr *tracer, group int, r experiment.CellRequest, acc *stepAcc) (*metrics.RunStats, error) {
	r = r.Normalized()
	root := tr.begin("cell", 0, group)
	defer tr.end(root)
	sp := tr.begin("model.Build", root, group)
	g, err := model.Build(r.Model, r.Batch)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	spec, err := experiment.Platform(r.Platform)
	if err != nil {
		return nil, err
	}
	if r.FastPct > 0 {
		spec = spec.WithFastSize(int64(r.FastPct / 100 * float64(g.PeakMemory())))
	}
	p, err := policyset.New(r.Policy)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("exec.NewRuntime", root, group)
	rt, err := exec.NewRuntime(g, spec, p)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	for i := 0; i < r.Steps; i++ {
		name := "exec.RunStep"
		if i == 0 && strings.HasPrefix(r.Policy, "sentinel") {
			name = "core.profile_step"
		}
		sp = tr.begin(name, root, group)
		t0 := now()
		_, err := rt.RunStep()
		d := since(t0)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		if acc != nil && i == r.Steps-1 {
			acc.ns += d
			acc.ops += len(g.Ops)
		}
	}
	return rt.Run(), nil
}

// cellTraced drives the stream through the decomposed path with spans for
// the run's time, then runs the same cells untraced through RunCell, a
// fresh cache per pass as in the untraced workload, and requires equal
// stats.
func cellTraced(cfg *config, pop []experiment.CellRequest, out *outcome) (*outcome, error) {
	tr := cfg.tr
	var tlat, ulat []float64
	var acc stepAcc
	var untimed time.Duration
	start := now()
	for next := 0; next < len(pop) && (next == 0 || since(start)-untimed < cfg.seconds); {
		pass := pop[next:min(next+passCells, len(pop))]
		var traced []*metrics.RunStats
		for i := 0; i < len(pass) && (i == 0 || since(start)-untimed < cfg.seconds); i++ {
			t0 := now()
			r, err := decomposed(tr, next+i+1, pass[i], &acc)
			tlat = append(tlat, millis(since(t0)))
			if err != nil {
				r = nil
			}
			traced = append(traced, r)
		}
		t0 := now()
		got, plat, _ := runCells(24*time.Hour, pass[:len(traced)],
			experiment.Options{Workers: 1, Cache: experiment.NewCache()})
		untimed += since(t0)
		ulat = append(ulat, plat...)
		for i, r := range got {
			out.check(r != nil && traced[i] != nil && reflect.DeepEqual(r, traced[i]))
		}
		next += len(traced)
	}
	self := tr.selfTime()
	out.layers["model.build_s"] = secs(self["model.Build"])
	out.layers["model.builds"] = float64(tr.count("model.Build"))
	out.layers["exec.runtime_s"] = secs(self["exec.NewRuntime"])
	out.layers["exec.step_s"] = secs(self["exec.RunStep"])
	out.layers["exec.steps"] = float64(tr.count("exec.RunStep"))
	out.layers["core.profile_step_s"] = secs(self["core.profile_step"])
	if acc.ops > 0 {
		out.layers["exec.host_ns_per_op"] = float64(acc.ns.Nanoseconds()) / float64(acc.ops)
	}
	out.layers["cell.p50_ms"] = median(ulat)
	out.layers["cell.tail_ms"], _, _, _ = tail(ulat)
	out.layers["cell.cells_per_s"] = float64(len(ulat)) / (sum(ulat) / 1e3)
	out.layers["trace.overhead_frac"] = sum(tlat)/sum(ulat) - 1
	out.notes = append(out.notes, describe("traced cell latency", tlat), describe("untraced cell latency", ulat))
	return out, nil
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
