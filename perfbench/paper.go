package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"time"

	"sentinel/internal/exec"
	"sentinel/internal/experiment"
	"sentinel/internal/model"
	"sentinel/internal/policyset"
)

// The paper sweep is every default experiment at -quick -steps 3 with one
// pool worker and one shared cache: the configuration the golden tables in
// internal/experiment/testdata/golden pin byte for byte.
var benchArgs = []string{"-quick", "-steps", "3", "-workers", "1", "-progress=false"}

const (
	goldenDir = "internal/experiment/testdata/golden"
	// setupProbes is how many extra times a workload starts up, beyond
	// the start-ups its measured work needs, so setup_s is a median.
	setupProbes = 5
	// sweepTimeout bounds one sweep process; a quick sweep takes seconds.
	sweepTimeout = 150 * time.Second
	// minSweeps is how many sweeps paper-sweep runs however long they
	// take, so that its per-run figures are medians.
	minSweeps = 2
)

// loadGoldens reads the pinned table of every default experiment. The
// benchmark's per-experiment metrics are fixed, so a tree whose default
// experiments differ needs the benchmark re-pinned.
func loadGoldens() (map[string]string, error) {
	if ids := experiment.DefaultIDs(); !slices.Equal(ids, experimentIDs) {
		return nil, fmt.Errorf("default experiments %v differ from the benchmark's %v", ids, experimentIDs)
	}
	gold := map[string]string{}
	for _, id := range experimentIDs {
		b, err := os.ReadFile(filepath.Join(goldenDir, id+".golden"))
		if err != nil {
			return nil, err
		}
		gold[id] = string(b)
	}
	return gold, nil
}

// tookLine ends each experiment's text output from sentinel-bench.
var tookLine = regexp.MustCompile(`(?m)^\((\S+) took [^)\n]*\)\n\n`)

// checkBenchOutput compares sentinel-bench's text output, experiment by
// experiment, with the goldens; it returns how many tables matched.
func checkBenchOutput(stdout string, gold map[string]string) int {
	ok, prev := 0, 0
	for i, m := range tookLine.FindAllStringSubmatchIndex(stdout, -1) {
		id := stdout[m[2]:m[3]]
		if i < len(experimentIDs) && id == experimentIDs[i] && stdout[prev:m[0]] == gold[id]+"\n" {
			ok++
		}
		prev = m[1]
	}
	return ok
}

// sweepRun is one measured sweep process.
type sweepRun struct {
	setup, wall, cpu time.Duration
	rss              float64
}

// benchSweep runs the quick paper sweep through sentinel-bench and checks
// every table it prints.
func benchSweep(cfg *config, gold map[string]string, out *outcome) (sweepRun, error) {
	c, err := startChild(cfg, "sentinel-bench", benchArgs...)
	if err != nil {
		return sweepRun{}, err
	}
	var r sweepRun
	if t, ok := <-c.firstOut; ok {
		r.setup = t.Sub(c.start)
	}
	werr := c.wait(sweepTimeout)
	r.wall = c.wall()
	r.cpu, r.rss = c.usage()
	matched := 0
	if werr == nil {
		matched = checkBenchOutput(c.stdout.String(), gold)
	} else {
		out.notef("sentinel-bench failed: %v: %s", werr, lastLine(c.stderr.String()))
	}
	for i := range experimentIDs {
		out.check(i < matched)
	}
	return r, nil
}

// benchSetup starts sentinel-bench and stops it at its first table,
// returning the time that took.
func benchSetup(cfg *config) (time.Duration, error) {
	c, err := startChild(cfg, "sentinel-bench", benchArgs...)
	if err != nil {
		return 0, err
	}
	t, ok := <-c.firstOut
	c.kill()
	if !ok {
		return 0, fmt.Errorf("sentinel-bench printed nothing: %s", lastLine(c.stderr.String()))
	}
	return t.Sub(c.start), nil
}

// paperSweep is the paper-sweep workload: sentinel-bench regenerates
// every default table, sweep after sweep, each in a fresh process, until
// the run's time is up and at least minSweeps have run.
func paperSweep(cfg *config) (*outcome, error) {
	gold, err := loadGoldens()
	if err != nil {
		return nil, err
	}
	if cfg.traced {
		return paperTraced(cfg, gold)
	}
	out := newOutcome()
	var setups, walls, cpus, rss []float64
	for i := 0; i < setupProbes; i++ {
		d, err := benchSetup(cfg)
		if err != nil {
			return nil, err
		}
		setups = append(setups, secs(d))
	}
	start := now()
	for len(walls) < minSweeps || since(start) < cfg.seconds {
		r, err := benchSweep(cfg, gold, out)
		if err != nil {
			return nil, err
		}
		if r.setup > 0 {
			setups = append(setups, secs(r.setup))
		}
		walls = append(walls, secs(r.wall))
		cpus = append(cpus, secs(r.cpu))
		rss = append(rss, r.rss)
	}
	out.e2e["setup_s"] = median(setups)
	out.e2e["wall_s"] = median(walls)
	out.e2e["cpu_s"] = median(cpus)
	out.e2e["peak_rss_mib"] = median(rss)
	out.notef("paper-sweep: %d sweep(s), wall %v s", len(walls), walls)
	return out, nil
}

// paperTraced times each experiment of one in-process sweep (the same
// options sentinel-bench uses) and each table render, reads the shared
// cache's counters, probes the ILP and GA planners' runtime set-up, and
// runs the same sweep distributed. One untraced sentinel-bench sweep first
// gives the overhead baseline.
func paperTraced(cfg *config, gold map[string]string) (*outcome, error) {
	out := newOutcome()
	base, err := benchSweep(cfg, gold, out)
	if err != nil {
		return nil, err
	}
	tr := cfg.tr
	cache := experiment.NewCache()
	opts := experiment.Options{Steps: 3, Quick: true, Workers: 1, Cache: cache}
	start := now()
	root := tr.begin("sweep", 0, 1)
	var render time.Duration
	for _, id := range experimentIDs {
		sp := tr.begin("experiment.Run:"+id, root, 1)
		tb, err := experiment.Run(id, opts)
		out.layers["experiment."+id+"_s"] = secs(tr.end(sp))
		if err != nil {
			out.notef("%s: %v", id, err)
			out.check(false)
			continue
		}
		sp = tr.begin("experiment.Table.String", root, 1)
		text := tb.String()
		render += tr.end(sp)
		out.check(text == gold[id])
	}
	tr.end(root)
	wall := since(start)
	st := cache.Stats()
	out.layers["experiment.render_ms"] = millis(render)
	out.layers["experiment.cache_hits"] = float64(st.Hits)
	out.layers["experiment.cache_misses"] = float64(st.Misses)
	out.layers["experiment.singleflight_waits"] = float64(st.Waits)
	out.layers["trace.overhead_frac"] = secs(wall)/secs(base.wall) - 1

	for _, p := range []struct{ policy, metric string }{
		{"autotm", "ilp.autotm_setup_ms"}, {"swapadvisor", "ga.swapadvisor_setup_ms"},
	} {
		ms, err := plannerSetup(tr, p.policy)
		if err != nil {
			return nil, err
		}
		out.layers[p.metric] = ms
	}
	out.notef("paper-sweep traced: in-process sweep %.3f s, sentinel-bench sweep %.3f s", secs(wall), secs(base.wall))
	if err := distSweep(cfg, gold, out); err != nil {
		return nil, err
	}
	return out, nil
}

// plannerSetup is the median time exec.NewRuntime takes under policy — the
// planner's solve happens in the policy's Setup — over the paper's five
// evaluation models at their small batch, with the fast tier at half the
// model's peak memory.
func plannerSetup(tr *tracer, policy string) (float64, error) {
	var ms []float64
	for i, m := range model.EvalSet() {
		g, err := model.Build(m.Name, m.SmallBatch)
		if err != nil {
			return 0, err
		}
		spec, err := experiment.Platform("optane")
		if err != nil {
			return 0, err
		}
		spec = spec.WithFastSize(g.PeakMemory() / 2)
		p, err := policyset.New(policy)
		if err != nil {
			return 0, err
		}
		sp := tr.begin("exec.NewRuntime:"+policy, 0, 1000+i)
		_, err = exec.NewRuntime(g, spec, p)
		ms = append(ms, millis(tr.end(sp)))
		if err != nil {
			return 0, fmt.Errorf("%s on %s: %w", policy, m.Name, err)
		}
	}
	return median(ms), nil
}

// lastLine is the last non-empty line of s, for error messages.
func lastLine(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return lines[len(lines)-1]
}
