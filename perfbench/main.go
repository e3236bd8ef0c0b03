// Command perfbench is the repository's end-to-end benchmark. It runs one
// seeded workload against programs built from the checkout it is started
// in, checks every output against references from the tree, and prints one
// JSON result line:
//
//	perfbench -workload paper-sweep -seed 1 -seconds 10 -trace 0
//
// Workloads (see METRICS.md for why each exists and what it loads):
//
//	paper-sweep  the quick paper sweep through sentinel-bench, one pool worker
//	cell-stream  a closed loop of distinct cells through experiment.RunCell
//	serve-lo     an open loop against sentinel-serve at the low fixed rate
//	serve-hi     the same open loop at the high fixed rate
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1 it
// carries the per-layer metrics of a traced run, whose spans are written to
// the -tmp directory at exit. run.sh builds the binaries and calls this.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"
)

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds time.Duration
	traced  bool
	bin     string // directory holding sentinel-bench, -serve, -sweep
	tmp     string // scratch directory inside the checkout
	tr      *tracer
}

// workload runs one benchmark workload and returns its outcome.
type workload func(cfg *config) (*outcome, error)

var workloads = map[string]workload{
	"paper-sweep": paperSweep,
	"cell-stream": cellStream,
	"serve-lo":    func(cfg *config) (*outcome, error) { return serveOpen(cfg, loRate) },
	"serve-hi":    func(cfg *config) (*outcome, error) { return serveOpen(cfg, hiRate) },
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 10, "measurement length in seconds")
		traced  = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		bin     = flag.String("bin", "", "directory of the built sentinel binaries")
		tmp     = flag.String("tmp", "", "scratch directory inside the checkout")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		fail(fmt.Errorf("unknown workload %q (known: %v)", *name, workloadNames()))
	}
	if *bin == "" || *tmp == "" || *seconds < 1 {
		fail(fmt.Errorf("-bin and -tmp are required and -seconds must be positive"))
	}
	// No program under test may outlive the benchmark: children run in
	// their own process groups, so stop them on a signal or a panic.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sigs
		fail(fmt.Errorf("stopped by %v", s))
	}()
	defer func() {
		if r := recover(); r != nil {
			stopChildren()
			panic(r)
		}
	}()
	cfg := &config{seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		traced: *traced == 1, bin: *bin, tmp: *tmp}
	if cfg.traced {
		cfg.tr = newTracer()
	}
	out, err := w(cfg)
	stopChildren()
	if err != nil {
		fail(err)
	}
	if cfg.tr != nil {
		path := fmt.Sprintf("%s/spans-%s-%d.jsonl", cfg.tmp, *name, *seed)
		if err := cfg.tr.write(path); err != nil {
			fail(err)
		}
	}
	for _, line := range out.notes {
		fmt.Println(line)
	}
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: map[string]metric{}}
	names := endToEnd
	vals := out.e2e
	if cfg.traced {
		names, vals = perLayer, out.layers
	}
	for _, m := range names {
		res.Metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
	}
	if res.Attempted < 1 {
		fail(fmt.Errorf("workload %s attempted nothing", *name))
	}
	b, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(b))
}

func fail(err error) {
	stopChildren()
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// outcome is what a workload measured: operations attempted and failed
// (an error, a refusal, a timeout or a wrong output each count once), the
// end-to-end values of an untraced run or the per-layer values of a traced
// one, and human-readable notes printed before the result line.
type outcome struct {
	attempted, failed int
	e2e               map[string]float64
	layers            map[string]float64
	notes             []string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
}

// check records one checked operation.
func (o *outcome) check(ok bool) {
	o.attempted++
	if !ok {
		o.failed++
	}
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}
