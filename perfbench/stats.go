package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run. Every workload reports each
// of them, per unit of its work: a sweep (paper-sweep), a cell
// (cell-stream) or a request (serve-lo, serve-hi).
var endToEnd = []metricDef{
	{"setup_s", "s"},        // median time from workload start to its first timed operation
	{"wall_s", "s"},         // median host time of one unit of work
	{"cpu_s", "s"},          // CPU time of the working processes per unit of work
	{"peak_rss_mib", "MiB"}, // peak resident set of the working processes
}

// experimentIDs are the default paper experiments, each timed by the
// traced paper sweep.
var experimentIDs = []string{
	"table1", "table2", "characterization", "fig5", "fig7", "fig8", "fig9",
	"fig10", "fig11", "table3", "table4", "fig12", "fig13", "table5",
	"robustness", "online-robustness",
}

// perLayer are the metrics of a traced run. Each traced run reports all of
// them; a layer the workload does not exercise reads 0.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, id := range experimentIDs {
		defs = append(defs, metricDef{"experiment." + id + "_s", "s"})
	}
	return append(defs, []metricDef{
		{"experiment.render_ms", "ms"},
		{"experiment.cache_hits", "count"},
		{"experiment.cache_misses", "count"},
		{"experiment.singleflight_waits", "count"},
		{"ilp.autotm_setup_ms", "ms"},
		{"ga.swapadvisor_setup_ms", "ms"},
		{"model.build_s", "s"},
		{"model.builds", "count"},
		{"exec.runtime_s", "s"},
		{"exec.step_s", "s"},
		{"exec.steps", "count"},
		{"exec.host_ns_per_op", "ns"},
		{"core.profile_step_s", "s"},
		{"cell.p50_ms", "ms"},
		{"cell.tail_ms", "ms"},
		{"cell.cells_per_s", "1/s"},
		{"serve.p50_ms", "ms"},
		{"serve.tail_ms", "ms"},
		{"serve.simulate_p50_ms", "ms"},
		{"serve.simulate_tail_ms", "ms"},
		{"serve.plan_p50_ms", "ms"},
		{"serve.plan_tail_ms", "ms"},
		{"serve.autotm_p50_ms", "ms"},
		{"serve.experiment_p50_ms", "ms"},
		{"serve.cache_hit_ratio", "ratio"},
		{"serve.queued_max", "count"},
		{"serve.rejected", "count"},
		{"gen.late_p99_ms", "ms"},
		{"dist.sweep_s", "s"},
		{"dist.leases_granted", "count"},
		{"dist.leases_expired", "count"},
		{"dist.reassigned", "count"},
		{"dist.shard_max_s", "s"},
		{"dist.shard_min_s", "s"},
		{"dist.merge_s", "s"},
		{"dist.poll_ms", "ms"},
		{"dist.useful_frac", "ratio"},
		{"trace.overhead_frac", "ratio"},
	}...)
}()

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// tail is the highest percentile a sample set supports: p99 with at least
// 1,000 samples, otherwise the highest percentile that leaves at least ten
// samples above it. It returns the value, the percentile used and the
// number of samples above it; ok is false when fewer than 11 samples exist.
func tail(xs []float64) (v, q float64, beyond int, ok bool) {
	n := len(xs)
	if n < 11 {
		return 0, 0, 0, false
	}
	q = 0.99
	if n < 1000 {
		q = float64(n-10) / float64(n)
	}
	k := int(math.Ceil(q*float64(n))) - 1
	return quantile(xs, q), q, n - 1 - k, true
}

// describe renders a latency sample set as "p50 X ms, pQQ Y ms (n=N, M above)".
func describe(label string, ms []float64) string {
	if len(ms) == 0 {
		return label + ": no samples"
	}
	s := fmt.Sprintf("%s: p50 %.3f ms (n=%d)", label, median(ms), len(ms))
	if v, q, beyond, ok := tail(ms); ok {
		s += fmt.Sprintf(", p%g %.3f ms (%d samples above)", math.Round(q*1000)/10, v, beyond)
	}
	return s
}

// now and since are the harness's only reads of the wall clock. The
// benchmark measures host time by definition; no simulated quantity
// depends on it.
func now() time.Time {
	//lint:allow determinism: the benchmark harness measures host wall-clock time; simulations never read it
	return time.Now()
}

func since(t time.Time) time.Duration {
	//lint:allow determinism: the benchmark harness measures host wall-clock time; simulations never read it
	return time.Since(t)
}

func secs(d time.Duration) float64   { return d.Seconds() }
func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// tracer records spans around calls into the program's packages: name,
// start, end, the span that caused it, and the id shared by every span of
// one cell, request or sweep. Spans stay in memory until write. A nil
// tracer records nothing, so traced and untraced runs share one code path.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a root span
	Group  int     `json:"group"`  // cell, request or sweep id
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

func newTracer() *tracer { return &tracer{t0: now()} }

func (t *tracer) now() float64 { return float64(since(t.t0).Nanoseconds()) / 1e3 }

// begin opens a span and returns its id (0 when t is nil).
func (t *tracer) begin(name string, parent, group int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Group: group,
		Name: name, Start: t.now()})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = t.now()
	return time.Duration((s.End - s.Start) * 1e3)
}

// record adds an already-measured span, for work observed rather than
// called (a request in flight, a shard attempt).
func (t *tracer) record(name string, parent, group int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	us := func(at time.Time) float64 { return float64(at.Sub(t.t0).Nanoseconds()) / 1e3 }
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Group: group,
		Name: name, Start: us(start), End: us(end)})
	return len(t.spans)
}

// selfTime sums, per span name, each span's duration minus the part of it
// its child spans cover.
func (t *tracer) selfTime() map[string]time.Duration {
	out := map[string]time.Duration{}
	if t == nil {
		return out
	}
	child := make([]float64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for _, s := range t.spans {
		self := s.End - s.Start - child[s.ID]
		out[s.Name] += time.Duration(self * 1e3)
	}
	return out
}

// count returns how many spans carry name.
func (t *tracer) count(name string) int {
	n := 0
	if t != nil {
		for _, s := range t.spans {
			if s.Name == name {
				n++
			}
		}
	}
	return n
}

// write saves every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
