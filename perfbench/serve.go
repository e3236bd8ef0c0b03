package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"sentinel/internal/experiment"
	"sentinel/internal/metrics"
	"sentinel/internal/model"
)

// The open loop's two fixed rates, in requests per second: about a fifth
// and two fifths of what two connections sustain closed-loop against a
// fresh server when every request misses its cache (about 500 req/s on a
// 2-vCPU Xeon; this mix, half repeats, sustains about 800). They are
// frozen so a later change is measured at the same offered load.
const (
	loRate = 100
	hiRate = 200
	// conns is the number of client connections (and busy client
	// goroutines) the open loop uses.
	conns = 2
	// requestTimeout fails a request that has not completed in time.
	requestTimeout = 10 * time.Second
)

// The request mix, per block of 50 requests in seeded order: mostly
// cells, a fifth plans, two AutoTM cells (whose ILP solve is the slowest
// thing the server does) and one quick paper experiment. Every second
// request of a kind repeats an earlier request of that kind, so about
// half the traffic can be served from the server's cache.
var requestMix = []struct {
	kind  string
	count int
}{
	{"simulate", 37}, {"plan", 10}, {"autotm", 2}, {"experiment", 1},
}

// AutoTM cells use the models whose ILP solves in tens of milliseconds.
var (
	autotmModels = []string{"dcgan", "vgg16", "unet", "lstm", "mobilenet", "inception", "bert-base", "resnet20", "resnet50"}
	autotmPcts   = []float64{30, 50, 70}
	serveExps    = []string{"fig10", "fig5"}
)

// request is one generated API call.
type request struct {
	kind string
	key  string // identifies the request; repeats share it
	path string
	body []byte // nil for GET
	cell experiment.CellRequest
	plan experiment.PlanRequest
	exp  string
}

// requestPopulation generates n requests from seed.
func requestPopulation(seed int64, n int) []request {
	rng := rand.New(rand.NewSource(seed))
	cells := cellPopulation(seed)
	var plans []experiment.PlanRequest
	for _, m := range model.Names() {
		for _, b := range cellBatches {
			plans = append(plans, experiment.PlanRequest{Model: m, Batch: b})
		}
	}
	rng.Shuffle(len(plans), func(i, j int) { plans[i], plans[j] = plans[j], plans[i] })
	// AutoTM cells cycle through the models, each model through its own
	// seeded order of batch 8-32 and fast-tier sizes.
	var autotm []experiment.CellRequest
	models := append([]string(nil), autotmModels...)
	rng.Shuffle(len(models), func(i, j int) { models[i], models[j] = models[j], models[i] })
	variants := 3 * len(autotmPcts)
	perm := map[string][]int{}
	for _, m := range models {
		perm[m] = rng.Perm(variants)
	}
	for i := 0; i < variants*len(models); i++ {
		m := models[i%len(models)]
		v := perm[m][i/len(models)]
		autotm = append(autotm, experiment.CellRequest{Model: m, Batch: cellBatches[v/len(autotmPcts)],
			Policy: "autotm", FastPct: autotmPcts[v%len(autotmPcts)]})
	}

	fresh := map[string]func(i int) (request, bool){
		"simulate": func(i int) (request, bool) {
			if i >= len(cells) {
				return request{}, false
			}
			return cellRequest("simulate", cells[i]), true
		},
		"autotm": func(i int) (request, bool) {
			if i >= len(autotm) {
				return request{}, false
			}
			return cellRequest("autotm", autotm[i]), true
		},
		"plan": func(i int) (request, bool) {
			if i >= len(plans) {
				return request{}, false
			}
			p := plans[i]
			body, _ := json.Marshal(p) // a struct of strings and ints always marshals
			return request{kind: "plan", key: fmt.Sprintf("plan|%s|%d", p.Model, p.Batch),
				path: "/v1/plan", body: body, plan: p}, true
		},
		"experiment": func(i int) (request, bool) {
			if i >= len(serveExps) {
				return request{}, false
			}
			id := serveExps[i]
			return request{kind: "experiment", key: "exp|" + id,
				path: "/v1/experiment?id=" + id + "&quick=true&steps=3", exp: id}, true
		},
	}
	var block []string
	for _, m := range requestMix {
		for i := 0; i < m.count; i++ {
			block = append(block, m.kind)
		}
	}
	seen := map[string][]request{}
	count := map[string]int{}
	out := make([]request, 0, n)
	for len(out) < n {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, kind := range block {
			prev := seen[kind]
			count[kind]++
			r, ok := fresh[kind](len(prev))
			if len(prev) > 0 && (count[kind]%2 == 0 || !ok) {
				r = prev[rng.Intn(len(prev))]
			} else {
				seen[kind] = append(prev, r)
			}
			out = append(out, r)
		}
	}
	return out[:n]
}

func cellRequest(kind string, c experiment.CellRequest) request {
	body, _ := json.Marshal(c) // a plain request struct always marshals
	return request{kind: kind, path: "/v1/simulate", body: body, cell: c,
		key: fmt.Sprintf("%s|%s|%d|%s|%g", kind, c.Model, c.Batch, c.Policy, c.FastPct)}
}

// sample is one request's fate in the open loop.
type sample struct {
	due, done time.Time
	status    int
	body      []byte
	err       error
}

// latency is the time from when the request was due to its completion.
func (s sample) latency() time.Duration { return s.done.Sub(s.due) }

// server is a running sentinel-serve.
type server struct {
	c    *child
	base string
}

// startServer starts sentinel-serve on a free loopback port and waits
// for /readyz, returning the time until it answered.
func startServer(cfg *config) (*server, time.Duration, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := l.Addr().String()
	l.Close()
	c, err := startChild(cfg, "sentinel-serve", "-addr", addr, "-workers", "1",
		"-max-inflight", strconv.Itoa(conns), "-queue", "64")
	if err != nil {
		return nil, 0, err
	}
	s := &server{c: c, base: "http://" + addr}
	probe := &http.Client{Timeout: time.Second}
	for {
		resp, err := probe.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining a probe
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				probe.CloseIdleConnections()
				return s, since(c.start), nil
			}
		}
		select {
		case <-c.done:
			return nil, 0, fmt.Errorf("sentinel-serve exited before ready: %s", lastLine(c.stderr.String()))
		case <-time.After(time.Millisecond):
		}
		if since(c.start) > 30*time.Second {
			c.kill()
			return nil, 0, fmt.Errorf("sentinel-serve not ready after 30s")
		}
	}
}

// stop drains the server (SIGTERM) and returns its CPU time and peak RSS.
func (s *server) stop() (time.Duration, float64, error) {
	if err := s.c.terminate(30 * time.Second); err != nil {
		return 0, 0, fmt.Errorf("sentinel-serve shutdown: %v: %s", err, lastLine(s.c.stderr.String()))
	}
	cpu, rss := s.c.usage()
	return cpu, rss, nil
}

// openLoop sends reqs at rate per second over conns connections, each
// request due at a fixed offset from the start whether or not earlier ones
// have finished. It returns every request's sample and how late the
// generator released each request, in milliseconds.
func openLoop(base string, reqs []request, rate float64, scrape func()) ([]sample, []float64) {
	client := &http.Client{Timeout: requestTimeout, Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}}
	defer client.CloseIdleConnections()
	samples := make([]sample, len(reqs))
	late := make([]float64, len(reqs))
	jobs := make(chan int, len(reqs))
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				samples[i].status, samples[i].body, samples[i].err = send(client, base, reqs[i])
				samples[i].done = now()
			}
		}()
	}
	period := time.Duration(float64(time.Second) / rate)
	start := now().Add(10 * time.Millisecond)
	nextScrape := start
	for i := range reqs {
		due := start.Add(time.Duration(i) * period)
		if scrape != nil && !due.Before(nextScrape) {
			scrape()
			nextScrape = nextScrape.Add(50 * time.Millisecond)
		}
		time.Sleep(time.Until(due))
		samples[i].due = due
		late[i] = millis(since(due))
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return samples, late
}

func send(client *http.Client, base string, r request) (int, []byte, error) {
	method, body := http.MethodGet, io.Reader(nil)
	if r.body != nil {
		method, body = http.MethodPost, bytes.NewReader(r.body)
	}
	req, err := http.NewRequest(method, base+r.path, body)
	if err != nil {
		return 0, nil, err
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// serveOpen is the serve-lo / serve-hi workload: a fresh sentinel-serve
// receives the seeded request population at a fixed rate for the run's
// length; every response is then checked against a sequential, cache-free
// reference computed in this process.
func serveOpen(cfg *config, rate float64) (*outcome, error) {
	out := newOutcome()
	reqs := requestPopulation(cfg.seed, int(rate*cfg.seconds.Seconds()))
	if cfg.traced {
		return serveTraced(cfg, rate, reqs, out)
	}
	var setups []float64
	for i := 0; i < setupProbes; i++ {
		s, d, err := startServer(cfg)
		if err != nil {
			return nil, err
		}
		setups = append(setups, secs(d))
		if _, _, err := s.stop(); err != nil {
			return nil, err
		}
	}
	s, d, err := startServer(cfg)
	if err != nil {
		return nil, err
	}
	setups = append(setups, secs(d))
	samples, late := openLoop(s.base, reqs, rate, nil)
	cpu, rss, err := s.stop()
	if err != nil {
		return nil, err
	}
	if err := checkResponses(reqs, samples, out); err != nil {
		return nil, err
	}
	lat := latencies(samples, nil)
	out.e2e["setup_s"] = median(setups)
	out.e2e["wall_s"] = median(lat) / 1e3
	out.e2e["cpu_s"] = secs(cpu) / float64(len(reqs))
	out.e2e["peak_rss_mib"] = rss
	out.notes = append(out.notes, describe(fmt.Sprintf("request latency at %g/s", rate), lat),
		describe("generator lateness", late))
	return out, nil
}

// serveTraced runs the open loop twice on fresh servers: untraced, then
// with spans per request and /metrics scraped every 50 ms. It reports
// per-endpoint latency, the server's own counters, and the overhead.
func serveTraced(cfg *config, rate float64, reqs []request, out *outcome) (*outcome, error) {
	s, _, err := startServer(cfg)
	if err != nil {
		return nil, err
	}
	base, _ := openLoop(s.base, reqs, rate, nil)
	if _, _, err := s.stop(); err != nil {
		return nil, err
	}
	if s, _, err = startServer(cfg); err != nil {
		return nil, err
	}
	scrapeClient := &http.Client{Timeout: time.Second}
	var queuedMax float64
	scrape := func() {
		if m, err := scrapeMetrics(scrapeClient, s.base); err == nil && m["sentinel_admission_admitted"] > queuedMax {
			queuedMax = m["sentinel_admission_admitted"]
		}
	}
	samples, late := openLoop(s.base, reqs, rate, scrape)
	final, err := scrapeMetrics(scrapeClient, s.base)
	scrapeClient.CloseIdleConnections()
	if err != nil {
		return nil, err
	}
	if _, _, err := s.stop(); err != nil {
		return nil, err
	}
	if err := checkResponses(reqs, samples, out); err != nil {
		return nil, err
	}
	for i, smp := range samples {
		cfg.tr.record("serve:"+reqs[i].kind, 0, i+1, smp.due, smp.done)
	}
	lat := latencies(samples, nil)
	byKind := func(kind string) []float64 {
		return latencies(samples, func(i int) bool { return reqs[i].kind == kind })
	}
	tailOf := func(xs []float64) float64 { v, _, _, _ := tail(xs); return v }
	out.layers["serve.p50_ms"] = median(lat)
	out.layers["serve.tail_ms"] = tailOf(lat)
	out.layers["serve.simulate_p50_ms"] = median(byKind("simulate"))
	out.layers["serve.simulate_tail_ms"] = tailOf(byKind("simulate"))
	out.layers["serve.plan_p50_ms"] = median(byKind("plan"))
	out.layers["serve.plan_tail_ms"] = tailOf(byKind("plan"))
	out.layers["serve.autotm_p50_ms"] = median(byKind("autotm"))
	out.layers["serve.experiment_p50_ms"] = median(byKind("experiment"))
	if h, m := final["sentinel_plan_cache_hits_total"], final["sentinel_plan_cache_misses_total"]; h+m > 0 {
		out.layers["serve.cache_hit_ratio"] = h / (h + m)
	}
	out.layers["serve.queued_max"] = queuedMax
	out.layers["serve.rejected"] = final["sentinel_requests_rejected_total"]
	out.layers["gen.late_p99_ms"] = tailOf(late)
	out.layers["trace.overhead_frac"] = median(lat)/median(latencies(base, nil)) - 1
	out.notes = append(out.notes, describe("traced request latency", lat),
		describe("untraced request latency", latencies(base, nil)))
	for _, k := range requestMix {
		out.notes = append(out.notes, describe("  "+k.kind, byKind(k.kind)))
	}
	return out, nil
}

// latencies returns the latency in ms of every sample keep accepts (all
// when keep is nil).
func latencies(samples []sample, keep func(i int) bool) []float64 {
	var ms []float64
	for i, s := range samples {
		if keep == nil || keep(i) {
			ms = append(ms, millis(s.latency()))
		}
	}
	return ms
}

// scrapeMetrics reads /metrics into name → value.
func scrapeMetrics(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				m[f[0]] = v
			}
		}
	}
	return m, sc.Err()
}

// simulateSummary is the part of /v1/simulate's response the check
// compares: identity, virtual durations and steady-step accounting.
type simulateSummary struct {
	Model            string  `json:"model"`
	Batch            int     `json:"batch"`
	Policy           string  `json:"policy"`
	Platform         string  `json:"platform"`
	Steps            int     `json:"steps"`
	SteadyStepNS     int64   `json:"steady_step_ns"`
	TotalNS          int64   `json:"total_ns"`
	ThroughputPerSec float64 `json:"throughput_per_sec"`
	StallNS          int64   `json:"stall_ns"`
	FaultNS          int64   `json:"fault_ns"`
	MigratedInBytes  int64   `json:"migrated_in_bytes"`
	MigratedOutBytes int64   `json:"migrated_out_bytes"`
	DemandMigrations int64   `json:"demand_migrations"`
	Diverged         bool    `json:"diverged"`
}

func summarize(r experiment.CellRequest, run *metrics.RunStats) simulateSummary {
	s := simulateSummary{Model: run.Model, Batch: run.Batch, Policy: run.Policy,
		Platform: r.Normalized().Platform, Steps: len(run.Steps),
		SteadyStepNS: int64(run.SteadyStepTime()), TotalNS: int64(run.TotalTime()),
		Diverged: run.Diverged}
	if s.SteadyStepNS > 0 {
		s.ThroughputPerSec = run.Throughput()
	}
	if st := run.SteadyStep(); st != nil {
		s.StallNS, s.FaultNS = int64(st.StallTime), int64(st.FaultTime)
		s.MigratedInBytes, s.MigratedOutBytes = st.MigratedIn, st.MigratedOut
		s.DemandMigrations = st.DemandMigrations
	}
	return s
}

// checkResponses computes each distinct request's reference once —
// sequentially, without a cache — and checks every response against it.
func checkResponses(reqs []request, samples []sample, out *outcome) error {
	gold, err := loadGoldens()
	if err != nil {
		return err
	}
	ref := experiment.Options{Workers: 1, NoCache: true}
	want := map[string]any{}
	for _, r := range reqs {
		if _, ok := want[r.key]; ok {
			continue
		}
		switch r.kind {
		case "simulate", "autotm":
			run, err := experiment.RunCell(ref, r.cell)
			if err != nil {
				return fmt.Errorf("reference for %s: %w", r.key, err)
			}
			want[r.key] = summarize(r.cell, run)
		case "plan":
			p, err := experiment.RunPlan(ref, r.plan)
			if err != nil {
				return fmt.Errorf("reference for %s: %w", r.key, err)
			}
			want[r.key] = *p
		case "experiment":
			want[r.key] = gold[r.exp] + "\n"
		}
	}
	for i, r := range reqs {
		s := samples[i]
		ok := s.err == nil && s.status == http.StatusOK
		if ok {
			switch w := want[r.key].(type) {
			case simulateSummary:
				var got simulateSummary
				ok = json.Unmarshal(s.body, &got) == nil && got == w
			case experiment.PlanSummary:
				var got experiment.PlanSummary
				ok = json.Unmarshal(s.body, &got) == nil && got == w
			case string:
				ok = string(s.body) == w
			}
		}
		out.check(ok)
	}
	return nil
}
