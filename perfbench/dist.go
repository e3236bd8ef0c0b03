package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"sentinel/internal/dist"
	"sentinel/internal/experiment"
	"sentinel/internal/metrics"
)

// The distributed sweep is the paper sweep's configuration split over two
// local worker processes of one pool worker each. The traced paper-sweep
// run measures it; it is not a workload of its own because its two
// concurrent workers made its time swing by a quarter from run to run on a
// shared 2-vCPU host.
const (
	distWorkers = 2
	// distHeartbeat is the coordinator's supervision tick. The default
	// (a quarter of the 10 s lease TTL) is 2.5 s, and the coordinator only
	// notices a finished shard on a tick, so the default would add up to
	// one tick of idle time per shard; 25 ms keeps the measured time the
	// sweep's work.
	distHeartbeat = 25 * time.Millisecond
)

// timedWorker wraps a dist.Worker with spans around Start and each Poll,
// and records each attempt's lifetime.
type timedWorker struct {
	dist.Worker
	tr *tracer

	mu     sync.Mutex
	shards []time.Duration
	polls  []float64
}

func (w *timedWorker) Start(ctx context.Context, t dist.Task) (dist.Attempt, error) {
	start := now()
	sp := w.tr.begin("dist.Worker.Start", 0, t.Shard+1)
	a, err := w.Worker.Start(ctx, t)
	w.tr.end(sp)
	if err != nil {
		return nil, err
	}
	return &timedAttempt{Attempt: a, w: w, shard: t.Shard, start: start}, nil
}

type timedAttempt struct {
	dist.Attempt
	w     *timedWorker
	shard int
	start time.Time
	done  bool
}

func (a *timedAttempt) Poll(ctx context.Context) (dist.AttemptStatus, error) {
	t0 := now()
	st, err := a.Attempt.Poll(ctx)
	end := now()
	a.w.tr.record("dist.Attempt.Poll", 0, a.shard+1, t0, end)
	a.w.mu.Lock()
	defer a.w.mu.Unlock()
	a.w.polls = append(a.w.polls, millis(end.Sub(t0)))
	if st.Done && !a.done {
		a.done = true
		a.w.shards = append(a.w.shards, end.Sub(a.start))
		a.w.tr.record("dist.shard", 0, a.shard+1, a.start, end)
	}
	return st, err
}

// distSweep runs the quick paper sweep distributed, with this process as
// the coordinator: the dist package's coordinator over sentinel-sweep
// worker processes (the -workers-local path of sentinel-sweep), with spans
// around each worker call, then the merge and render. The merged tables
// must equal the goldens and no shard may be quarantined. sentinel-sweep
// itself exits 0 even when every shard is quarantined, which is why the
// check reads the coordinator's result rather than an exit status.
func distSweep(cfg *config, gold map[string]string, out *outcome) error {
	dir, err := scratchDir(cfg, "dist-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	exe := filepath.Join(cfg.bin, "sentinel-sweep")
	var fleet []dist.Worker
	var timed []*timedWorker
	for i := 0; i < distWorkers; i++ {
		tw := &timedWorker{tr: cfg.tr, Worker: &dist.LocalWorker{
			WorkerName: fmt.Sprintf("local-%d", i), Dir: dir, Stderr: io.Discard,
			Command: func(t dist.Task, jdir string) (string, []string) {
				args := []string{"-worker", "-shard", strconv.Itoa(t.Shard), "-shards", strconv.Itoa(t.Shards),
					"-exp", strings.Join(t.Exps, ","), "-steps", strconv.Itoa(t.Steps), "-workers", "1",
					"-journal", jdir}
				if t.Quick {
					args = append(args, "-quick")
				}
				return exe, args
			},
		}}
		fleet = append(fleet, tw)
		timed = append(timed, tw)
	}
	stats := &metrics.DistStats{}
	coord, err := dist.New(dist.Config{Exps: experimentIDs, Quick: true, Steps: 3,
		Heartbeat: distHeartbeat, Stats: stats}, fleet)
	if err != nil {
		return err
	}
	start := now()
	sp := cfg.tr.begin("dist.Coordinator.Run", 0, 2)
	res, err := coord.Run(context.Background())
	cfg.tr.end(sp)
	if err != nil {
		return err
	}
	mergeStart := now()
	sp = cfg.tr.begin("dist.merge", 0, 2)
	cache := experiment.NewCache()
	restored, _ := res.MergeInto(cache)
	opts := experiment.Options{Steps: 3, Quick: true, Workers: 1, Cache: cache, Shard: res.Plan(coord.Shards())}
	for _, id := range experimentIDs {
		tb, err := experiment.Run(id, opts)
		out.check(err == nil && tb.String() == gold[id])
	}
	cfg.tr.end(sp)
	merge := since(mergeStart)
	wall := since(start)
	for i := 0; i < distWorkers; i++ {
		out.check(!res.Quarantined[i])
	}

	var shards, polls []float64
	for _, tw := range timed {
		for _, d := range tw.shards {
			shards = append(shards, secs(d))
		}
		polls = append(polls, tw.polls...)
	}
	snap := stats.Snapshot()
	out.layers["dist.sweep_s"] = secs(wall)
	out.layers["dist.leases_granted"] = float64(snap.Granted)
	out.layers["dist.leases_expired"] = float64(snap.Expired)
	out.layers["dist.reassigned"] = float64(snap.Reassigned)
	out.layers["dist.shard_max_s"] = quantile(shards, 1)
	out.layers["dist.shard_min_s"] = quantile(shards, 0)
	out.layers["dist.merge_s"] = secs(merge)
	out.layers["dist.poll_ms"] = median(polls)
	if n := cache.Len(); n > 0 {
		out.layers["dist.useful_frac"] = float64(restored) / float64(n)
	}
	out.notef("distributed sweep: %.3f s (merge %.3f s); shards %v s; %d quarantined; %d cells journaled of %d the sweep needs",
		secs(wall), secs(merge), shards, len(res.Quarantined), restored, cache.Len())
	return nil
}
