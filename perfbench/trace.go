package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dhtm/internal/obs"
	"dhtm/internal/snapshot"
	"dhtm/internal/txn"
	"dhtm/internal/workloads"
)

// span is one timed call the benchmark made into a layer. Spans of one unit
// share its unit id; Parent is the enclosing span's ID (0 at the top).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Unit   string `json:"unit,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// accum sums the durations (or counts) observed for one per-layer timing.
type accum struct {
	n   atomic.Int64
	sum atomic.Int64 // nanoseconds, or a plain count for counters
}

func (a *accum) add(d time.Duration) {
	a.n.Add(1)
	a.sum.Add(int64(d))
}

// mean returns the mean observation in the given unit (0 when none).
func (a *accum) mean(unit time.Duration) float64 {
	n := a.n.Load()
	if n == 0 {
		return 0
	}
	return float64(a.sum.Load()) / float64(n) / float64(unit)
}

// tracer keeps the traced run's spans and per-layer timings in memory; the
// spans are written out when the run ends. A nil tracer records nothing, so
// untraced runs share the traced code path at no cost beyond a nil check.
type tracer struct {
	base time.Time

	mu    sync.Mutex
	spans []span
	accs  map[string]*accum
}

func newTracer() *tracer { return &tracer{base: time.Now(), accs: map[string]*accum{}} }

// resetTimings drops the timings and counters gathered so far (the spans
// stay), so the per-layer metrics cover the measured rounds only.
func (t *tracer) resetTimings() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.accs = map[string]*accum{}
}

// begin opens a span and returns its ID.
func (t *tracer) begin(name, unit string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Unit: unit, Start: now})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

// timed closes span id and adds its duration to the named timing.
func (t *tracer) timed(id int, name string) {
	t.observe(name, t.end(id))
}

// acc returns the named accumulator, creating it on first use.
func (t *tracer) acc(name string) *accum {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.accs[name]
	if a == nil {
		a = &accum{}
		t.accs[name] = a
	}
	return a
}

// observe adds one duration to the named timing.
func (t *tracer) observe(name string, d time.Duration) {
	if t != nil {
		t.acc(name).add(d)
	}
}

// countAdd adds n to the named counter.
func (t *tracer) countAdd(name string, n uint64) {
	if t != nil {
		t.acc(name).sum.Add(int64(n))
	}
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// writeSpans writes every span as one JSON line and returns the file's path.
func (t *tracer) writeSpans(path string) (string, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err == nil {
			err = enc.Encode(s)
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	return path, nil
}

// workload wraps w so every Next call is timed under workloads.next.<name>;
// untraced runs get w itself.
func (t *tracer) workload(w workloads.Workload) workloads.Workload {
	if t == nil {
		return w
	}
	return timedWorkload{Workload: w, acc: t.acc("workloads.next." + w.Name())}
}

// timedWorkload times transaction generation. Everything else, Name and
// Verify included, is the wrapped workload's.
type timedWorkload struct {
	workloads.Workload
	acc *accum
}

func (w timedWorkload) Next(core int, rng *rand.Rand) *txn.Transaction {
	start := time.Now()
	tx := w.Workload.Next(core, rng)
	w.acc.add(time.Since(start))
	return tx
}

// layerCounters are the program's own obs series for the layers the
// benchmark cannot wrap: the snapshot cache (shared by the harness, the
// explorer and the server) and the runner's per-cell histogram.
type layerCounters struct {
	snapHits, snapMisses uint64
	cloneCount           uint64
	cloneSum             float64
	runnerCellCount      uint64
	runnerCellSum        float64
}

var (
	snapCloneSeconds  = obs.Default.Histogram("dhtm_snapshot_clone_seconds", "", obs.IOBuckets)
	runnerCellSeconds = obs.Default.Histogram("dhtm_runner_cell_seconds", "", obs.DurationBuckets)
)

func readLayerCounters() layerCounters {
	m := snapshot.Default.Metrics()
	return layerCounters{
		snapHits: m.Hits, snapMisses: m.Misses,
		cloneCount: snapCloneSeconds.Count(), cloneSum: snapCloneSeconds.Sum(),
		runnerCellCount: runnerCellSeconds.Count(), runnerCellSum: runnerCellSeconds.Sum(),
	}
}

func (c layerCounters) sub(o layerCounters) layerCounters {
	return layerCounters{
		snapHits: c.snapHits - o.snapHits, snapMisses: c.snapMisses - o.snapMisses,
		cloneCount: c.cloneCount - o.cloneCount, cloneSum: c.cloneSum - o.cloneSum,
		runnerCellCount: c.runnerCellCount - o.runnerCellCount, runnerCellSum: c.runnerCellSum - o.runnerCellSum,
	}
}

// nextWorkloads lists every workload whose generation is timed.
var nextWorkloads = []string{"tpcc", "tatp", "queue", "hash", "sdg", "sps", "btree", "rbtree"}

// layerMetrics fills the per-layer metrics that come from spans, timings and
// the program's obs series. Counts are per round.
func (t *tracer) layerMetrics(m map[string]metric, c layerCounters, rounds float64) {
	mean := func(name string, unit time.Duration) float64 { return t.acc(name).mean(unit) }
	perRound := func(name string) float64 { return float64(t.acc(name).sum.Load()) / rounds }
	for _, w := range nextWorkloads {
		m["workloads.next_us."+w] = metric{mean("workloads.next."+w, time.Microsecond), "us"}
	}
	m["snapshot.prepare_ms"] = metric{mean("snapshot.prepare", time.Millisecond), "ms"}
	m["snapshot.hits"] = metric{float64(c.snapHits) / rounds, "count"}
	m["snapshot.misses"] = metric{float64(c.snapMisses) / rounds, "count"}
	m["snapshot.clone_us"] = metric{ratio(c.cloneSum*1e6, float64(c.cloneCount)), "us"}
	m["txn.env_us"] = metric{mean("txn.env", time.Microsecond), "us"}
	run := t.acc("workloads.run")
	m["workloads.run_ms"] = metric{run.mean(time.Millisecond), "ms"}
	m["workloads.run_ns_per_tx"] = metric{ratio(float64(run.sum.Load()), float64(t.acc("workloads.run.tx").sum.Load())), "ns"}
	m["recovery.recover_us"] = metric{mean("recovery.recover", time.Microsecond), "us"}
	m["memdev.clone_us"] = metric{mean("memdev.clone", time.Microsecond), "us"}
	m["memdev.equal_us"] = metric{mean("memdev.equal", time.Microsecond), "us"}
	m["crashtest.explore_s"] = metric{mean("crashtest.explore", time.Second), "s"}
	m["runner.cell_ms"] = metric{ratio(c.runnerCellSum*1e3, float64(c.runnerCellCount)), "ms"}
	m["resultstore.get_us"] = metric{mean("resultstore.get", time.Microsecond), "us"}
	m["resultstore.put_us"] = metric{mean("resultstore.put", time.Microsecond), "us"}
	m["resultstore.mem_hits"] = metric{perRound("resultstore.mem_hits"), "count"}
	m["resultstore.disk_hits"] = metric{perRound("resultstore.disk_hits"), "count"}
	m["resultstore.computes"] = metric{perRound("resultstore.computes"), "count"}
	m["serve.submit_ms"] = metric{mean("serve.submit", time.Millisecond), "ms"}
	m["serve.await_ms"] = metric{mean("serve.await", time.Millisecond), "ms"}
	m["serve.tables_ms"] = metric{mean("serve.tables", time.Millisecond), "ms"}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
