// Command perfbench is the simulator's benchmark. One process runs one named
// workload against the program's own entry points (harness.Experiments with
// RunGrid/Reduce, crashtest.Explore, serve.New(...).Handler() over loopback
// HTTP) in whole rounds for a fixed time, checks every round's outputs
// against computations made apart from the program, and prints its metrics
// as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (set-up time, round wall
// time, units per second, unit latency percentiles, peak memory); with
// --trace 1 the run records a span around every call it makes into a layer,
// takes a CPU profile and prints the per-layer metrics instead. All
// simulation runs on one worker and all load comes from one client, so the
// figures measure the program rather than whatever shares the host.
//
// "perfbench steady" runs one workload several times and prints the spread of
// every end-to-end metric (see steady.go). README.md describes the workloads,
// the metrics and the layer each one watches.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// roundResult is one whole round of a workload's fixed work.
type roundResult struct {
	// setup is the time from the round's start until its first unit was
	// issued; wall is the time the program spent on the round's work (set-up
	// included, the benchmark's own checks excluded).
	setup, wall time.Duration
	// units holds one latency per measured unit (a cell, a crash image, a
	// campaign).
	units []time.Duration
	// attempted counts units issued; failed counts those the program
	// reported as failed.
	attempted, failed int
	// digest hashes every unit's simulated statistics; each round of one run
	// must produce the same one.
	digest uint64
	// sim sums the simulated counters of the round's runs.
	sim simCounts
}

// simCounts are exact simulated-machine totals.
type simCounts struct{ commits, aborts, cycles uint64 }

// workload is one benchmark workload: round runs its fixed work once and
// returns an error if any output check fails.
type workload interface {
	round(ctx context.Context, b *bench, i int) (roundResult, error)
}

var workloadsByName = map[string]func() workload{
	"paper-regen":      func() workload { return &paperRegen{} },
	"crash-exhaustive": func() workload { return &crashExhaustive{} },
	"serve-mixed":      func() workload { return &serveMixed{} },
}

// bench is the state one run shares with its workload.
type bench struct {
	seed int64
	out  string  // directory for the run's files (store, spans, profile, results)
	tr   *tracer // nil when the run is untraced
}

// metric is one printed metric.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	// One worker for everything, the Go runtime's own collector included:
	// with a second P the collector and goroutine hand-offs run on the host's
	// second core, whose speed depends on whatever else shares the host.
	runtime.GOMAXPROCS(1)
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steady(os.Args[2:]))
	}
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs derive from")
	seconds := fs.Int("seconds", 10, "run whole rounds until this many seconds have passed")
	trace := fs.Int("trace", 0, "1 records spans and a CPU profile and prints the per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for the run's store, spans, profile and results")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloadsByName[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	b := &bench{seed: *seed, out: *out}
	if *trace == 1 {
		b.tr = newTracer()
	}
	// Nothing in a run may take more than the time the caller allows a run;
	// a hung server or a wedged exploration fails the run instead.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(*seconds)*time.Second+150*time.Second)
	defer cancel()

	res, text, err := measure(ctx, b, *name, mk(), time.Duration(*seconds)*time.Second)
	fmt.Fprint(stdout, text)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
	}
	line, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloadsByName))
	for n := range workloadsByName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// measure runs whole rounds until d has passed and assembles the result, a
// human-readable report and the first failed check.
func measure(ctx context.Context, b *bench, name string, w workload, d time.Duration) (result, string, error) {
	res := result{Metrics: map[string]metric{}}
	var report strings.Builder

	// Round 0 warms up: it fills the snapshot cache and grows the heap, and
	// its outputs are checked like every other round's, but it is not
	// measured.
	warm, err := runRound(ctx, b, name, w, 0)
	if err != nil {
		return res, "", err
	}
	var prof *profile
	if b.tr != nil {
		b.tr.resetTimings()
		if prof, err = startProfile(filepath.Join(b.out, "trace", name+"-seed"+fmt.Sprint(b.seed)+".cpu.pprof")); err != nil {
			return res, "", err
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	layer0 := readLayerCounters()

	var rounds []roundResult
	start := time.Now()
	for i := 1; ; i++ {
		var r roundResult
		if r, err = runRound(ctx, b, name, w, i); err != nil {
			break
		}
		if r.digest != warm.digest {
			err = fmt.Errorf("round %d: simulated-statistics digest %016x differs from round 0's %016x", i, r.digest, warm.digest)
			break
		}
		rounds = append(rounds, r)
		if time.Since(start) >= d {
			break
		}
	}
	runtime.ReadMemStats(&ms1)
	var samples map[string]time.Duration
	if prof != nil {
		var perr error
		if samples, perr = prof.stop(); perr != nil && err == nil {
			err = perr
		}
	}

	var units []time.Duration
	var wallSum time.Duration
	setups := make([]float64, 0, len(rounds))
	walls := make([]float64, 0, len(rounds))
	for _, r := range rounds {
		res.Attempted += r.attempted
		res.Failed += r.failed
		units = append(units, r.units...)
		wallSum += r.wall
		setups = append(setups, r.setup.Seconds())
		walls = append(walls, r.wall.Seconds())
	}
	res.Correct = err == nil && len(rounds) > 0
	if len(rounds) == 0 {
		return res, "", err
	}
	fmt.Fprintf(&report, "workload %s seed %d: %d measured rounds after one warm-up, %d units attempted, %d failed\n",
		name, b.seed, len(rounds), res.Attempted, res.Failed)
	fmt.Fprintf(&report, "digest %s seed=%d %016x\n", name, b.seed, warm.digest)

	if b.tr == nil {
		ms := durationsMS(units)
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["wall_s"] = metric{median(walls), "s"}
		res.Metrics["units_per_s"] = metric{float64(res.Attempted) / wallSum.Seconds(), "1/s"}
		res.Metrics["unit_p50_ms"] = metric{quantile(ms, 0.5), "ms"}
		res.Metrics["unit_p90_ms"] = metric{quantile(ms, 0.9), "ms"}
		res.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
		saveUntraced(b, name, median(walls))
	} else {
		n := float64(len(rounds))
		b.tr.layerMetrics(res.Metrics, readLayerCounters().sub(layer0), n)
		cpuMetrics(res.Metrics, samples, n)
		res.Metrics["sim.commits"] = metric{float64(rounds[0].sim.commits), "count"}
		res.Metrics["sim.aborts"] = metric{float64(rounds[0].sim.aborts), "count"}
		res.Metrics["sim.cycles"] = metric{float64(rounds[0].sim.cycles), "count"}
		res.Metrics["go.mallocs_per_unit"] = metric{float64(ms1.Mallocs-ms0.Mallocs) / float64(max(res.Attempted, 1)), "count"}
		res.Metrics["go.gc_cycles"] = metric{float64(ms1.NumGC-ms0.NumGC) / n, "count"}
		spans, werr := b.tr.writeSpans(filepath.Join(b.out, "trace", name+"-seed"+fmt.Sprint(b.seed)+".spans.jsonl"))
		if werr != nil && err == nil {
			err = werr
		}
		fmt.Fprintf(&report, "spans %s (%d spans), profile %s\n", spans, b.tr.count(), prof.path)
		fmt.Fprintln(&report, overheadLine(b, name, median(walls)))
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(&report, "  %-32s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	return res, report.String(), err
}

// runRound runs round i of w from a collected heap, so where the collector's
// cycles fall within a round does not depend on the rounds before it.
func runRound(ctx context.Context, b *bench, name string, w workload, i int) (roundResult, error) {
	runtime.GC()
	r, err := w.round(ctx, b, i)
	if err != nil {
		return r, fmt.Errorf("round %d: %w", i, err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s round %d: setup %v, wall %v, %d units, %d failed\n",
		name, i, r.setup, r.wall, r.attempted, r.failed)
	return r, nil
}

// untracedRecord is what an untraced run leaves behind so a traced run of the
// same workload and seed can report its overhead.
type untracedRecord struct {
	WallS float64 `json:"wall_s"`
}

func untracedPath(b *bench, name string) string {
	return filepath.Join(b.out, "results", fmt.Sprintf("%s-seed%d.json", name, b.seed))
}

func saveUntraced(b *bench, name string, wall float64) {
	data, _ := json.Marshal(untracedRecord{WallS: wall})
	path := untracedPath(b, name)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
		// Best effort: the record only feeds the traced run's overhead line.
		_ = os.WriteFile(path, data, 0o644)
	}
}

// overheadLine compares the traced wall_s with the untraced run of the same
// workload and seed, when one was recorded.
func overheadLine(b *bench, name string, traced float64) string {
	data, err := os.ReadFile(untracedPath(b, name))
	var rec untracedRecord
	if err != nil || json.Unmarshal(data, &rec) != nil || rec.WallS <= 0 {
		return fmt.Sprintf("trace overhead: traced wall_s %.4f; no untraced run of this workload and seed recorded", traced)
	}
	return fmt.Sprintf("trace overhead: traced wall_s %.4f vs untraced %.4f (%+.1f%%)",
		traced, rec.WallS, (traced/rec.WallS-1)*100)
}

// digestWriter accumulates the simulated-statistics digest of one round: an
// FNV-64a hash fed with one canonical line per unit.
type digestWriter struct{ h hash.Hash64 }

func newDigest() *digestWriter { return &digestWriter{h: fnv.New64a()} }

func (d *digestWriter) line(format string, args ...any) { fmt.Fprintf(d.h, format+"\n", args...) }
func (d *digestWriter) sum() uint64                     { return d.h.Sum64() }
