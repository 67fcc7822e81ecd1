package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
	"time"
)

// steady runs one workload several times, one process per run with its own
// seed, and prints each end-to-end metric's median, quartiles, extremes and
// spread (the distance between the quartiles as a share of the median). It
// times a fixed standard-library reference loop before and after every run:
// when the reference time moves with a metric, the host drifted; when it
// does not, the program did.
func steady(args []string) int {
	fs := flag.NewFlagSet("perfbench steady", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	runs := fs.Int("runs", 10, "number of runs")
	firstSeed := fs.Int64("seed", 1, "seed of the first run; later runs count up from it")
	seconds := fs.Int("seconds", 10, "--seconds of every run")
	out := fs.String("out", ".bench_build", "directory for the runs' files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloadsByName[*name]; !ok || *runs < 1 {
		fmt.Fprintf(os.Stderr, "perfbench steady: need --workload (%s) and --runs >= 1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench steady: %v\n", err)
		return 1
	}

	values := map[string][]float64{}
	units := map[string]string{}
	failShares := map[string]bool{}
	fmt.Printf("%-6s %-9s %-9s %s\n", "seed", "ref_pre_s", "ref_post_s", "metrics")
	for i := 0; i < *runs; i++ {
		seed := *firstSeed + int64(i)
		pre := referenceLoop()
		cmd := exec.Command(self, "--workload", *name, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(*seconds), "--trace", "0", "--out", *out)
		var stdout bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = os.Stderr
		runErr := cmd.Run()
		post := referenceLoop()
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || runErr != nil || !res.Correct {
			fmt.Fprintf(os.Stderr, "perfbench steady: run with seed %d failed (%v)\n", seed, runErr)
			return 1
		}
		keys := sortedKeys(res.Metrics)
		var parts []string
		for _, k := range keys {
			values[k] = append(values[k], res.Metrics[k].Value)
			units[k] = res.Metrics[k].Unit
			parts = append(parts, fmt.Sprintf("%s=%.4g", k, res.Metrics[k].Value))
		}
		failShares[fmt.Sprintf("%d/%d", res.Failed, res.Attempted)] = true
		fmt.Printf("%-6d %-9.4f %-9.4f %s  failed=%d/%d\n", seed, pre.Seconds(), post.Seconds(),
			strings.Join(parts, " "), res.Failed, res.Attempted)
	}
	fmt.Printf("\n%-14s %-5s %12s %12s %12s %12s %12s %8s\n", "metric", "unit", "min", "q1", "median", "q3", "max", "spread")
	for _, k := range sortedKeys(values) {
		v := values[k]
		q1, med, q3 := quartiles(v)
		lo, hi := minMax(v)
		fmt.Printf("%-14s %-5s %12.6g %12.6g %12.6g %12.6g %12.6g %7.2f%%\n", k, units[k], lo, q1, med, q3, hi, ratio(q3-q1, med)*100)
	}
	shares := sortedKeys(failShares)
	fmt.Printf("\nfailed/attempted per run: %s\n", strings.Join(shares, ", "))
	return 0
}

// quartiles returns the first quartile, median and third quartile exactly
// as Python's statistics.quantiles(values, n=4) computes them (its default
// "exclusive" method), so the spread printed here is the one a comparison
// of two sets of runs computes.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

func minMax(xs []float64) (float64, float64) {
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// referenceLoop times a fixed piece of standard-library work — sorting the
// same pseudo-random million integers twice — that no change to the program
// can speed up or slow down.
func referenceLoop() time.Duration {
	xs := make([]int, 1<<20)
	start := time.Now()
	for rep := 0; rep < 2; rep++ {
		x := uint64(88172645463325252)
		for i := range xs {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			xs[i] = int(x >> 1)
		}
		sort.Ints(xs)
	}
	return time.Since(start)
}
