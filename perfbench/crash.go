package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"dhtm/internal/config"
	"dhtm/internal/crashtest"
	"dhtm/internal/memdev"
	"dhtm/internal/recovery"
	"dhtm/internal/registry"
	"dhtm/internal/snapshot"
	"dhtm/internal/txn"
	"dhtm/internal/workloads"
)

// crashSweeps are the explorations of crash-exhaustive. Their configurations
// do not depend on --seed: every run explores the same crash images, so the
// share of failed images is the same in every run. The seed chooses which
// points the independent check rebuilds.
//
// DHTM×hash has few, slow images (~4 ms) and LogTM-ATOM×queue many fast
// ones (~1 ms), so per-image overhead and re-simulation both show.
// LogTM-ATOM×queue at 4 transactions per core is also the workload that
// shows the known LogTM-ATOM queue fault: 6 of its 2312 images fail the
// invariant oracle, and they are counted as failed. ATOM×btree adds
// persist-queue reordering (window 2, every mask) and the differential
// oracle.
var crashSweeps = []crashtest.Config{
	{Design: "DHTM", Workload: "hash", Cores: 4, TxPerCore: 2, Seed: 42},
	{Design: "LogTM-ATOM", Workload: "queue", Cores: 4, TxPerCore: 4, Seed: 42},
	{Design: "ATOM", Workload: "btree", Cores: 4, TxPerCore: 2, Seed: 42,
		Adversary: crashtest.AdversaryConfig{Window: 2, Mode: "exhaustive"}, Differential: true},
}

// crashSamples is how many seeded points per strictly ordered sweep the
// independent check rebuilds, on top of every point the explorer failed.
const crashSamples = 12

// crashExhaustive runs the crash sweeps on one worker. A unit is a crash
// image, timed as the interval between the explorer's Progress callbacks.
type crashExhaustive struct{}

func (crashExhaustive) round(ctx context.Context, b *bench, _ int) (roundResult, error) {
	var r roundResult
	d := newDigest()
	for i, cfg := range crashSweeps {
		cfg.Parallel = 1
		var stamps []time.Time
		cfg.Progress = func(done, total int) { stamps = append(stamps, time.Now()) }
		sp := b.tr.begin("crashtest.Explore", sweepName(cfg), 0)
		start := time.Now()
		rep, err := crashtest.Explore(ctx, cfg)
		elapsed := time.Since(start)
		b.tr.timed(sp, "crashtest.explore")
		if err != nil {
			return r, fmt.Errorf("%s: %w", sweepName(cfg), err)
		}
		images := rep.Explored
		if rep.Tasks > 0 {
			images = rep.Tasks
		}
		if len(stamps) != images || images < 2 {
			return r, fmt.Errorf("%s: %d progress callbacks for %d crash images", sweepName(cfg), len(stamps), images)
		}
		intervals := make([]time.Duration, 0, len(stamps)-1)
		for j := 1; j < len(stamps); j++ {
			intervals = append(intervals, stamps[j].Sub(stamps[j-1]))
		}
		// The explorer measures the persist-event space (one uncrashed run)
		// before it issues the first image; that is the sweep's set-up. The
		// first callback also covers the first image, which crashes at point
		// 0 and is the cheapest of the sweep.
		r.setup += stamps[0].Sub(start)
		r.wall += elapsed
		r.units = append(r.units, intervals...)
		r.attempted += images
		r.failed += rep.Failed
		digestReport(d, rep)

		ref, err := b.crashRun(cfg, -1)
		if err != nil {
			return r, fmt.Errorf("%s: reference run: %w", sweepName(cfg), err)
		}
		r.sim.commits += ref.res.Committed
		r.sim.aborts += ref.res.Stats.TotalAborts()
		r.sim.cycles += ref.res.Cycles
		st := ref.res.Stats
		d.line("reference|commits=%d|aborts=%d|cycles=%d|log=%d|data_w=%d|data_r=%d",
			ref.res.Committed, st.TotalAborts(), ref.res.Cycles, st.LogBytes, st.DataWriteBytes, st.DataReadBytes)

		if cfg.Adversary.Window == 0 {
			if err := b.crossCheckImages(cfg, rep, samplePoints(b.seed, i, rep)); err != nil {
				return r, fmt.Errorf("%s: %w", sweepName(cfg), err)
			}
		}
	}
	r.digest = d.sum()
	return r, nil
}

func sweepName(cfg crashtest.Config) string {
	name := fmt.Sprintf("%s×%s/cores=%d/tx=%d", cfg.Design, cfg.Workload, cfg.Cores, cfg.TxPerCore)
	if cfg.Adversary.Window > 0 {
		name += fmt.Sprintf("/window=%d", cfg.Adversary.Window)
	}
	return name
}

// digestReport folds everything an exploration reports about the simulated
// machine into the digest: the persist events by traffic class, the
// recovery histograms, every failure and the differential heap digests.
func digestReport(d *digestWriter, rep *crashtest.Report) {
	d.line("%s/%s|seed=%d|points=%d|explored=%d|tasks=%d|failed=%d",
		rep.Design, rep.Workload, rep.RunSeed, rep.TotalPoints, rep.Explored, rep.Tasks, rep.Failed)
	d.line("events %s", sortedMap(rep.EventsByClass))
	d.line("replays %s", sortedMap(rep.ReplayHist))
	d.line("rollbacks %s", sortedMap(rep.RollbackHist))
	for _, f := range rep.Failures {
		d.line("failure %d %s %s %s", f.Point, f.Class, f.Mask, f.Err)
	}
	d.line("commit digests %s", sortedMap(rep.CommitDigests))
}

func sortedMap[K int | string, V any](m map[K]V) string {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var s strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&s, "%v=%v,", k, m[k])
	}
	return s.String()
}

// samplePoints picks the points the independent check rebuilds: a sample
// drawn from the run's seed and sweep index, plus every point the explorer
// reported as failed.
func samplePoints(seed int64, sweep int, rep *crashtest.Report) []int {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(sweep)))
	seen := map[int]bool{}
	var pts []int
	for _, p := range rng.Perm(rep.TotalPoints)[:min(crashSamples, rep.TotalPoints)] {
		seen[p] = true
		pts = append(pts, p)
	}
	for _, f := range rep.Failures {
		if !seen[f.Point] {
			seen[f.Point] = true
			pts = append(pts, f.Point)
		}
	}
	sort.Ints(pts)
	return pts
}

// crashAt clones the store just before durable write k applies: the image a
// power failure at that instant leaves behind. It stops the run once k is
// reached; with k < 0 it never fires and the run completes.
type crashAt struct {
	k     int64
	store *memdev.Store
	image *memdev.Store
	clone time.Duration
}

func (c *crashAt) PersistWrite(seq uint64, _ memdev.PersistEvent) {
	if int64(seq) == c.k && c.image == nil {
		start := time.Now()
		c.image = c.store.Clone()
		c.clone = time.Since(start)
	}
}

func (c *crashAt) reached() bool { return c.image != nil }

// crashRunResult is one run the benchmark drove itself.
type crashRunResult struct {
	res workloads.RunResult
	w   workloads.Workload
	at  *crashAt
}

// crashRun drives cfg's workload from the same setup snapshot and run seed
// the explorer uses, through RunPrepared's arm hook, crashing it before
// persist event k (k < 0 runs it to the end).
func (b *bench) crashRun(cfg crashtest.Config, k int) (crashRunResult, error) {
	t := b.tr
	unit := fmt.Sprintf("%s@%d", sweepName(cfg), k)
	root := t.begin("crash image", unit, 0)
	defer t.end(root)
	hw := config.Default()
	hw.NumCores = cfg.Cores
	p := workloads.Params{Cores: cfg.Cores, OpsPerTx: cfg.OpsPerTx, Seed: cfg.RunSeed()}
	sp := t.begin("snapshot.Prepare", unit, root)
	prep, err := snapshot.Default.Prepare(hw, cfg.Workload, p)
	t.timed(sp, "snapshot.prepare")
	if err != nil {
		return crashRunResult{}, err
	}
	sp = t.begin("snapshot.Prepared.NewStore", unit, root)
	store := prep.NewStore()
	t.end(sp)
	sp = t.begin("txn.NewEnvOn", unit, root)
	env, err := txn.NewEnvOn(hw, store)
	envTime := t.end(sp)
	if err != nil {
		return crashRunResult{}, err
	}
	sp = t.begin("registry.NewRuntime", unit, root)
	rt, err := registry.NewRuntime(env, cfg.Design)
	t.end(sp)
	if err != nil {
		env.Release()
		return crashRunResult{}, err
	}
	at := &crashAt{k: int64(k), store: env.Store()}
	res, err := b.runPrepared(env, rt, prep.Workload, p, cfg.TxPerCore,
		func() { env.Ctl.SetPersistObserver(at) }, at.reached, unit, root)
	if err == nil {
		res.Stats = res.Stats.Snapshot()
	}
	sp = t.begin("txn.Env.Release", unit, root)
	env.Release()
	t.observe("txn.env", envTime+t.end(sp))
	if at.image != nil {
		t.observe("memdev.clone", at.clone)
	}
	return crashRunResult{res: res, w: prep.Workload, at: at}, err
}

// crossCheckImages rebuilds each point's crash image apart from the explorer,
// recovers it and runs the workload's invariants on it. A point must fail
// the invariant oracle here exactly when the explorer reported it failing
// that oracle.
func (b *bench) crossCheckImages(cfg crashtest.Config, rep *crashtest.Report, points []int) error {
	explorer := map[int]string{}
	for _, f := range rep.Failures {
		explorer[f.Point] = f.Err
	}
	for _, k := range points {
		run, err := b.crashRun(cfg, k)
		if err != nil {
			return fmt.Errorf("point %d: %w", k, err)
		}
		if run.at.image == nil {
			return fmt.Errorf("point %d: the run never reached persist event %d", k, k)
		}
		verdict, err := b.judgeImage(run.at.image, run.w, fmt.Sprintf("%s@%d", sweepName(cfg), k))
		if err != nil {
			return fmt.Errorf("point %d: %w", k, err)
		}
		if err := agree(k, verdict, explorer[k]); err != nil {
			return err
		}
	}
	return nil
}

// judgeImage recovers a crash image and returns the invariant oracle's
// verdict ("" when the recovered image verifies). A recovery error is
// reported as "recovery: ...", as the explorer reports it. Recovery of a
// verifying image must also be idempotent.
func (b *bench) judgeImage(img *memdev.Store, w workloads.Workload, unit string) (string, error) {
	t := b.tr
	sp := t.begin("recovery.Recover", unit, 0)
	_, err := recovery.Recover(img)
	t.timed(sp, "recovery.recover")
	if err != nil {
		return "recovery: " + err.Error(), nil
	}
	sp = t.begin("workloads.Verify", unit, 0)
	err = w.Verify(img)
	t.end(sp)
	if err != nil {
		return "invariant oracle: " + err.Error(), nil
	}
	return "", b.checkIdempotent(img, unit, 0)
}

// agree compares the benchmark's verdict on point k with the explorer's
// error for it ("" when it passed): both must fail the same oracle, and an
// invariant failure must name the same violation. Only invariant and
// recovery failures are compared; the explorer's other oracles have no
// counterpart here.
func agree(k int, mine, explorer string) error {
	class := func(s string) string {
		for _, c := range []string{"invariant oracle:", "recovery:"} {
			if strings.HasPrefix(s, c) {
				return c
			}
		}
		return ""
	}
	c := class(mine)
	if c != class(explorer) || (c == "invariant oracle:" && mine != explorer) {
		return fmt.Errorf("point %d: independent rebuild says %q, explorer says %q", k, mine, explorer)
	}
	return nil
}
