package main

import (
	"bytes"
	"strings"
	"testing"

	"dhtm/internal/harness"
	"dhtm/internal/runner"
	"dhtm/internal/scenario"
	"dhtm/internal/workloads"
)

// fakeGrid fabricates a completed grid for an experiment: every cell commits
// cores × tx_per_core transactions in a cell-dependent number of cycles.
func fakeGrid(t *testing.T, id string) (*runner.ResultSet, *harness.Table) {
	t.Helper()
	e, ok := harness.Find(id)
	if !ok {
		t.Fatalf("no experiment %q", id)
	}
	opts := harness.Options{}
	plan := e.Plan(opts)
	results := make([]runner.Result, len(plan.Cells))
	for i, c := range plan.Cells {
		cores := c.Cores
		if cores <= 0 {
			cores = 8
		}
		results[i] = runner.Result{Cell: c, Run: workloads.RunResult{
			Committed: uint64(cores * c.TxPerCore),
			Cycles:    uint64(100000 + 7919*(i+1)%50000),
		}}
	}
	rs, err := runner.NewResultSet(plan, results)
	if err != nil {
		t.Fatal(err)
	}
	table, err := e.Reduce(opts, rs)
	if err != nil {
		t.Fatal(err)
	}
	return rs, table
}

func TestCheckCommitsCatchesTamperedCount(t *testing.T) {
	rs, _ := fakeGrid(t, "fig5")
	if err := checkCommits(rs); err != nil {
		t.Fatalf("untampered grid: %v", err)
	}
	rs.Results[3].Run.Committed--
	if err := checkCommits(rs); err == nil {
		t.Fatal("a cell committing one transaction too few passed")
	}
}

func TestCheckTableCatchesTamperedRatio(t *testing.T) {
	for _, id := range []string{"fig5", "table6", "table7"} {
		rs, table := fakeGrid(t, id)
		if err := checkTable(id, table, rs); err != nil {
			t.Fatalf("%s untampered: %v", id, err)
		}
		// Nudge the last ratio of the last row (a geo-mean, a ratio or a gap)
		// by one hundredth.
		row := table.Rows[len(table.Rows)-1]
		last := len(row) - 1
		orig := row[last]
		row[last] = bump(t, orig)
		if err := checkTable(id, table, rs); err == nil {
			t.Errorf("%s: tampered cell %s -> %s passed", id, orig, row[last])
		}
		row[last] = orig

		// A tampered cycle count moves the recomputed ratios away from the
		// rendered ones.
		rs.Results[len(rs.Results)-1].Run.Cycles *= 2
		if err := checkTable(id, table, rs); err == nil {
			t.Errorf("%s: tampered cycles passed", id)
		}
	}
}

func bump(t *testing.T, s string) string {
	t.Helper()
	if s == "" || !strings.Contains(s, ".") {
		t.Fatalf("not a ratio: %q", s)
	}
	b := []byte(s)
	i := len(b) - 1
	for b[i] == '9' || b[i] == '.' {
		if b[i] == '9' {
			b[i] = '0'
		}
		i--
	}
	b[i]++
	return string(b)
}

func TestCheckSORowCatchesTamperedBaseline(t *testing.T) {
	for _, id := range []string{"fig5", "table6"} {
		_, table := fakeGrid(t, id)
		if err := checkSORow(id, table); err != nil {
			t.Fatalf("%s untampered: %v", id, err)
		}
		table.Rows[0][1] = "1.01"
		if err := checkSORow(id, table); err == nil {
			t.Errorf("%s: SO reading 1.01 passed", id)
		}
	}
}

// sweepTables renders the same outcomes twice: as first served (the first
// cached cells only) and as replayed (every cell cached).
func sweepTables() (cold, warm string, outcomes []scenario.SweepOutcome) {
	for i, w := range []string{"hash", "queue", "tpcc"} {
		outcomes = append(outcomes, scenario.SweepOutcome{
			Cell:      runner.Cell{ID: "DHTM/" + w, Design: "DHTM", Workload: w, Seed: int64(11 * (i + 1))},
			Cached:    i == 0,
			Committed: 4, Cycles: uint64(1000 * (i + 3)), Throughput: 4e6 / float64(1000*(i+3)),
		})
	}
	var c, wb bytes.Buffer
	scenario.SweepTable("campaign", outcomes).Render(&c)
	replay := append([]scenario.SweepOutcome(nil), outcomes...)
	for i := range replay {
		replay[i].Cached = true
	}
	scenario.SweepTable("campaign", replay).Render(&wb)
	return c.String(), wb.String(), replay
}

func TestCheckWarmTableCatchesTamperedReplay(t *testing.T) {
	cold, warm, replay := sweepTables()
	if err := checkWarmTable(cold, warm); err != nil {
		t.Fatalf("untampered replay: %v", err)
	}
	tampered := strings.Replace(warm, "4000", "4001", 1)
	if tampered == warm {
		t.Fatal("no cycle count to tamper with")
	}
	if err := checkWarmTable(cold, tampered); err == nil {
		t.Error("a replayed cycle count differing from the first rendering passed")
	}
	replay[1].Cached = false
	var b bytes.Buffer
	scenario.SweepTable("campaign", replay).Render(&b)
	if err := checkWarmTable(cold, b.String()); err == nil {
		t.Error("a replayed row that was not served from the store passed")
	}
}

func TestCheckCampaignCountsCatchesTamperedTally(t *testing.T) {
	ok := jobCounts{cached: 4, simulated: 4, state: "done"}
	if err := checkCampaignCounts(ok, 8, 4); err != nil {
		t.Fatalf("untampered tally: %v", err)
	}
	for name, c := range map[string]jobCounts{
		"lost cell":      {cached: 4, simulated: 3, state: "done"},
		"extra cached":   {cached: 5, simulated: 3, state: "done"},
		"failed cell":    {cached: 4, simulated: 3, failed: 1, state: "done"},
		"job not done":   {cached: 4, simulated: 4, state: "failed"},
		"extra simulate": {cached: 3, simulated: 5, state: "done"},
	} {
		if err := checkCampaignCounts(c, 8, 4); err == nil {
			t.Errorf("%s passed", name)
		}
	}
}

func TestCheckComputesCatchesTamperedCount(t *testing.T) {
	if err := checkComputes(100, 100, 0); err != nil {
		t.Fatalf("untampered: %v", err)
	}
	if err := checkComputes(101, 100, 0); err == nil {
		t.Error("a cell simulated twice passed")
	}
	if err := checkComputes(100, 100, 1); err == nil {
		t.Error("a replayed cell simulated again passed")
	}
}

func TestAgreeCatchesDisagreement(t *testing.T) {
	inv := "invariant oracle: queue: live entry 18 not marked valid"
	for _, c := range []struct {
		mine, explorer string
		ok             bool
	}{
		{"", "", true},
		{inv, inv, true},
		{"", "prefix oracle: word differs", true},
		{inv, "", false},
		{"", inv, false},
		{inv, "invariant oracle: queue: live entry 19 not marked valid", false},
		{"recovery: bad log", "", false},
	} {
		if err := agree(7, c.mine, c.explorer); (err == nil) != c.ok {
			t.Errorf("agree(%q, %q) = %v, want ok=%v", c.mine, c.explorer, err, c.ok)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"dhtm/internal/cache.(*Cache).ForEach", "dhtm/internal/core.(*DHTM).abortCleanup"}, "cache"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "dhtm/internal/memdev.(*Store).Clone"}, "memdev"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"dhtm/internal/baselines.(*htmBase).abort"}, "design"},
		{[]string{"encoding/json.(*decodeState).object", "dhtm/internal/serve.(*Server).handleSubmit"}, "serve"},
		{[]string{"runtime.coroswitch", "iter.Pull[...].func1", "dhtm/internal/engine.(*Engine).Run"}, "engine"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}
