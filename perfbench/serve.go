package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dhtm/internal/obs"
	"dhtm/internal/resultstore"
	"dhtm/internal/runner"
	"dhtm/internal/serve"
)

// Campaign make-up of serve-mixed. The sizes do not depend on --seed, so
// every run does the same amount of work; the seed picks each new cell's
// simulation seed and which earlier cells a campaign repeats.
const (
	serveCampaigns = 24 // campaigns per round on the first server
	serveOldCells  = 6  // cells an earlier campaign of the round served
	serveReplayGap = 3  // the second server replays every third campaign
)

// Every campaign's new cells run each micro-benchmark once, each on a
// different design, rotating from campaign to campaign (a Latin square), so
// all campaigns cost about the same and the latency percentiles do not fall
// between campaigns of different make-up. The OLTP workloads are left out:
// setting up their heaps would mask the service path.
var (
	serveDesigns   = []string{"SO", "sdTM", "ATOM", "LogTM-ATOM", "NP", "DHTM"}
	serveWorkloads = []string{"queue", "hash", "sdg", "sps", "btree", "rbtree"}
)

// serveMixed drives an in-process dhtm-serve with an on-disk store from one
// client. Each campaign is a small sweep; about half of its cells were
// served before (store reads) and the rest are new (simulations plus record
// writes). A unit is a campaign, timed from its POST until its tables are
// read. The round ends with a second server, opened over the same store
// directory, replaying earlier campaigns from disk.
type serveMixed struct{}

// campaign is one submitted sweep and what the client expects of it.
type campaign struct {
	plan   runner.Plan
	cached int    // cells an earlier campaign served
	table  string // the tables the first server rendered
}

// makeCampaigns generates a round's campaigns from the seed. Cells are tiny
// (2 cores, 1–2 transactions per core) so the service path is not masked by
// simulation.
func makeCampaigns(seed int64) []campaign {
	rng := rand.New(rand.NewSource(seed))
	var served []runner.Cell
	var out []campaign
	for c := 0; c < serveCampaigns; c++ {
		plan := runner.Plan{Name: fmt.Sprintf("campaign-%02d", c)}
		old := min(serveOldCells, len(served))
		for _, i := range rng.Perm(len(served))[:old] {
			plan.Cells = append(plan.Cells, served[i])
		}
		for j, w := range serveWorkloads {
			cell := runner.Cell{
				Design:    serveDesigns[(j+c)%len(serveDesigns)],
				Workload:  w,
				Cores:     2,
				TxPerCore: 1 + j%2,
				Seed:      1 + rng.Int63n(1<<40),
			}
			cell.ID = fmt.Sprintf("%s/%s/s%d", cell.Design, cell.Workload, cell.Seed)
			plan.Cells = append(plan.Cells, cell)
			served = append(served, cell)
		}
		out = append(out, campaign{plan: plan, cached: old})
	}
	return out
}

// server is one in-process dhtm-serve instance on a loopback listener.
type server struct {
	srv   *serve.Server
	store *resultstore.Store
	reg   *obs.Registry // the store's metric families
	http  *http.Server
	url   string
	done  chan error
}

func startServer(dir string) (*server, error) {
	reg := obs.NewRegistry()
	store, err := resultstore.Open(dir, resultstore.Options{Registry: reg})
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{Store: store, Workers: 1, CellParallel: 1, Registry: obs.NewRegistry()})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &server{srv: srv, store: store, reg: reg, http: &http.Server{Handler: srv.Handler()},
		url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// stop shuts the listener down, cancels the server's jobs and waits for both.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	s.srv.Close()
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// storeCounts reads one store's resultstore counters and I/O histograms.
type storeCounts struct {
	m                 resultstore.Metrics
	readN, writeN     uint64
	readSum, writeSum float64
}

func readStore(s *server) storeCounts {
	read := s.reg.Histogram("dhtm_resultstore_read_seconds", "", obs.IOBuckets, obs.L("tier", "disk"))
	write := s.reg.Histogram("dhtm_resultstore_write_seconds", "", obs.IOBuckets, obs.L("tier", "disk"))
	return storeCounts{m: s.store.Metrics(), readN: read.Count(), readSum: read.Sum(), writeN: write.Count(), writeSum: write.Sum()}
}

func (b *bench) observeStore(c storeCounts) {
	t := b.tr
	if t == nil {
		return
	}
	if c.readN > 0 {
		a := t.acc("resultstore.get")
		a.n.Add(int64(c.readN))
		a.sum.Add(int64(c.readSum * 1e9))
	}
	if c.writeN > 0 {
		a := t.acc("resultstore.put")
		a.n.Add(int64(c.writeN))
		a.sum.Add(int64(c.writeSum * 1e9))
	}
	t.countAdd("resultstore.mem_hits", c.m.MemHits)
	t.countAdd("resultstore.disk_hits", c.m.DiskHits)
	t.countAdd("resultstore.computes", c.m.Computes)
}

func (serveMixed) round(ctx context.Context, b *bench, i int) (roundResult, error) {
	var r roundResult
	// Every round starts from an empty store in the same directory, kept
	// from run to run: the records of the round before are deleted, the
	// shard directories stay, as they would in a store that has served for a
	// while. On an ext4 volume with online discard, deleting and recreating
	// whole store directories made later record writes up to three times
	// slower for minutes, runs that followed included.
	dir := filepath.Join(b.out, "serve-store")
	if err := emptyStore(dir); err != nil {
		return r, err
	}
	start := time.Now()
	camps := makeCampaigns(b.seed)
	srv, err := startServer(dir)
	if err != nil {
		return r, err
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	defer client.CloseIdleConnections()
	r.setup = time.Since(start)

	distinct := 0
	for ci := range camps {
		c := &camps[ci]
		distinct += len(c.plan.Cells) - c.cached
		table, took, err := b.runCampaign(ctx, client, srv.url, c.plan, c.cached)
		if err != nil {
			srv.stop()
			return r, fmt.Errorf("%s: %w", c.plan.Name, err)
		}
		c.table = table
		r.units = append(r.units, took)
	}
	cold := readStore(srv)
	if err := srv.stop(); err != nil {
		return r, err
	}

	// A second server over the same directory: every replayed cell must come
	// from disk, and its tables must match the first rendering.
	srv2, err := startServer(dir)
	if err != nil {
		return r, err
	}
	for ci := 0; ci < len(camps); ci += serveReplayGap {
		c := camps[ci]
		table, took, err := b.runCampaign(ctx, client, srv2.url, c.plan, len(c.plan.Cells))
		if err == nil {
			err = checkWarmTable(c.table, table)
		}
		if err != nil {
			srv2.stop()
			return r, fmt.Errorf("replay of %s: %w", c.plan.Name, err)
		}
		r.units = append(r.units, took)
	}
	warm := readStore(srv2)
	if err := srv2.stop(); err != nil {
		return r, err
	}
	r.wall = time.Since(start)
	r.attempted = len(r.units)
	b.observeStore(cold)
	b.observeStore(warm)
	if err := checkComputes(cold.m.Computes, distinct, warm.m.Computes); err != nil {
		return r, err
	}

	// The digest reads every distinct cell's record back from the store the
	// second server left behind.
	store, err := resultstore.Open(dir, resultstore.Options{})
	if err != nil {
		return r, err
	}
	d := newDigest()
	seen := map[string]bool{}
	for _, c := range camps {
		for _, cell := range c.plan.Cells {
			key := resultstore.Key{Cell: cell.Key(), Seed: cell.Seed}
			if seen[cell.ID] {
				continue
			}
			seen[cell.ID] = true
			res, ok := store.Get(key)
			if !ok || res.Stats == nil {
				return r, fmt.Errorf("cell %s has no stored record", cell.ID)
			}
			st := res.Stats
			r.sim.commits += res.Committed
			r.sim.aborts += st.TotalAborts()
			r.sim.cycles += res.Cycles
			d.line("%s|commits=%d|aborts=%d|cycles=%d|log=%d|data_w=%d|data_r=%d|records=%d|sentinels=%d",
				cell.ID, res.Committed, st.TotalAborts(), res.Cycles,
				st.LogBytes, st.DataWriteBytes, st.DataReadBytes, st.LogRecords, st.SentinelRecords)
		}
	}
	r.digest = d.sum()
	return r, nil
}

// emptyStore deletes every file under dir and keeps the directories. Two
// runs must not share an output directory at once.
func emptyStore(dir string) error {
	err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		return os.Remove(path)
	})
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	return err
}

// runCampaign submits one sweep, waits for it on its SSE stream and reads
// its tables. It checks that every cell finished, that cached and simulated
// cells add up to the plan, and that exactly wantCached cells were cached.
func (b *bench) runCampaign(ctx context.Context, client *http.Client, url string, plan runner.Plan, wantCached int) (string, time.Duration, error) {
	t := b.tr
	body, err := json.Marshal(serve.JobSpec{Kind: serve.KindSweep, Plan: &plan})
	if err != nil {
		return "", 0, err
	}
	start := time.Now()
	root := t.begin("campaign", plan.Name, 0)
	defer t.end(root)

	sp := t.begin("serve POST /api/v1/jobs", plan.Name, root)
	var st serve.Status
	err = doJSON(ctx, client, http.MethodPost, url+"/api/v1/jobs", body, http.StatusAccepted, &st)
	t.timed(sp, "serve.submit")
	if err != nil {
		return "", 0, err
	}

	sp = t.begin("serve GET /events", plan.Name, root)
	counts, err := awaitJob(ctx, client, url+"/api/v1/jobs/"+st.ID+"/events")
	t.timed(sp, "serve.await")
	if err != nil {
		return "", 0, err
	}

	sp = t.begin("serve GET /tables", plan.Name, root)
	table, err := get(ctx, client, url+"/api/v1/jobs/"+st.ID+"/tables")
	t.timed(sp, "serve.tables")
	took := time.Since(start)
	if err != nil {
		return "", 0, err
	}
	if err := checkCampaignCounts(counts, len(plan.Cells), wantCached); err != nil {
		return "", 0, err
	}
	return table, took, nil
}

// jobCounts tallies a job's SSE stream.
type jobCounts struct {
	cached, simulated, failed int
	state                     string
}

// awaitJob reads the job's event stream until the server closes it with a
// terminal state.
func awaitJob(ctx context.Context, client *http.Client, url string) (jobCounts, error) {
	var c jobCounts
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return c, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return c, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return c, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
			if event == "done" {
				// Drain the frame so the connection can be reused.
				_, _ = io.Copy(io.Discard, resp.Body)
				return c, nil
			}
		case strings.HasPrefix(line, "data: "):
			var ev serve.Event
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				return c, fmt.Errorf("event stream: %w", err)
			}
			switch {
			case event == "cell" && ev.CellError != "":
				c.failed++
			case event == "cell" && ev.Cached:
				c.cached++
			case event == "cell":
				c.simulated++
			case event == "state":
				c.state = string(ev.State)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return c, err
	}
	return c, fmt.Errorf("event stream ended without a done frame")
}

func doJSON(ctx context.Context, client *http.Client, method, url string, body []byte, want int, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

func get(ctx context.Context, client *http.Client, url string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", err
	}
	resp, err := client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(data))
	}
	return string(data), nil
}

// checkCampaignCounts requires a finished job whose cached and simulated
// cells add up to the plan, with exactly the cells served before cached.
func checkCampaignCounts(c jobCounts, total, wantCached int) error {
	if c.state != string(serve.StateDone) {
		return fmt.Errorf("job ended %q, want done", c.state)
	}
	if c.failed != 0 {
		return fmt.Errorf("%d cells failed", c.failed)
	}
	if c.cached+c.simulated != total {
		return fmt.Errorf("%d cached + %d simulated cells, the plan has %d", c.cached, c.simulated, total)
	}
	if c.cached != wantCached {
		return fmt.Errorf("%d cells cached, %d were served before", c.cached, wantCached)
	}
	return nil
}

// checkComputes requires the first server's store to have simulated each
// distinct cell exactly once and the replaying server's store none.
func checkComputes(cold uint64, distinct int, warm uint64) error {
	if cold != uint64(distinct) {
		return fmt.Errorf("result store computed %d cells, %d distinct cells were submitted", cold, distinct)
	}
	if warm != 0 {
		return fmt.Errorf("replaying server computed %d cells, want 0", warm)
	}
	return nil
}

// checkWarmTable requires a replayed campaign's tables to be byte-identical
// to the first rendering of the same cells, except for the "cached" column,
// which must read "yes" on every replayed row.
func checkWarmTable(cold, warm string) error {
	coldLines := strings.Split(cold, "\n")
	warmLines := strings.Split(warm, "\n")
	if len(coldLines) != len(warmLines) || len(coldLines) < 3 {
		return fmt.Errorf("replayed tables have %d lines, first rendering %d", len(warmLines), len(coldLines))
	}
	header := coldLines[1]
	at := strings.Index(header, "  cached  ")
	if at < 0 || warmLines[1] != header {
		return fmt.Errorf("tables lack the cached column or their headers differ")
	}
	at += 2
	const width = len("cached")
	for i := range coldLines {
		c, w := coldLines[i], warmLines[i]
		if i >= 3 && strings.TrimSpace(c) != "" && !strings.HasPrefix(strings.TrimSpace(c), "note:") {
			if len(w) < at+width || strings.TrimSpace(w[at:at+width]) != "yes" {
				return fmt.Errorf("replayed row %d is not marked cached: %q", i, w)
			}
			if len(c) >= at+width && len(w) >= at+width {
				c = c[:at] + c[at+width:]
				w = w[:at] + w[at+width:]
			}
		}
		if c != w {
			return fmt.Errorf("replayed table line %d differs:\n first: %q\nreplay: %q", i, coldLines[i], warmLines[i])
		}
	}
	return nil
}
