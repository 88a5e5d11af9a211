package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
)

// sweepConfig is the seeded grid: 3 algorithms × 3 malleable shares ×
// seeds, each cell a 10-job simulation on 32 nodes — tiny cells, so the
// lease and journal machinery, not the simulations, dominate.
func sweepConfig(seed uint64, tiny bool) experiments.SweepConfig {
	seeds := 300
	if tiny {
		seeds = 3
	}
	cfg := experiments.SweepConfig{
		Algorithms: []string{"fcfs", "easy", "adaptive"},
		Shares:     []float64{0, 0.5, 1},
		Jobs:       10,
		Nodes:      32,
	}
	for i := 0; i < seeds; i++ {
		cfg.Seeds = append(cfg.Seeds, seed*100000+uint64(i))
	}
	return cfg
}

// sweepArgs renders the grid as sweep command-line flags.
func sweepArgs(cfg experiments.SweepConfig) []string {
	var shares, seeds []string
	for _, s := range cfg.Shares {
		shares = append(shares, strconv.FormatFloat(s, 'g', -1, 64))
	}
	for _, s := range cfg.Seeds {
		seeds = append(seeds, strconv.FormatUint(s, 10))
	}
	return []string{
		"-algorithms", strings.Join(cfg.Algorithms, ","),
		"-shares", strings.Join(shares, ","),
		"-seeds", strings.Join(seeds, ","),
		"-jobs", strconv.Itoa(cfg.Jobs),
		"-nodes", strconv.Itoa(cfg.Nodes),
	}
}

// sweepGrid is one distributed run of the grid.
type sweepGrid struct {
	traced       bool
	dir          string        // journal and worker profiles
	setup        time.Duration // coordinator spawn to first served claim
	active       time.Duration // first claim to every cell settled
	coordCPU     time.Duration
	workerCPU    time.Duration
	rssMB        float64
	csv          []byte
	journalBytes int64
	metrics      scrape // coordinator counters at settlement
}

func runSweepLease(ctx context.Context, o Options) (*Report, error) {
	cfg := sweepConfig(o.Seed, o.Tiny)
	size := experiments.GridSize(cfg)
	var tr *tracer
	if o.Trace {
		tr = newTracer()
	}

	// The reference: the in-memory SweepContext path, in-process.
	refGroup := tr.newID()
	t0 := time.Now()
	pts, _, err := experiments.SweepContext(ctx, cfg)
	if err != nil {
		return nil, err
	}
	inmem := time.Since(t0)
	tr.record(span{name: "experiments.SweepContext", id: refGroup, group: refGroup, start: t0, end: t0.Add(inmem)})
	var ref bytes.Buffer
	if err := experiments.WriteSweepCSV(&ref, pts); err != nil {
		return nil, err
	}

	var g procGroup
	defer g.killAll()
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	args := sweepArgs(cfg)
	rep := &Report{}
	// Extra set-ups, stopped at the first claim: one sample per grid is
	// too few for a steady median.
	var setup []float64
	setupReps := 6
	switch {
	case o.Trace:
		setupReps = 0
	case o.Tiny:
		setupReps = 1
	}
	for i := 0; i < setupReps; i++ {
		gr, err := sweepOnce(ctx, &g, o, hc, args, size, false, true, tr)
		if err != nil {
			return nil, err
		}
		setup = append(setup, seconds(gr.setup))
	}
	var grids []sweepGrid
	start := time.Now()
	for i := 0; i < 2 || time.Since(start) < o.Seconds; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		withTrace := o.Trace && i%2 == 1
		grid, err := sweepOnce(ctx, &g, o, hc, args, size, withTrace, false, tr)
		if err != nil {
			return nil, err
		}
		for _, p := range checkSweepCSV(grid.csv, ref.Bytes(), size) {
			rep.settle(fmt.Sprintf("grid %d cell", i), p)
		}
		grids = append(grids, grid)
	}

	if !o.Trace {
		var rate, wall, rss []float64
		for _, gr := range grids {
			setup = append(setup, seconds(gr.setup))
			rate = append(rate, float64(size)/seconds(gr.active))
			wall = append(wall, millis(gr.active))
			rss = append(rss, gr.rssMB)
		}
		n := len(grids)
		rep.add("setup_s", median(setup), "s", len(setup))
		rep.add("work_per_s", median(rate), "1/s", n)
		rep.add("latency_p50_ms", median(wall), "ms", n)
		// The median, not the maximum: the number of grids a run fits
		// varies, and the maximum would grow with it.
		rep.add("peak_rss_mb", median(rss), "MB", n)
		return rep, nil
	}

	// In-process RunCell on a sample of cells: the simulation cost a
	// worker pays per cell, against which the lease overhead is measured.
	var cellMS []float64
	stride := max(1, size/100)
	for i := 0; i < size; i += stride {
		c := experiments.CellAt(cfg, i)
		t0 := time.Now()
		if _, err := experiments.RunCell(ctx, c); err != nil {
			return nil, err
		}
		t1 := time.Now()
		cellMS = append(cellMS, millis(t1.Sub(t0)))
		tr.record(span{name: "experiments.RunCell", group: refGroup, parent: refGroup, track: 1, start: t0, end: t1})
	}
	runcell := median(cellMS)

	var traced, plain []sweepGrid
	for _, gr := range grids {
		if gr.traced {
			traced = append(traced, gr)
		} else {
			plain = append(plain, gr)
		}
	}
	last := traced[len(traced)-1]
	m := last.metrics
	var activeT, activeP []float64
	for _, gr := range traced {
		activeT = append(activeT, seconds(gr.active))
	}
	for _, gr := range plain {
		activeP = append(activeP, seconds(gr.active))
	}
	cells := float64(size)
	rep.add("journal.bytes_per_cell", float64(last.journalBytes)/cells, "B", 0)
	rep.add("journal.group_commits", m.sum("sweep_journal_group_commits_total"), "count", 0)
	rep.add("lease.cells_per_claim", ratio(m.sum("sweep_cell_claims_total"), m.sum("sweep_cell_batch_claims_total")), "count", 0)
	rep.add("lease.overhead_ms_per_cell", 2*1000*median(activeT)/cells-runcell, "ms", len(traced))
	rep.add("lease.steals", m.sum("sweep_cell_steals_total"), "count", 0)
	rep.add("lease.expirations", m.sum("sweep_lease_expirations_total"), "count", 0)
	rep.add("coordinator.cpu_s", seconds(last.coordCPU), "s", 0)
	rep.add("worker.cpu_s", seconds(last.workerCPU), "s", 0)
	rep.add("experiments.runcell_ms", runcell, "ms", len(cellMS))
	rep.add("experiments.inmem_cells_per_s", cells/seconds(inmem), "1/s", 0)
	shares := newCPUShares()
	for w := 1; w <= 2; w++ {
		data, err := os.ReadFile(filepath.Join(last.dir, fmt.Sprintf("w%d.pprof", w)))
		if err != nil {
			return nil, err
		}
		if err := shares.add(data); err != nil {
			return nil, err
		}
	}
	shares.addTo(rep)
	rep.add("trace.overhead_frac", median(activeT)/median(activeP)-1, "ratio", len(traced))
	return rep, tr.writeFile(o.artifact("trace", ".json"))
}

// sweepOnce runs the grid once on a real coordinator (-serve, sharded
// group-committed journal) and two real -connect workers leasing 16 cells
// per claim. Settlement is observed on the coordinator's /metrics, so the
// coordinator's fixed post-settle grace is not measured. With setupOnly
// the processes are killed at the first served claim.
func sweepOnce(ctx context.Context, g *procGroup, o Options, hc *http.Client, gridArgs []string, size int, traced, setupOnly bool, tr *tracer) (sweepGrid, error) {
	dir := filepath.Join(o.Work, fmt.Sprintf("sweep-%d", len(g.children)))
	gr := sweepGrid{traced: traced, dir: dir}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return gr, err
	}
	bin := filepath.Join(o.Bin, "sweep")
	journal := filepath.Join(dir, "grid.jsonl")
	coord, err := g.start(bin, append([]string{"-serve", "127.0.0.1:0", "-journal", journal, "-shards", "4", "-group-commit", "2ms"}, gridArgs...), "coordinator listening on ")
	if err != nil {
		return gr, err
	}
	addr, err := coord.waitAddr(ctx, 60*time.Second)
	if err != nil {
		return gr, err
	}
	base := "http://" + addr
	var workers []*child
	for w := 1; w <= 2; w++ {
		args := []string{"-connect", base, "-lease-batch", "16", "-worker-name", fmt.Sprintf("w%d", w)}
		if traced {
			args = append(args, "-cpuprofile", filepath.Join(dir, fmt.Sprintf("w%d.pprof", w)))
		}
		c, err := g.start(bin, args, "")
		if err != nil {
			return gr, err
		}
		workers = append(workers, c)
	}
	var last scrape
	probe := func(done func(scrape) bool) func() (bool, error) {
		return func() (bool, error) {
			s, err := scrapeURL(ctx, hc, base+"/metrics")
			if err != nil {
				return false, err
			}
			last = s
			return done(s), nil
		}
	}
	first, err := pollUntil(ctx, time.Millisecond, 60*time.Second, probe(func(s scrape) bool {
		return s.sum("sweep_cell_claims_total") > 0
	}))
	if err != nil {
		return gr, fmt.Errorf("waiting for the first claim: %w\n%s", err, coord.stderrText())
	}
	gr.setup = first.Sub(coord.started)
	if setupOnly {
		for _, c := range append(workers, coord) {
			c.kill()
		}
		return gr, nil
	}
	settled, err := pollUntil(ctx, 10*time.Millisecond, 120*time.Second, probe(func(s scrape) bool {
		return s.sum("sweep_cells_finished_total") >= float64(size)
	}))
	if err != nil {
		return gr, fmt.Errorf("waiting for settlement: %w\n%s", err, coord.stderrText())
	}
	gr.active = settled.Sub(first)
	gr.metrics = last
	group := tr.newID()
	tr.record(span{name: "coordinator start to first claim", track: 2, group: group, parent: group, start: coord.started, end: first})
	tr.record(span{name: "grid settle", track: 2, group: group, parent: group, start: first, end: settled})
	tr.record(span{name: "grid", id: group, track: 2, group: group, start: coord.started, end: settled})

	if err := coord.wait(60 * time.Second); err != nil {
		return gr, err
	}
	for _, w := range workers {
		if err := w.wait(60 * time.Second); err != nil {
			return gr, err
		}
		gr.workerCPU += rusageCPU(w.rusage())
		gr.rssMB += w.peakRSSMB()
	}
	gr.coordCPU = rusageCPU(coord.rusage())
	gr.rssMB += coord.peakRSSMB()
	gr.csv = coord.stdout.Bytes()
	files, _ := filepath.Glob(journal + "*")
	for _, f := range files {
		if st, err := os.Stat(f); err == nil {
			gr.journalBytes += st.Size()
		}
	}
	return gr, nil
}

// checkSweepCSV compares the distributed sweep's CSV with the in-memory
// reference row for row, every column but wall_ms (journaled runs zero
// it). It returns one problem list per cell, so each cell counts as one
// attempted operation; a cell missing or duplicated fails.
func checkSweepCSV(got, want []byte, size int) [][]string {
	strip := func(data []byte) (string, []string) {
		lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
		for i, l := range lines {
			if j := strings.LastIndexByte(l, ','); j >= 0 {
				lines[i] = l[:j]
			}
		}
		return lines[0], lines[1:]
	}
	wantHead, wantRows := strip(want)
	gotHead, gotRows := strip(got)
	out := make([][]string, size)
	if gotHead != wantHead {
		for i := range out {
			out[i] = []string{fmt.Sprintf("CSV header %q, want %q", gotHead, wantHead)}
		}
		return out
	}
	key := func(row string) string {
		f := strings.SplitN(row, ",", 4)
		return strings.Join(f[:min(3, len(f))], ",")
	}
	index := map[string]int{}
	for i, r := range wantRows {
		index[key(r)] = i
	}
	seen := make([]int, size)
	for pos, r := range gotRows {
		i, ok := index[key(r)]
		if !ok || i >= size {
			out[0] = append(out[0], fmt.Sprintf("row %q is no cell of the grid", r))
			continue
		}
		seen[i]++
		switch {
		case r != wantRows[i]:
			out[i] = append(out[i], fmt.Sprintf("row %q, reference %q", r, wantRows[i]))
		case pos != i:
			out[i] = append(out[i], fmt.Sprintf("row at position %d, reference at %d", pos, i))
		}
	}
	for i, n := range seen {
		if n != 1 {
			out[i] = append(out[i], fmt.Sprintf("cell %q appears %d times", key(wantRows[i]), n))
		}
	}
	if len(wantRows) != size {
		out[0] = append(out[0], fmt.Sprintf("reference has %d rows for %d cells", len(wantRows), size))
	}
	return out
}
