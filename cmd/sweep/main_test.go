package main

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/distwork"
	"repro/internal/experiments"
	"repro/internal/httpapi"
	"repro/internal/obs"
)

// workerGrid is eight real cells, a few tens of milliseconds each.
func workerGrid() experiments.SweepConfig {
	return experiments.SweepConfig{
		Algorithms: []string{"fcfs", "easy"},
		Shares:     []float64{0, 1},
		Seeds:      []uint64{1, 2},
		Jobs:       200,
		Nodes:      64,
	}
}

// referenceCSV is the in-memory SweepContext grid with each result
// canonicalized the way the journal stores it (wall_ms 0) — what
// `sweep -journal` prints for the same grid.
func referenceCSV(t *testing.T, cfg experiments.SweepConfig) string {
	t.Helper()
	pts, done, err := experiments.SweepContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		if !done[i] {
			t.Fatalf("reference cell %d incomplete", i)
		}
		enc, err := experiments.EncodeCellResult(pts[i])
		if err != nil {
			t.Fatal(err)
		}
		if pts[i], err = experiments.DecodeCellResult(enc); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := experiments.WriteSweepCSV(&buf, pts); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// serveGrid opens a journaled grid and serves its lease API in process,
// the way runCoordinator does; wrap (optional) sees every request.
func serveGrid(t *testing.T, cfg experiments.SweepConfig, lease time.Duration, reg *obs.Registry, wrap func(http.Handler) http.Handler) (*experiments.Grid, string) {
	t.Helper()
	grid, err := experiments.OpenGrid(filepath.Join(t.TempDir(), "grid.jsonl"), cfg, experiments.GridOptions{Lease: lease, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { grid.Close() })
	mux := http.NewServeMux()
	(&httpapi.LeaseAPI[experiments.GridCell]{Store: grid.Store()}).Register(mux)
	var h http.Handler = mux
	if wrap != nil {
		h = wrap(mux)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return grid, srv.URL
}

func emitCSV(t *testing.T, grid *experiments.Grid) string {
	t.Helper()
	var buf bytes.Buffer
	rows, err := grid.EmitCSV(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rows != grid.Size() {
		t.Fatalf("grid emitted %d rows, want %d", rows, grid.Size())
	}
	return buf.String()
}

// TestWorkerCSVMatchesSweep pins that a -connect worker, with the
// default batch of one and with -lease-batch 3, settles every cell with
// the result the in-memory sweep computes: the coordinator's CSV is
// byte-identical to the SweepContext reference.
func TestWorkerCSVMatchesSweep(t *testing.T) {
	cfg := workerGrid()
	want := referenceCSV(t, cfg)
	for _, batch := range []int{1, 3} {
		grid, url := serveGrid(t, cfg, time.Minute, nil, nil)
		if err := runWorker(context.Background(), url, "w1", batch); err != nil {
			t.Fatalf("batch %d: worker: %v", batch, err)
		}
		if !grid.Store().Settled() {
			t.Fatalf("batch %d: grid not settled after the worker exited", batch)
		}
		if got := emitCSV(t, grid); got != want {
			t.Fatalf("batch %d: CSV differs from the sweep reference:\n got:\n%s\nwant:\n%s", batch, got, want)
		}
	}
}

// TestWorkerCancelReleasesUnrunCells pins the interrupt path: a context
// cancelled while a batch is running returns the worker's unrun cells to
// pending before runWorker returns (released, not left to expire), keeps
// the cells it settled settled, and a second worker then finishes the
// grid without re-running a settled cell.
func TestWorkerCancelReleasesUnrunCells(t *testing.T) {
	cfg := workerGrid()
	want := referenceCSV(t, cfg)
	for _, batch := range []int{1, 3} {
		ctx, cancel := context.WithCancel(context.Background())
		var (
			finishes atomic.Int32
			once     sync.Once
		)
		// Heartbeats only flow while a batch runs, so cancelling from the
		// first heartbeat after a settled batch lands mid-batch, never
		// during a claim.
		wrap := func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				switch r.URL.Path {
				case "/v1/tasks/finish-batch":
					finishes.Add(1)
				case "/v1/tasks/heartbeat-batch":
					if finishes.Load() > 0 {
						once.Do(cancel)
					}
				}
				next.ServeHTTP(w, r)
			})
		}
		reg := obs.NewRegistry()
		// A short lease makes heartbeats frequent; with one worker no
		// lease can expire, because it settles or releases a batch before
		// it claims again.
		grid, url := serveGrid(t, cfg, 30*time.Millisecond, reg, wrap)
		err := runWorker(ctx, url, "w1", batch)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("batch %d: worker returned %v, want context.Canceled (did the cancel land?)", batch, err)
		}
		counts := grid.Store().Counts()
		if n := counts[distwork.StateClaimed] + counts[distwork.StateRunning]; n != 0 {
			t.Fatalf("batch %d: %d cells still leased after the worker returned: %v", batch, n, counts)
		}
		settled := grid.Completed()
		if settled == 0 || settled == grid.Size() {
			t.Fatalf("batch %d: %d of %d cells settled; the cancel did not land mid-grid", batch, settled, grid.Size())
		}
		released := 0
		for _, task := range grid.Store().List() {
			if task.State == distwork.StatePending && task.Attempts > 0 {
				if !strings.Contains(task.Note, "interrupted; requeued") {
					t.Fatalf("batch %d: requeued cell %s has note %q, want a release", batch, task.ID, task.Note)
				}
				released++
			}
		}
		t.Logf("batch %d: cancelled with %d cells settled, %d released", batch, settled, released)

		// A fresh worker finishes the grid from where the first stopped.
		if err := runWorker(context.Background(), url, "w2", batch); err != nil {
			t.Fatalf("batch %d: second worker: %v", batch, err)
		}
		if got := emitCSV(t, grid); got != want {
			t.Fatalf("batch %d: CSV after resume differs from the sweep reference:\n got:\n%s\nwant:\n%s", batch, got, want)
		}
		// Exactly-once: every cell was claimed once, plus one re-claim per
		// released cell — no settled cell ran again.
		claims := reg.Counter("sweep_cell_claims_total").Value()
		steals := reg.Counter("sweep_cell_steals_total").Value()
		if int(claims) != grid.Size()+released || int(steals) != released {
			t.Fatalf("batch %d: claims=%v steals=%v, want %d and %d", batch, claims, steals, grid.Size()+released, released)
		}
	}
}

// TestGridConfigRejectsBadAxes pins that a bad grid is a usage error
// (exit 2) at flag parse, before any cell runs — an unknown algorithm
// name included, which would otherwise fail only after the valid cells
// had run.
func TestGridConfigRejectsBadAxes(t *testing.T) {
	for _, tc := range []struct{ algorithms, shares, seeds string }{
		{"fcfs,bogus", "0", "1"},
		{"fcfs", "0,1.5", "1"},
		{"fcfs", "0", "1,x"},
	} {
		if _, err := gridConfig(tc.algorithms, tc.shares, tc.seeds, 10, 16, 1); !errors.Is(err, cli.ErrUsage) {
			t.Errorf("%+v: err = %v, want a usage error", tc, err)
		}
	}
	cfg, err := gridConfig("fcfs,easy", "0,0.5", "1,2", 10, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if experiments.GridSize(cfg) != 8 {
		t.Fatalf("grid %+v has %d cells, want 8", cfg, experiments.GridSize(cfg))
	}
}
