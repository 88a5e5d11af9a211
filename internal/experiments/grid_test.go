package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/distwork"
)

// smallGrid is a 4-cell config cheap enough to simulate for real.
func smallGrid() SweepConfig {
	return SweepConfig{
		Algorithms: []string{"fcfs", "easy"},
		Shares:     []float64{0, 1},
		Seeds:      []uint64{1},
		Jobs:       6,
		Nodes:      16,
	}
}

// fakeCells returns a runCell seam producing deterministic synthetic
// results and counting executions per cell index.
func fakeCells(t *testing.T, runs map[int]int, mu *sync.Mutex, hook func(ctx context.Context, c GridCell) error) func(ctx context.Context, c GridCell) (SweepPoint, error) {
	t.Helper()
	return func(ctx context.Context, c GridCell) (SweepPoint, error) {
		mu.Lock()
		runs[c.Index]++
		mu.Unlock()
		if hook != nil {
			if err := hook(ctx, c); err != nil {
				return SweepPoint{}, err
			}
		}
		return SweepPoint{
			Algorithm:      c.Algorithm,
			MalleableShare: c.Share,
			Seed:           c.Seed,
			Jobs:           c.Jobs,
			Events:         uint64(1000 + c.Index),
		}, nil
	}
}

// TestGridRunMatchesSweep pins that a journaled grid run over real
// simulations produces the same grid as SweepContext, modulo the
// canonicalized wall clock (journal results carry wall_ms=0).
func TestGridRunMatchesSweep(t *testing.T) {
	cfg := smallGrid()
	direct, done, err := SweepContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range done {
		if !d {
			t.Fatalf("direct cell %d incomplete", i)
		}
	}
	path := filepath.Join(t.TempDir(), "grid.jsonl")
	grid, err := OpenGrid(path, cfg, GridOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer grid.Close()
	if err := grid.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	pts, gdone, err := grid.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(direct) {
		t.Fatalf("grid returned %d points, want %d", len(pts), len(direct))
	}
	for i := range pts {
		if !gdone[i] {
			t.Fatalf("grid cell %d incomplete", i)
		}
		want, err := EncodeCellResult(direct[i])
		if err != nil {
			t.Fatal(err)
		}
		got, err := EncodeCellResult(pts[i])
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("cell %d differs:\n got %s\nwant %s", i, got, want)
		}
	}
}

// TestGridResumeNoRerun pins resume semantics: a grid interrupted
// mid-run and reopened with Resume re-runs only the unfinished cells —
// completed cells replay from the journal — and the merged CSV is
// byte-identical to an uninterrupted run.
func TestGridResumeNoRerun(t *testing.T) {
	cfg := smallGrid()
	cells := GridCells(cfg)

	// Reference: uninterrupted run with the same fake cells.
	var mu sync.Mutex
	refRuns := map[int]int{}
	refPath := filepath.Join(t.TempDir(), "ref.jsonl")
	refGrid, err := OpenGrid(refPath, cfg, GridOptions{Workers: 1, runCell: fakeCells(t, refRuns, &mu, nil)})
	if err != nil {
		t.Fatal(err)
	}
	if err := refGrid.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	var refCSV bytes.Buffer
	if _, err := refGrid.EmitCSV(&refCSV, nil); err != nil {
		t.Fatal(err)
	}
	refGrid.Close()

	// Interrupted run: sequential workers, the third cell aborts the ctx
	// (standing in for the process being killed mid-cell).
	path := filepath.Join(t.TempDir(), "grid.jsonl")
	runs := map[int]int{}
	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	killAt := 2
	grid1, err := OpenGrid(path, cfg, GridOptions{
		Workers: 1,
		runCell: fakeCells(t, runs, &mu, func(ctx context.Context, c GridCell) error {
			if c.Index == killAt {
				cancel1()
				return fmt.Errorf("cell stopped: %w", ctx.Err())
			}
			return nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := grid1.Run(ctx1); err == nil {
		t.Fatal("interrupted run should report an error")
	}
	_, done1, err := grid1.Collect()
	if err != nil {
		t.Fatal(err)
	}
	grid1.Close()
	if !done1[0] || !done1[1] || done1[killAt] {
		t.Fatalf("first run done bitmap: %v", done1)
	}

	// Resume: only unfinished cells run.
	grid2, err := OpenGrid(path, cfg, GridOptions{
		Workers: 1, Resume: true,
		runCell: fakeCells(t, runs, &mu, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer grid2.Close()
	if err := grid2.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, done2, err := grid2.Collect()
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		if !done2[i] {
			t.Fatalf("cell %d incomplete after resume", i)
		}
		wantRuns := 1
		if i == killAt {
			wantRuns = 2 // the interrupted cell itself re-runs
		}
		if runs[i] != wantRuns {
			t.Fatalf("cell %d ran %d times, want %d (completed cells must not re-run)", i, runs[i], wantRuns)
		}
	}
	var gotCSV bytes.Buffer
	if _, err := grid2.EmitCSV(&gotCSV, nil); err != nil {
		t.Fatal(err)
	}
	if gotCSV.String() != refCSV.String() {
		t.Fatalf("resumed CSV differs from uninterrupted run:\n got:\n%s\nwant:\n%s", gotCSV.String(), refCSV.String())
	}
}

// TestGridRefusesMismatch pins the journal-vs-grid safety checks.
func TestGridRefusesMismatch(t *testing.T) {
	cfg := smallGrid()
	var mu sync.Mutex
	path := filepath.Join(t.TempDir(), "grid.jsonl")
	g, err := OpenGrid(path, cfg, GridOptions{Workers: 1, runCell: fakeCells(t, map[int]int{}, &mu, nil)})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	g.Close()

	// Existing journal without Resume is refused.
	if _, err := OpenGrid(path, cfg, GridOptions{}); err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Fatalf("want already-exists refusal, got %v", err)
	}
	// Resume with a different grid is refused.
	other := cfg
	other.Seeds = []uint64{1, 2}
	if _, err := OpenGrid(path, other, GridOptions{Resume: true}); err == nil || !strings.Contains(err.Error(), "different sweep") {
		t.Fatalf("want different-sweep refusal, got %v", err)
	}
}

// TestGridFailedCellLowestIndexWins pins the deterministic error
// contract: the failed cell with the lowest index names the error,
// whatever order the cells finished in.
func TestGridFailedCellLowestIndexWins(t *testing.T) {
	cfg := smallGrid()
	var mu sync.Mutex
	grid, err := OpenGrid("", cfg, GridOptions{
		Workers: 2,
		runCell: fakeCells(t, map[int]int{}, &mu, func(_ context.Context, c GridCell) error {
			if c.Index == 1 || c.Index == 3 {
				return fmt.Errorf("boom %d", c.Index)
			}
			return nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer grid.Close()
	if err := grid.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "cell 1") {
		t.Fatalf("want lowest failing index in error, got %v", err)
	}
	_, done, err := grid.Collect()
	if err == nil || !strings.Contains(err.Error(), "cell 1") {
		t.Fatalf("want lowest failing index from Collect, got %v", err)
	}
	if !done[0] || done[1] || !done[2] || done[3] {
		t.Fatalf("done bitmap: %v", done)
	}
	if n := grid.Completed(); n != 2 {
		t.Fatalf("completed count: %d", n)
	}
}

// TestGridLeaseExpiryReclaims exercises the work-stealing path through
// the store underneath a grid: a claim that never heartbeats lapses and
// the cell is claimed again.
func TestGridLeaseExpiryReclaims(t *testing.T) {
	cfg := smallGrid()
	grid, err := OpenGrid("", cfg, GridOptions{Lease: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer grid.Close()
	st := grid.Store()
	first, ok := st.TryClaim("w-dead")
	if !ok {
		t.Fatal("claim failed")
	}
	deadline := time.Now().Add(5 * time.Second)
	for st.ExpireLeases() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("lease never expired")
		}
		time.Sleep(5 * time.Millisecond)
	}
	stolen, ok := st.TryClaim("w-live")
	if !ok || stolen.ID != first.ID || stolen.Attempts != 2 {
		t.Fatalf("steal: %+v ok=%v", stolen, ok)
	}
}

// TestGridCancellationStopsDispatch pins the interrupt contract of a
// memory-only grid (the engine under SweepContext): once the context is
// cancelled no further cell is dispatched, Run returns ctx.Err(), and
// the cells that completed stay valid in grid order. Cell errors that
// merely wrap the cancellation are attributed to it, not to the cell.
func TestGridCancellationStopsDispatch(t *testing.T) {
	cfg := SweepConfig{Algorithms: []string{"fcfs"}, Shares: []float64{0}, Jobs: 1, Nodes: 1}
	for i := range 64 {
		cfg.Seeds = append(cfg.Seeds, uint64(i+1))
	}
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var (
			mu  sync.Mutex
			ran atomic.Int32
		)
		grid, err := OpenGrid("", cfg, GridOptions{
			Workers: workers,
			runCell: fakeCells(t, map[int]int{}, &mu, func(ctx context.Context, c GridCell) error {
				if ran.Add(1) == 5 {
					cancel()
				}
				if ctx.Err() != nil {
					return fmt.Errorf("cell %d: %w", c.Index, ctx.Err())
				}
				return nil
			}),
		})
		if err != nil {
			t.Fatal(err)
		}
		err = grid.Run(ctx)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if int(ran.Load()) >= grid.Size() {
			t.Errorf("workers=%d: all %d cells dispatched despite cancellation", workers, grid.Size())
		}
		pts, done, err := grid.Collect()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		completed := 0
		for i, d := range done {
			if d {
				completed++
				if pts[i].Events != uint64(1000+i) || pts[i].Seed != uint64(i+1) {
					t.Errorf("workers=%d: done cell %d holds %+v", workers, i, pts[i])
				}
			}
		}
		if completed == 0 || completed != grid.Completed() {
			t.Errorf("workers=%d: %d cells done, Completed() = %d", workers, completed, grid.Completed())
		}
		grid.Close()
	}
}

// TestGridRealErrorBeatsCancellation pins that a genuine cell failure
// wins over the cancellation it races with in Run's error.
func TestGridRealErrorBeatsCancellation(t *testing.T) {
	cfg := smallGrid()
	cfg.Seeds = []uint64{1, 2, 3, 4}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	grid, err := OpenGrid("", cfg, GridOptions{
		Workers: 4,
		runCell: fakeCells(t, map[int]int{}, &mu, func(ctx context.Context, c GridCell) error {
			if c.Index == 2 {
				cancel()
				return errors.New("boom")
			}
			return ctx.Err()
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer grid.Close()
	if err := grid.Run(ctx); err == nil || !strings.Contains(err.Error(), "cell 2") || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want the failure of cell 2", err)
	}
}

// TestGridEmitCSVPartialIndexOrder pins the partial-grid merge contract:
// completed rows come out in cell-index order, never in completion
// order, so a partial flush is a prefix-stable subset of the full grid —
// for memory-only and journaled grids alike.
func TestGridEmitCSVPartialIndexOrder(t *testing.T) {
	cfg := SweepConfig{Algorithms: []string{"fcfs"}, Shares: []float64{0}, Seeds: []uint64{1, 2, 3, 4, 5}, Jobs: 1, Nodes: 1}
	for _, path := range []string{"", filepath.Join(t.TempDir(), "grid.jsonl")} {
		grid, err := OpenGrid(path, cfg, GridOptions{})
		if err != nil {
			t.Fatal(err)
		}
		st := grid.Store()
		tasks := st.TryClaimBatch("w", grid.Size())
		if len(tasks) != grid.Size() {
			t.Fatalf("claimed %d of %d cells", len(tasks), grid.Size())
		}
		point := func(i int) SweepPoint {
			c := tasks[i].Payload
			return SweepPoint{Algorithm: c.Algorithm, Seed: c.Seed, Jobs: c.Jobs, Events: uint64(1000 + i)}
		}
		// Completion arrives out of order: 4 first, then 1, then 3.
		for _, i := range []int{4, 1, 3} {
			enc, err := EncodeCellResult(point(i))
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Finish(tasks[i].ID, "w", enc, nil); err != nil {
				t.Fatal(err)
			}
		}
		var want, got bytes.Buffer
		if err := WriteSweepCSV(&want, []SweepPoint{point(1), point(3), point(4)}); err != nil {
			t.Fatal(err)
		}
		rows, err := grid.EmitCSV(&got, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rows != 3 || got.String() != want.String() {
			t.Fatalf("path %q: %d rows:\n%s\nwant index order:\n%s", path, rows, got.String(), want.String())
		}
		grid.Close()
	}
}

// TestGridOnCellDoneCountsSettlements pins that progress is counted
// where a cell settles done, not where it runs: a grid settled only
// through Store.FinishBatch (a coordinator's remote workers) fires
// OnCellDone once per done cell, and a resumed journal counts the cells
// it replays as done.
func TestGridOnCellDoneCountsSettlements(t *testing.T) {
	cfg := smallGrid()
	path := filepath.Join(t.TempDir(), "grid.jsonl")
	for _, p := range []string{"", path} {
		var calls atomic.Int32
		grid, err := OpenGrid(p, cfg, GridOptions{OnCellDone: func() { calls.Add(1) }})
		if err != nil {
			t.Fatal(err)
		}
		tasks := grid.Store().TryClaimBatch("w", grid.Size())
		items := make([]distwork.FinishItem, len(tasks))
		for i, task := range tasks {
			items[i] = distwork.FinishItem{ID: task.ID, Result: "{}"}
		}
		items[1].Error = "boom"
		for i, err := range grid.Store().FinishBatch("w", items) {
			if err != nil {
				t.Fatalf("path %q: finishing %s: %v", p, items[i].ID, err)
			}
		}
		want := int32(len(tasks) - 1)
		if calls.Load() != want || grid.Completed() != int(want) {
			t.Fatalf("path %q: OnCellDone fired %d times, Completed() = %d, want %d", p, calls.Load(), grid.Completed(), want)
		}
		grid.Close()
	}

	var replayed atomic.Int32
	grid, err := OpenGrid(path, cfg, GridOptions{Resume: true, OnCellDone: func() { replayed.Add(1) }})
	if err != nil {
		t.Fatal(err)
	}
	defer grid.Close()
	if want := int32(grid.Size() - 1); replayed.Load() != want {
		t.Fatalf("resume replayed %d done cells into OnCellDone, want %d", replayed.Load(), want)
	}
}

// TestSweepWallClockOnlyUnjournaled pins where the result encoding is
// chosen: a SweepContext (memory-only) cell keeps its measured wall
// clock, while the same cell from a journaled grid is canonical.
func TestSweepWallClockOnlyUnjournaled(t *testing.T) {
	cfg := smallGrid()
	cfg.Algorithms, cfg.Shares = cfg.Algorithms[:1], cfg.Shares[:1]
	pts, _, err := SweepContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Snapshot.Wall.RunNS == 0 {
		t.Fatalf("SweepContext cell lost its wall clock: %+v", pts[0].Snapshot.Wall)
	}
	grid, err := OpenGrid(filepath.Join(t.TempDir(), "grid.jsonl"), cfg, GridOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer grid.Close()
	if err := grid.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	jpts, _, err := grid.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if jpts[0].Snapshot.Wall.RunNS != 0 || jpts[0].WallMillis != 0 {
		t.Fatalf("journaled cell is not canonical: wall %+v, wall_ms %d", jpts[0].Snapshot.Wall, jpts[0].WallMillis)
	}
	if jpts[0].Summary != pts[0].Summary || jpts[0].Events != pts[0].Events {
		t.Fatal("journaled cell diverges from the SweepContext cell")
	}
}
