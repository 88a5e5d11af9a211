package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestRunIndexedOrder(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 100} {
		out, err := runIndexed(workers, 17, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(out) != 17 {
			t.Fatalf("workers=%d: len %d", workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Errorf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestRunIndexedEmpty(t *testing.T) {
	out, err := runIndexed(4, 0, func(i int) (int, error) {
		t.Fatal("fn called for empty input")
		return 0, nil
	})
	if err != nil || len(out) != 0 {
		t.Fatalf("got %v, %v", out, err)
	}
}

// The error from the lowest failing index must win regardless of how the
// worker goroutines interleave, so error reporting is deterministic.
func TestRunIndexedLowestErrorWins(t *testing.T) {
	errLow := errors.New("low")
	errHigh := errors.New("high")
	for range 20 {
		_, err := runIndexed(4, 32, func(i int) (int, error) {
			switch i {
			case 3:
				return 0, errLow
			case 20:
				return 0, errHigh
			}
			return i, nil
		})
		if !errors.Is(err, errLow) {
			t.Fatalf("got %v, want the error from index 3", err)
		}
	}
}

// Every index must be evaluated exactly once.
func TestRunIndexedEachOnce(t *testing.T) {
	var calls [64]atomic.Int32
	_, err := runIndexed(8, len(calls), func(i int) (struct{}, error) {
		calls[i].Add(1)
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range calls {
		if n := calls[i].Load(); n != 1 {
			t.Errorf("index %d evaluated %d times", i, n)
		}
	}
}

// TestSweepParallelEquivalence pins the parallel-runner invariant: any
// worker count produces the same grid, cell for cell, as a sequential
// run — summaries and event counts identical; only wall-clock may vary.
func TestSweepParallelEquivalence(t *testing.T) {
	cfg := SweepConfig{
		Algorithms: []string{"easy", "adaptive"},
		Shares:     []float64{0, 1},
		Seeds:      []uint64{7},
		Jobs:       25,
		Nodes:      32,
	}
	seqCfg := cfg
	seqCfg.Workers = 1
	seq, err := Sweep(seqCfg)
	if err != nil {
		t.Fatal(err)
	}
	parCfg := cfg
	parCfg.Workers = 4
	par, err := Sweep(parCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("cell counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].Algorithm != par[i].Algorithm || seq[i].MalleableShare != par[i].MalleableShare ||
			seq[i].Seed != par[i].Seed {
			t.Fatalf("cell %d identity differs: %+v vs %+v", i, seq[i], par[i])
		}
		if seq[i].Summary != par[i].Summary {
			t.Errorf("cell %d summary differs between sequential and parallel runs", i)
		}
		if seq[i].Events != par[i].Events {
			t.Errorf("cell %d events: sequential %d, parallel %d", i, seq[i].Events, par[i].Events)
		}
		// Per-cell telemetry must be deterministic too (wall/heap aside).
		ss, ps := seq[i].Snapshot.StripWall(), par[i].Snapshot.StripWall()
		if fmt.Sprintf("%+v", ss) != fmt.Sprintf("%+v", ps) {
			t.Errorf("cell %d telemetry snapshot differs:\nseq: %+v\npar: %+v", i, ss, ps)
		}
	}
	// The grid-order aggregate is therefore deterministic as well.
	aggSeq := AggregateSnapshots(seq).StripWall()
	aggPar := AggregateSnapshots(par).StripWall()
	if fmt.Sprintf("%+v", aggSeq) != fmt.Sprintf("%+v", aggPar) {
		t.Errorf("aggregated snapshots differ:\nseq: %+v\npar: %+v", aggSeq, aggPar)
	}
	if aggSeq.Runs != uint64(len(seq)) || aggSeq.Kernel.Fired == 0 {
		t.Errorf("aggregate implausible: %+v", aggSeq)
	}
}

// TestSweepContextPartialFlush pins the interrupt contract of sweeps:
// cancelling mid-grid yields the completed cells (bit-identical to the
// same cells of a full run) plus ctx.Err().
func TestSweepContextPartialFlush(t *testing.T) {
	cfg := SweepConfig{
		Algorithms: []string{"easy", "adaptive"},
		Shares:     []float64{0, 1},
		Seeds:      []uint64{7},
		Jobs:       15,
		Nodes:      32,
		Workers:    1,
	}
	full, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cells := 0
	cfgCancel := cfg
	cfgCancel.OnCellDone = func() {
		if cells++; cells == 2 {
			cancel()
		}
	}
	pts, done, err := SweepContext(ctx, cfgCancel)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(pts) != len(full) || len(done) != len(full) {
		t.Fatalf("partial sweep sized %d/%d, want full grid shape %d", len(pts), len(done), len(full))
	}
	completed := 0
	for i, d := range done {
		if !d {
			continue
		}
		completed++
		if pts[i].Summary != full[i].Summary || pts[i].Events != full[i].Events {
			t.Errorf("cell %d diverges between partial and full sweep", i)
		}
	}
	if completed < 2 || completed >= len(full) {
		t.Errorf("completed %d cells, want a strict subset of %d with at least 2", completed, len(full))
	}
}
