package experiments

import (
	"runtime"
	"sync"
)

// Simulations within an experiment grid are independent: each cell builds
// its own workload, platform, and engine from value parameters, so cells
// can run on separate goroutines without sharing mutable state. runIndexed
// is the worker-pool driver the E-series drivers and the ablations fan out
// through. Results land in a slice indexed by cell, so the output order —
// and every simulated value in it — is bit-identical to a sequential run
// regardless of scheduling.

// resolveWorkers maps a worker-count knob to an effective pool size:
// 0 means one worker per CPU, and the pool never exceeds the cell count.
func resolveWorkers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	return workers
}

// runIndexed evaluates fn(0..n-1) on a pool of workers and returns the
// results in index order. Errors are deterministic too: the error from the
// lowest failing index wins, however the goroutines interleave. With
// workers <= 1 (or a single cell) everything runs inline on the caller's
// goroutine. It drives the E-series experiments and the ablations, whose
// in-process results are never journaled or leased; parameter sweeps run
// on Grid instead.
func runIndexed[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	workers = resolveWorkers(workers, n)
	if workers <= 1 {
		for i := range n {
			out[i], errs[i] = fn(i)
		}
	} else {
		next := make(chan int)
		var wg sync.WaitGroup
		wg.Add(workers)
		for range workers {
			go func() {
				defer wg.Done()
				for i := range next {
					out[i], errs[i] = fn(i)
				}
			}()
		}
		for i := range n {
			next <- i
		}
		close(next)
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
