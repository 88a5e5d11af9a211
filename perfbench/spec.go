package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// Spec is spec.json: the benchmark's workloads with their seeds and
// reference digests, its metrics, and which end-to-end metric each layer
// metric should move on which workload. BENCHMARK.json at the repository
// root carries the same workloads and metrics in the form the benchmark
// contract fixes (TestBenchmarkJSONMatchesSpec keeps the two in step).
type Spec struct {
	Workloads []WorkloadSpec `json:"workloads"`
	EndToEnd  []MetricSpec   `json:"end_to_end"`
	PerLayer  []MetricSpec   `json:"per_layer"`
}

// WorkloadSpec describes one workload.
type WorkloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Work names the unit work_per_s and the other per-work metrics
	// count on this workload.
	Work        string `json:"work"`
	DefaultSeed uint64 `json:"default_seed"`
	HeldoutSeed uint64 `json:"heldout_seed"`
	// ResultDigest is the SHA-256 of the canonical Result.WriteJSON for
	// the default seed (simulation workloads only).
	ResultDigest string `json:"result_digest,omitempty"`
}

// MetricSpec describes one metric. End-to-end metrics carry a bound;
// layer metrics name the layer, the end-to-end metric they should move,
// and the workloads where they apply (elsewhere they read 0).
type MetricSpec struct {
	Name      string   `json:"name"`
	Unit      string   `json:"unit"`
	Better    string   `json:"better"`
	Bound     float64  `json:"bound,omitempty"`
	Means     string   `json:"means"`
	Layer     string   `json:"layer,omitempty"`
	Moves     string   `json:"moves,omitempty"`
	Workloads []string `json:"workloads,omitempty"`
}

//go:embed spec.json
var specJSON []byte

var spec = mustSpec()

func mustSpec() Spec {
	var s Spec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		panic(fmt.Sprintf("perfbench: spec.json: %v", err))
	}
	return s
}

func specWorkload(name string) (WorkloadSpec, error) {
	for _, w := range spec.Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return WorkloadSpec{}, fmt.Errorf("unknown workload %q", name)
}
