package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// KernelStats are the DES kernel's lifetime counters. The kernel samples
// them straight into this struct (des.Kernel.Stats), so the kernel and
// the snapshot share one definition. TopTransfers and RungSpawns count the
// ladder queue's re-bucketing and stay zero on the reference heap kernel.
type KernelStats struct {
	Scheduled    uint64 `json:"scheduled"`     // events ever scheduled
	Fired        uint64 `json:"fired"`         // events popped and executed
	Cancelled    uint64 `json:"cancelled"`     // events tombstoned before firing
	Recycled     uint64 `json:"recycled"`      // events reused from the free list
	PeakQueue    uint64 `json:"peak_queue"`    // queue high-water mark, tombstones included
	TopTransfers uint64 `json:"top_transfers"` // ladder overflow lists spread into rungs/bottom
	RungSpawns   uint64 `json:"rung_spawns"`   // ladder buckets subdivided into finer rungs
}

// SolverStats are the fluid solver's counters.
type SolverStats struct {
	Solves           uint64 `json:"solves"`
	SolvedActivities uint64 `json:"solved_activities"`
}

// SchedulerStats count scheduler invocations and decision outcomes.
type SchedulerStats struct {
	Invocations uint64 `json:"invocations"`
	// Elided counts same-timestamp invocations the engine batched away
	// because a prior invocation at that timestamp already saw a
	// bit-identical snapshot.
	Elided   uint64            `json:"elided,omitempty"`
	Applied  uint64            `json:"applied"`
	Rejected uint64            `json:"rejected"`
	ByKind   map[string]uint64 `json:"by_kind,omitempty"`
}

// WallStats hold wall-clock measurements in nanoseconds. They are the only
// non-deterministic fields in a Snapshot; StripWall zeroes them for
// reproducibility comparisons.
type WallStats struct {
	RunNS       int64 `json:"run_ns"`
	SchedulerNS int64 `json:"scheduler_ns"`
}

// MemStats hold heap measurements sampled at snapshot time. Like
// WallStats they are machine-dependent and cleared by StripWall.
type MemStats struct {
	HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
	TotalAllocs    uint64 `json:"total_allocs"`
}

// Snapshot is the self-profiling artifact of one or more simulation runs:
// every internal counter the simulator keeps, in one JSON-serializable
// record. Snapshots from parallel workers aggregate with Add. Its integer
// counters, ByKind aside, are the rows of Counters.
type Snapshot struct {
	Runs      uint64         `json:"runs"`
	Jobs      uint64         `json:"jobs"`
	Kernel    KernelStats    `json:"kernel"`
	Solver    SolverStats    `json:"solver"`
	Scheduler SchedulerStats `json:"scheduler"`
	Wall      WallStats      `json:"wall"`
	Mem       MemStats       `json:"mem"`
}

// Counter is one row of the snapshot's counter schema. Add folds each row,
// Diff prints one line per row, and a finished session exports each row
// that has a Prometheus name to its metrics registry.
type Counter struct {
	Name string // dotted snapshot name, as Diff prints it
	Prom string // Prometheus family a finished session exports; "" if none
	Help string
	Max  bool // a high-water mark: Add keeps the max, export is a gauge
	Get  func(*Snapshot) *uint64
}

// Counters is the counter schema in Diff's row order. The scheduler rows
// come last so that Diff can print the per-kind decision counts right
// after them.
var Counters = []Counter{
	{Name: "runs", Help: "simulation runs aggregated",
		Get: func(s *Snapshot) *uint64 { return &s.Runs }},
	{Name: "jobs", Help: "jobs in the simulated workloads",
		Get: func(s *Snapshot) *uint64 { return &s.Jobs }},
	{Name: "kernel.scheduled", Help: "DES kernel events ever scheduled",
		Get: func(s *Snapshot) *uint64 { return &s.Kernel.Scheduled }},
	{Name: "kernel.fired", Prom: "elastisim_sim_events_total", Help: "DES kernel events fired across finished sessions",
		Get: func(s *Snapshot) *uint64 { return &s.Kernel.Fired }},
	{Name: "kernel.cancelled", Prom: "elastisim_sim_events_cancelled_total", Help: "DES kernel events cancelled before firing",
		Get: func(s *Snapshot) *uint64 { return &s.Kernel.Cancelled }},
	{Name: "kernel.recycled", Help: "DES kernel events reused from the free list",
		Get: func(s *Snapshot) *uint64 { return &s.Kernel.Recycled }},
	{Name: "kernel.peak_queue", Prom: "elastisim_sim_peak_queue", Help: "largest DES event queue of any finished session", Max: true,
		Get: func(s *Snapshot) *uint64 { return &s.Kernel.PeakQueue }},
	{Name: "kernel.top_transfers", Prom: "elastisim_sim_ladder_top_transfers_total", Help: "ladder queue overflow lists spread into rungs",
		Get: func(s *Snapshot) *uint64 { return &s.Kernel.TopTransfers }},
	{Name: "kernel.rung_spawns", Prom: "elastisim_sim_ladder_rung_spawns_total", Help: "ladder queue buckets subdivided into finer rungs",
		Get: func(s *Snapshot) *uint64 { return &s.Kernel.RungSpawns }},
	{Name: "solver.solves", Prom: "elastisim_sim_solves_total", Help: "fluid solver recomputations",
		Get: func(s *Snapshot) *uint64 { return &s.Solver.Solves }},
	{Name: "solver.solved_activities", Help: "activities the fluid solver re-solved",
		Get: func(s *Snapshot) *uint64 { return &s.Solver.SolvedActivities }},
	{Name: "scheduler.invocations", Prom: "elastisim_sim_invocations_total", Help: "scheduling algorithm invocations",
		Get: func(s *Snapshot) *uint64 { return &s.Scheduler.Invocations }},
	{Name: "scheduler.elided", Prom: "elastisim_sim_invocations_elided_total", Help: "same-timestamp scheduler invocations batched away",
		Get: func(s *Snapshot) *uint64 { return &s.Scheduler.Elided }},
	{Name: "scheduler.applied", Prom: "elastisim_sim_decisions_total", Help: "scheduler decisions that passed validation",
		Get: func(s *Snapshot) *uint64 { return &s.Scheduler.Applied }},
	{Name: "scheduler.rejected", Help: "scheduler decisions rejected by validation",
		Get: func(s *Snapshot) *uint64 { return &s.Scheduler.Rejected }},
}

// Add folds another snapshot into s: counters sum, high-water marks take
// the max.
func (s *Snapshot) Add(o Snapshot) {
	for _, c := range Counters {
		dst, v := c.Get(s), *c.Get(&o)
		if !c.Max {
			*dst += v
		} else if v > *dst {
			*dst = v
		}
	}
	for k, v := range o.Scheduler.ByKind {
		if s.Scheduler.ByKind == nil {
			s.Scheduler.ByKind = map[string]uint64{}
		}
		s.Scheduler.ByKind[k] += v
	}
	s.Wall.RunNS += o.Wall.RunNS
	s.Wall.SchedulerNS += o.Wall.SchedulerNS
	if o.Mem.HeapAllocBytes > s.Mem.HeapAllocBytes {
		s.Mem.HeapAllocBytes = o.Mem.HeapAllocBytes
	}
	s.Mem.TotalAllocs += o.Mem.TotalAllocs
}

// StripWall returns a copy with all wall-clock and memory fields zeroed,
// leaving only the deterministic simulation counters.
func (s Snapshot) StripWall() Snapshot {
	s.Wall = WallStats{}
	s.Mem = MemStats{}
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// ReadSnapshot parses a snapshot previously written with WriteJSON.
func ReadSnapshot(r io.Reader) (Snapshot, error) {
	var s Snapshot
	dec := json.NewDecoder(r)
	if err := dec.Decode(&s); err != nil {
		return s, fmt.Errorf("telemetry: parse snapshot: %w", err)
	}
	return s, nil
}

// DiffRow is one counter's before/after pair in a snapshot diff.
type DiffRow struct {
	Name   string
	A, B   float64
	Change float64 // relative change, B/A - 1; 0 when A == 0
}

// Diff flattens two snapshots into comparable rows: one per Counters row
// in table order, then the per-kind decision counts sorted by kind, then
// the machine-dependent wall.* and mem.* rows. Rows where both sides are
// zero are omitted.
func Diff(a, b Snapshot) []DiffRow {
	var rows []DiffRow
	add := func(name string, va, vb float64) {
		if va == 0 && vb == 0 {
			return
		}
		row := DiffRow{Name: name, A: va, B: vb}
		if va != 0 {
			row.Change = vb/va - 1
		}
		rows = append(rows, row)
	}
	for _, c := range Counters {
		add(c.Name, float64(*c.Get(&a)), float64(*c.Get(&b)))
	}
	var kinds []string
	for k := range a.Scheduler.ByKind {
		kinds = append(kinds, k)
	}
	for k := range b.Scheduler.ByKind {
		if _, ok := a.Scheduler.ByKind[k]; !ok {
			kinds = append(kinds, k)
		}
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		add("scheduler.by_kind."+k, float64(a.Scheduler.ByKind[k]), float64(b.Scheduler.ByKind[k]))
	}
	add("wall.run_ms", float64(a.Wall.RunNS)/1e6, float64(b.Wall.RunNS)/1e6)
	add("wall.scheduler_ms", float64(a.Wall.SchedulerNS)/1e6, float64(b.Wall.SchedulerNS)/1e6)
	add("mem.heap_alloc_bytes", float64(a.Mem.HeapAllocBytes), float64(b.Mem.HeapAllocBytes))
	add("mem.total_allocs", float64(a.Mem.TotalAllocs), float64(b.Mem.TotalAllocs))
	return rows
}
