// Command expreport regenerates every experiment of the reconstructed
// evaluation (E1–E10 plus the ablations) and prints the tables, optionally
// as markdown for EXPERIMENTS.md.
//
// Usage:
//
//	expreport                # all experiments, plain tables
//	expreport -only E2,E3    # a subset
//	expreport -markdown      # markdown output
//	expreport -jobs 150      # workload size for the batch experiments
//
// It also diffs self-profiling snapshots written by `elastisim
// -telemetry-out` or `sweep -telemetry-out`, for before/after comparisons
// of simulator-performance work:
//
//	expreport -snapshot-diff before.json,after.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/telemetry"
)

func main() { cli.Main("expreport", run) }

func run(ctx context.Context) error {
	var (
		seed     = flag.Uint64("seed", 7, "workload seed")
		jobs     = flag.Int("jobs", 150, "job count for the batch experiments")
		only     = flag.String("only", "", "comma-separated experiment IDs (default: all)")
		markdown = flag.Bool("markdown", false, "emit markdown instead of plain tables")
		snapDiff = flag.String("snapshot-diff", "", "diff two telemetry snapshot JSON files: before.json,after.json")
	)
	flag.Parse()

	if *snapDiff != "" {
		return diffSnapshots(*snapDiff, *markdown)
	}

	selected := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			selected[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}
	want := func(id string) bool { return len(selected) == 0 || selected[id] }

	// Each experiment is a closure so an interrupt can stop between them:
	// tables printed so far stay on stdout, the rest never start.
	reports := []struct {
		id  string
		gen func() (*experiments.Table, error)
	}{
		{"E1", func() (*experiments.Table, error) {
			t, _, _, err := experiments.E1Utilization(*seed, *jobs)
			return t, err
		}},
		{"E2", func() (*experiments.Table, error) {
			t, _, err := experiments.E2MalleableShare(*seed, *jobs)
			return t, err
		}},
		{"E3", func() (*experiments.Table, error) { t, _, err := experiments.E3Schedulers(*seed, *jobs); return t, err }},
		{"E4", func() (*experiments.Table, error) {
			t, _, _, err := experiments.E4BurstBuffer(*seed, *jobs/3)
			return t, err
		}},
		{"E5", func() (*experiments.Table, error) { return experiments.E5Scalability(*seed) }},
		{"E6", func() (*experiments.Table, error) { t, _, err := experiments.E6Validation(); return t, err }},
		{"E7", func() (*experiments.Table, error) { t, _, err := experiments.E7Evolving(*seed); return t, err }},
		{"E8", func() (*experiments.Table, error) {
			t, _, err := experiments.E8ReconfigCost(*seed, *jobs)
			return t, err
		}},
		{"E9", func() (*experiments.Table, error) { t, _, err := experiments.E9Topology(*seed, *jobs); return t, err }},
		{"E10", func() (*experiments.Table, error) {
			t, _, err := experiments.E10Resilience(*seed, *jobs)
			return t, err
		}},
		{"A1", func() (*experiments.Table, error) { return experiments.AblationInvocation(*seed, *jobs) }},
		{"A2", func() (*experiments.Table, error) { return experiments.AblationFairness(*seed, *jobs/3) }},
		{"A3", func() (*experiments.Table, error) { return experiments.AblationMoldable(*seed, *jobs) }},
		{"A4", func() (*experiments.Table, error) { return experiments.AblationFairShare(*seed, *jobs) }},
		{"A5", func() (*experiments.Table, error) { return experiments.AblationFastPath(*seed) }},
	}
	for _, r := range reports {
		if !want(r.id) {
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		t, err := r.gen()
		if err != nil {
			return fmt.Errorf("%s: %w", r.id, err)
		}
		if *markdown {
			fmt.Print(t.Markdown())
		} else {
			t.Fprint(os.Stdout)
			fmt.Println()
		}
	}
	return nil
}

// diffSnapshots prints a before/after table of two telemetry snapshot
// files (comma-separated paths) written with -telemetry-out.
func diffSnapshots(spec string, markdown bool) error {
	paths := strings.Split(spec, ",")
	if len(paths) != 2 {
		return fmt.Errorf("-snapshot-diff wants two paths: before.json,after.json")
	}
	read := func(path string) (telemetry.Snapshot, error) {
		f, err := os.Open(strings.TrimSpace(path))
		if err != nil {
			return telemetry.Snapshot{}, err
		}
		defer f.Close()
		return telemetry.ReadSnapshot(f)
	}
	a, err := read(paths[0])
	if err != nil {
		return err
	}
	b, err := read(paths[1])
	if err != nil {
		return err
	}
	t := &experiments.Table{
		ID:     "SNAP",
		Title:  "Telemetry snapshot diff",
		Header: []string{"counter", "before", "after", "change"},
	}
	for _, row := range telemetry.Diff(a, b) {
		change := "new"
		if row.A != 0 {
			change = fmt.Sprintf("%+.1f%%", row.Change*100)
		}
		t.AddRow(row.Name, fmt.Sprintf("%g", row.A), fmt.Sprintf("%g", row.B), change)
	}
	t.AddNote("wall.* and mem.* rows are machine-dependent; counters above them are deterministic")
	if markdown {
		fmt.Print(t.Markdown())
	} else {
		t.Fprint(os.Stdout)
	}
	return nil
}
