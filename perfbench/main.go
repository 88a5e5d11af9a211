// Command perfbench is the repository benchmark. It drives the simulator's
// shipped surfaces from outside — the elastisim package API, the real
// elastisimd daemon, and real sweep coordinator/worker processes — on four
// seeded workloads, checks every output for correctness, and prints one
// JSON result line:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the result carries the gated end-to-end metrics; with
// --trace 1 it carries the per-layer ledger instead (spans at the public
// seams, /metrics deltas, CPU-profile attribution), and a Chrome trace of
// the spans is written under the work directory. spec.json lists the
// workloads, their seeds, the metrics, and which end-to-end metric each
// layer metric should move. run.sh builds the binaries and runs this
// program from the root of a checkout.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// Options is one benchmark invocation.
type Options struct {
	Workload string
	Seed     uint64
	// Seconds is how long the measured phase runs; every workload also
	// completes a minimum number of repetitions, so 0 runs the minimum.
	Seconds time.Duration
	Trace   bool
	// Bin holds the elastisimd and sweep binaries; Work is a scratch
	// directory for daemon state, journals, profiles and traces.
	Bin, Work string
	// Tiny shrinks every workload to smoke-test size.
	Tiny bool
	Log  io.Writer
}

// artifact names a file the run leaves behind for inspection, such as the
// span trace; it outlives the run's own scratch directory.
func (o Options) artifact(kind, ext string) string {
	return filepath.Join(filepath.Dir(o.Work), kind+"-"+o.Workload+ext)
}

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// Metric is one reported figure. N is the number of samples it summarizes
// (0 when it is a single count). Absent marks a layer metric the workload
// does not exercise, reported as 0.
type Metric struct {
	Name   string
	Value  float64
	Unit   string
	N      int
	Absent bool
}

// Report is the outcome of one run: operations attempted and failed
// (wrong outputs count as failures), the metrics, and why anything failed.
type Report struct {
	Attempted, Failed int
	Failures          []string
	Metrics           []Metric
}

func (r *Report) add(name string, v float64, unit string, n int) {
	r.Metrics = append(r.Metrics, Metric{Name: name, Value: v, Unit: unit, N: n})
}

// settle records one attempted operation; any problem marks it failed.
func (r *Report) settle(op string, problems []string) {
	r.Attempted++
	if len(problems) > 0 {
		r.Failed++
		r.Failures = append(r.Failures, op+": "+strings.Join(problems, "; "))
	}
}

// workloadFunc runs one workload. It returns an error only when the run
// could not be carried out at all; wrong outputs are Report failures.
type workloadFunc func(ctx context.Context, o Options) (*Report, error)

var workloads = map[string]workloadFunc{
	"sim-xl-rigid":           runSimXLRigid,
	"sim-malleable-failures": runSimMalleableFailures,
	"daemon-closed-loop":     runDaemonClosedLoop,
	"sweep-lease-2w":         runSweepLease,
}

func main() {
	var (
		o       Options
		seed    = flag.Uint64("seed", 0, "workload seed (0 = the workload's default seed from spec.json)")
		secs    = flag.Float64("seconds", 15, "length of the measured phase in seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting the per-layer ledger")
		binDir  = flag.String("bin", "", "directory holding the elastisimd and sweep binaries")
		workDir = flag.String("work", "", "scratch directory for daemon state, journals, profiles and traces")
	)
	flag.StringVar(&o.Workload, "workload", "", "workload name (see spec.json)")
	flag.Parse()
	if _, ok := workloads[o.Workload]; !ok || flag.NArg() > 0 || *binDir == "" || *workDir == "" || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench -bin dir -work dir --workload <%s> --seed n --seconds s --trace 0|1\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	o.Seed = *seed
	o.Seconds = time.Duration(*secs * float64(time.Second))
	o.Trace = *trace == 1
	o.Bin, o.Work = *binDir, *workDir
	o.Log = os.Stderr

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		stop()
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run executes one benchmark invocation and prints the human-readable
// report followed by the JSON result line.
func run(ctx context.Context, o Options, out io.Writer) error {
	w, err := specWorkload(o.Workload)
	if err != nil {
		return err
	}
	if o.Seed == 0 {
		o.Seed = w.DefaultSeed
	}
	o.Work = filepath.Join(o.Work, fmt.Sprintf("%s-%d-%d", o.Workload, o.Seed, os.Getpid()))
	if err := os.MkdirAll(o.Work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(o.Work)

	host := readHost()
	steal0 := readCPUStat()
	rep, err := workloads[o.Workload](ctx, o)
	if err != nil {
		return err
	}
	steal := steal0.stealFrac(readCPUStat())
	if o.Trace {
		rep.add("host.steal_frac", steal, "ratio", 0)
		fillAbsent(rep, o.Workload)
	}
	want := spec.EndToEnd
	if o.Trace {
		want = spec.PerLayer
	}
	if err := checkMetrics(rep.Metrics, want); err != nil {
		return err
	}

	fmt.Fprintf(out, "host nproc=%d gomaxprocs=%d go=%s cpu=%q steal_frac=%.4f\n",
		host.NumCPU, runtime.GOMAXPROCS(0), runtime.Version(), host.CPUModel, steal)
	fmt.Fprintf(out, "workload=%s seed=%d trace=%v default_seed=%d heldout_seed=%d\n",
		o.Workload, o.Seed, o.Trace, w.DefaultSeed, w.HeldoutSeed)
	absent := 0
	for _, m := range rep.Metrics {
		if m.Absent {
			absent++
			continue
		}
		n := ""
		if m.N > 0 {
			n = fmt.Sprintf("  (n=%d)", m.N)
		}
		fmt.Fprintf(out, "  %-32s %16.6g %-6s%s\n", m.Name, m.Value, m.Unit, n)
	}
	if absent > 0 {
		fmt.Fprintf(out, "  (%d layer metrics this workload does not exercise read 0)\n", absent)
	}
	if o.Trace {
		fmt.Fprintf(out, "span trace: %s\n", o.artifact("trace", ".json"))
	}
	fmt.Fprintf(out, "error_rate %g (%d failed of %d attempted)\n", ratio(float64(rep.Failed), float64(rep.Attempted)), rep.Failed, rep.Attempted)
	for _, f := range rep.Failures {
		fmt.Fprintln(out, "FAIL", f)
	}
	return writeResult(out, rep)
}

// fillAbsent reports 0 for every layer metric spec.json says does not
// apply to the workload, so each traced run carries the whole ledger.
func fillAbsent(rep *Report, workload string) {
	have := map[string]bool{}
	for _, m := range rep.Metrics {
		have[m.Name] = true
	}
	for _, m := range spec.PerLayer {
		if !have[m.Name] && !slices.Contains(m.Workloads, workload) {
			rep.Metrics = append(rep.Metrics, Metric{Name: m.Name, Unit: m.Unit, Absent: true})
		}
	}
}

// checkMetrics verifies the report carries exactly the metrics spec.json
// promises for this mode, with the promised units and valid names.
func checkMetrics(got []Metric, want []MetricSpec) error {
	seen := map[string]Metric{}
	for _, m := range got {
		if !metricName.MatchString(m.Name) || !unitName.MatchString(m.Unit) {
			return fmt.Errorf("metric %q unit %q: invalid name or unit", m.Name, m.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %q is %v", m.Name, m.Value)
		}
		if _, dup := seen[m.Name]; dup {
			return fmt.Errorf("metric %q reported twice", m.Name)
		}
		seen[m.Name] = m
	}
	var errs []error
	for _, w := range want {
		m, ok := seen[w.Name]
		switch {
		case !ok:
			errs = append(errs, fmt.Errorf("metric %q missing", w.Name))
		case m.Unit != w.Unit:
			errs = append(errs, fmt.Errorf("metric %q in %q, spec says %q", w.Name, m.Unit, w.Unit))
		}
		delete(seen, w.Name)
	}
	for name := range seen {
		errs = append(errs, fmt.Errorf("metric %q not in spec", name))
	}
	return errors.Join(errs...)
}

// writeResult prints the JSON result line the benchmark contract defines.
func writeResult(out io.Writer, rep *Report) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	doc := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   rep.Failed == 0 && rep.Attempted > 0,
		Attempted: rep.Attempted,
		Failed:    rep.Failed,
		Metrics:   map[string]value{},
	}
	for _, m := range rep.Metrics {
		doc.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", data)
	return err
}
