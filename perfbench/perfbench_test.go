package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/telemetry"
)

func TestMetricNameGrammar(t *testing.T) {
	for _, ok := range []string{"setup_s", "sched.call_p99_us", "cpu.gc", "9lives", "a-b.c_d", strings.Repeat("x", 64)} {
		if !metricName.MatchString(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	for _, bad := range []string{"", "_lead", ".lead", "has space", "slash/no", "semi;colon", strings.Repeat("x", 65), "ünïcode"} {
		if metricName.MatchString(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
	for _, ok := range []string{"ms", "1/s", "count", "%", "ratio", "B"} {
		if !unitName.MatchString(ok) {
			t.Errorf("unit %q rejected", ok)
		}
	}
	seen := map[string]bool{}
	for _, m := range append(append([]MetricSpec{}, spec.EndToEnd...), spec.PerLayer...) {
		if !metricName.MatchString(m.Name) || !unitName.MatchString(m.Unit) {
			t.Errorf("spec.json metric %q unit %q breaks the grammar", m.Name, m.Unit)
		}
		if seen[m.Name] {
			t.Errorf("spec.json lists %q twice", m.Name)
		}
		seen[m.Name] = true
	}
	if err := checkMetrics([]Metric{{Name: "bad name", Unit: "s"}}, nil); err == nil {
		t.Error("checkMetrics accepted an invalid name")
	}
}

// TestBenchmarkJSONMatchesSpec keeps BENCHMARK.json, the contract file at
// the repository root, in step with spec.json.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range raw {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}
	if !slices.Equal(keys, want) {
		t.Fatalf("BENCHMARK.json keys %v, want exactly %v", keys, want)
	}
	var b struct {
		Command    []string            `json:"command"`
		Paths      []string            `json:"paths"`
		RunSeconds int                 `json:"run_seconds"`
		Workloads  []map[string]string `json:"workloads"`
		EndToEnd   []map[string]any    `json:"end_to_end"`
		PerLayer   []map[string]any    `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Command, []string{"bash", "perfbench/run.sh"}) || !reflect.DeepEqual(b.Paths, []string{"perfbench"}) {
		t.Errorf("command %v paths %v", b.Command, b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}
	if len(b.Workloads) != len(spec.Workloads) {
		t.Fatalf("%d workloads, spec.json has %d", len(b.Workloads), len(spec.Workloads))
	}
	for i, w := range b.Workloads {
		s := spec.Workloads[i]
		if !reflect.DeepEqual(w, map[string]string{"name": s.Name, "why": s.Why}) {
			t.Errorf("workload %d: %v, spec.json %q %q", i, w, s.Name, s.Why)
		}
		if _, ok := workloads[s.Name]; !ok {
			t.Errorf("workload %q has no implementation", s.Name)
		}
		if s.DefaultSeed == 0 || s.HeldoutSeed == 0 || s.DefaultSeed == s.HeldoutSeed || s.Work == "" || len(s.Why) > 200 {
			t.Errorf("workload %q: seeds %d/%d, work %q, why of %d characters", s.Name, s.DefaultSeed, s.HeldoutSeed, s.Work, len(s.Why))
		}
	}
	check := func(kind string, got []map[string]any, want []MetricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, spec.json has %d", kind, len(got), len(want))
		}
		for i, m := range want {
			w := map[string]any{"name": m.Name, "unit": m.Unit, "better": m.Better}
			if bounded {
				w["bound"] = m.Bound
				if m.Bound <= 0 || m.Bound > 0.25 {
					t.Errorf("%s bound %g out of (0, 0.25]", m.Name, m.Bound)
				}
			} else if m.Layer == "" || m.Moves == "" || len(m.Workloads) == 0 {
				t.Errorf("layer metric %s lacks its layer, mapping or workloads", m.Name)
			}
			if !reflect.DeepEqual(got[i], w) {
				t.Errorf("%s %d: %v, spec.json %v", kind, i, got[i], w)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s better=%q", m.Name, m.Better)
			}
		}
	}
	check("end_to_end", b.EndToEnd, spec.EndToEnd, true)
	check("per_layer", b.PerLayer, spec.PerLayer, false)
	if spec.EndToEnd[0].Name != "setup_s" || spec.EndToEnd[0].Unit != "s" || spec.EndToEnd[0].Better != "lower" {
		t.Error("setup_s must be the first end-to-end metric, in s, lower is better")
	}
	for _, m := range spec.EndToEnd {
		if m.Bound > spec.EndToEnd[0].Bound {
			t.Errorf("%s bound %g exceeds setup_s's %g, which must be the largest", m.Name, m.Bound, spec.EndToEnd[0].Bound)
		}
	}
}

func TestPercentileRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	if v, err := percentile(xs, 50); err != nil || v != 50 {
		t.Errorf("p50 = %v, %v", v, err)
	}
	if v, err := percentile(xs, 90); err != nil || v != 90 {
		t.Errorf("p90 = %v, %v; 10 samples lie beyond it", v, err)
	}
	_, err := percentile(xs, 95)
	if err == nil || !strings.Contains(err.Error(), "100 samples") || !strings.Contains(err.Error(), "only 5 beyond") {
		t.Errorf("p95 of 100 samples: err %v, want a refusal naming the count", err)
	}
	if _, err := percentile(xs[:50], 99); err == nil {
		t.Error("p99 of 50 samples accepted")
	}
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if v, err := percentile(big, 99); err != nil || v != 990 {
		t.Errorf("p99 of 1000 = %v, %v", v, err)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}

func TestScrapeDiff(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Help("svc_requests_total", "requests")
	c := reg.Counter(`svc_requests_total{route="POST /v1/sessions"}`)
	other := reg.Counter(`svc_requests_total{route="GET /metrics"}`)
	h := reg.Histogram(`svc_request_seconds{route="POST /v1/sessions"}`, obs.DefLatencyBuckets)
	render := func() scrape {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		s, err := parseExposition(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	c.Add(3)
	h.Observe(0.5)
	before := render()
	c.Add(2)
	other.Inc()
	h.Observe(0.010)
	h.Observe(0.030)
	d := before.delta(render())
	if got := d.sum("svc_requests_total", `route="POST /v1/sessions"`); got != 2 {
		t.Errorf("POST delta = %v, want 2", got)
	}
	if got := d.sum("svc_requests_total"); got != 3 {
		t.Errorf("family delta = %v, want 3", got)
	}
	if got := d.histMeanMS("svc_request_seconds", `route="POST /v1/sessions"`); got < 19.999 || got > 20.001 {
		t.Errorf("histogram mean over the interval = %v ms, want 20", got)
	}
	if got := d.histMeanMS("svc_missing_seconds"); got != 0 {
		t.Errorf("missing family mean = %v", got)
	}
	if _, err := parseExposition([]byte("# TYPE x counter\nx{le=\"1\" 3\n")); err == nil {
		t.Error("malformed exposition accepted")
	}
}

// encodeProfile builds a gzipped pprof profile: each sample is a stack
// (innermost first) of function names and a count.
func encodeProfile(samples []struct {
	stack []string
	n     int64
}) []byte {
	var out []byte
	field := func(dst []byte, num int, payload []byte) []byte {
		dst = binary.AppendUvarint(dst, uint64(num<<3|2))
		dst = binary.AppendUvarint(dst, uint64(len(payload)))
		return append(dst, payload...)
	}
	varint := func(dst []byte, num int, v uint64) []byte {
		dst = binary.AppendUvarint(dst, uint64(num<<3))
		return binary.AppendUvarint(dst, v)
	}
	strs := []string{""}
	ids := map[string]uint64{}
	for _, s := range samples {
		for _, fn := range s.stack {
			if ids[fn] == 0 {
				strs = append(strs, fn)
				ids[fn] = uint64(len(ids) + 1)
				var f []byte
				f = varint(f, 1, ids[fn])
				f = varint(f, 2, uint64(len(strs)-1))
				out = field(out, 5, f)
				var line []byte
				line = varint(line, 1, ids[fn])
				var loc []byte
				loc = varint(loc, 1, ids[fn]) // location id = function id
				loc = field(loc, 4, line)
				out = field(out, 4, loc)
			}
		}
		var locs, smp []byte
		for _, fn := range s.stack {
			locs = binary.AppendUvarint(locs, ids[fn])
		}
		smp = field(smp, 1, locs)         // packed location ids
		smp = varint(smp, 2, uint64(s.n)) // one unpacked value
		out = field(out, 2, smp)
	}
	for _, s := range strs {
		out = field(out, 6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(out)
	zw.Close()
	return buf.Bytes()
}

func TestProfileAttribution(t *testing.T) {
	fixture := encodeProfile([]struct {
		stack []string
		n     int64
	}{
		{[]string{"repro/internal/expr.(*Node).Eval", "repro/internal/core.(*Engine).env", "repro/internal/des.(*Kernel).Run", "main.main"}, 6},
		{[]string{"repro/internal/sched.(*Adaptive).Schedule", "repro/internal/core.(*Engine).invoke", "repro/internal/des.(*Kernel).Run"}, 3},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, 1},
	})
	s := newCPUShares()
	if err := s.add(fixture); err != nil {
		t.Fatal(err)
	}
	// A second profile (another worker) merges in.
	if err := s.add(encodeProfile([]struct {
		stack []string
		n     int64
	}{{[]string{"repro/internal/fluid.(*Pool).solve", "repro/internal/core.(*Engine).startComm"}, 10}})); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"cpu.core": 19.0 / 20, "cpu.des": 9.0 / 20, "cpu.expr": 6.0 / 20, "cpu.sched": 3.0 / 20,
		"cpu.fluid": 10.0 / 20, "cpu.gc": 1.0 / 20, "cpu.platform": 0, "cpu.metrics": 0, "cpu.job": 0,
	}
	for m, w := range want {
		if got := s.share(m); got != w {
			t.Errorf("%s = %v, want %v", m, got, w)
		}
	}
	for fn, pkg := range map[string]string{
		"repro/internal/core.(*Engine).env": "repro/internal/core",
		"runtime.mallocgc":                  "runtime",
		"repro/internal/job.Job.Label":      "repro/internal/job",
		"main.main":                         "main",
	} {
		if got := funcPackage(fn); got != pkg {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, pkg)
		}
	}
	if err := newCPUShares().add([]byte{0x0a, 0xff}); err == nil {
		t.Error("truncated profile accepted")
	}
}

func TestChromeTraceNests(t *testing.T) {
	tr := newTracer()
	t0 := tr.origin
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	g := tr.newID()
	tr.record(span{name: "child-b", track: 1, group: g, parent: g, start: at(5), end: at(9)})
	tr.record(span{name: "root", id: g, track: 1, group: g, start: at(1), end: at(10)})
	tr.record(span{name: "child-a", track: 1, group: g, parent: g, start: at(1), end: at(4)})
	tr.record(span{name: "other-track", track: 2, group: g, start: at(0), end: at(3)})
	tr.record(span{name: "overrun", track: 2, group: g, start: at(2), end: at(4)})
	data, err := tr.chromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	stats, err := telemetry.ValidateChromeTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Events != 10 {
		t.Errorf("%d events, want 10 (a B and an E per span)", stats.Events)
	}
	var nilTracer *tracer
	nilTracer.record(span{name: "ignored"}) // untraced mode records nothing
}

// TestSweepCSVCheckCatchesErrors feeds the sweep check a reordered, a
// changed, a duplicated and a missing row.
func TestSweepCSVCheckCatchesErrors(t *testing.T) {
	ref := "algorithm,x,seed,v,wall_ms\nfcfs,0,1,10,5\neasy,0,1,11,6\nfcfs,0,2,12,7\n"
	count := func(got string) int {
		n := 0
		for _, p := range checkSweepCSV([]byte(got), []byte(ref), 3) {
			if len(p) > 0 {
				n++
			}
		}
		return n
	}
	if n := count("algorithm,x,seed,v,wall_ms\nfcfs,0,1,10,0\neasy,0,1,11,0\nfcfs,0,2,12,0\n"); n != 0 {
		t.Errorf("identical rows but wall_ms: %d failures", n)
	}
	for name, got := range map[string]string{
		"changed":   "algorithm,x,seed,v,wall_ms\nfcfs,0,1,10,0\neasy,0,1,99,0\nfcfs,0,2,12,0\n",
		"duplicate": "algorithm,x,seed,v,wall_ms\nfcfs,0,1,10,0\nfcfs,0,1,10,0\neasy,0,1,11,0\nfcfs,0,2,12,0\n",
		"missing":   "algorithm,x,seed,v,wall_ms\nfcfs,0,1,10,0\nfcfs,0,2,12,0\n",
		"header":    "algorithm,y,seed,v,wall_ms\nfcfs,0,1,10,0\neasy,0,1,11,0\nfcfs,0,2,12,0\n",
	} {
		if n := count(got); n == 0 {
			t.Errorf("%s row: no failure reported", name)
		}
	}
}

// buildBinaries builds the system under test once per test binary.
func buildBinaries(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "./cmd/elastisimd", "./cmd/sweep")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building the system under test: %v\n%s", err, out)
	}
	return dir
}

// TestSmokeAllWorkloads runs every workload at tiny size in both modes and
// checks the result line against the contract.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns daemons and sweep processes")
	}
	bin := buildBinaries(t)
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			o := Options{Workload: w.Name, Seed: w.HeldoutSeed, Trace: traced, Bin: bin, Work: t.TempDir(), Tiny: true}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			err := run(ctx, o, &out)
			cancel()
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", w.Name, traced, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool                       `json:"correct"`
				Attempted int                        `json:"attempted"`
				Failed    int                        `json:"failed"`
				Metrics   map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the result: %v\n%s", w.Name, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s", w.Name, traced, res.Correct, res.Attempted, res.Failed, out.String())
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(want))
			}
		}
	}
}
