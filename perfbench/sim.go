package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"repro/elastisim"
	"repro/internal/job"
	"repro/internal/sched"
)

// simInput is one simulation workload as the elastisim API receives it.
// Generating it is outside every timed region.
type simInput struct {
	platform  *elastisim.PlatformSpec
	workload  *elastisim.Workload
	failures  *elastisim.FailureSpec
	algorithm string
	options   elastisim.Options
}

// xlInput is the extreme-scale rigid workload: ~200k single-phase,
// compute-only jobs of 1/2/4 nodes on 10k nodes, sharing three
// application templates, scheduled first-fit every 30 s. Job compute is
// job-private, so the fluid solver is bypassed and the kernel, job
// lifecycle, allocator and recorder do the work.
func xlInput(seed uint64, tiny bool) simInput {
	nodes, jobs := 10000, 200000
	if tiny {
		nodes, jobs = 100, 2000
	}
	rng := splitmix(seed)
	var apps [3]*job.Application
	for iters := 1; iters <= 3; iters++ {
		apps[iters-1] = &job.Application{Phases: []job.Phase{{
			Name:       "main",
			Iterations: iters,
			Tasks:      []job.Task{{Kind: job.TaskCompute, Name: "compute", Model: job.MustExprModel("flops")}},
		}}}
	}
	const rate = 7.0 // mean arrivals per simulated second
	js := make([]*job.Job, 0, jobs)
	now := 0.0
	for i := 0; i < jobs; i++ {
		now += -math.Log(1-rng.f64()) / rate
		iters := 1 + int(rng.next()%3)
		target := 100 + 800*rng.f64() // seconds on the assigned nodes
		js = append(js, &job.Job{
			ID:         job.ID(i),
			Type:       job.Rigid,
			SubmitTime: now,
			NumNodes:   1 << (rng.next() % 3),
			Args:       map[string]float64{"flops": target / float64(iters) * 1e12},
			App:        apps[iters-1],
		})
	}
	w := &elastisim.Workload{Jobs: js}
	w.Sort()
	return simInput{
		platform:  elastisim.HomogeneousPlatform("xl", nodes, 1e12, 1e10, 1e11, 1e11),
		workload:  w,
		algorithm: "firstfit",
		options:   elastisim.Options{InvocationInterval: 30, DisableEventDriven: true},
	}
}

// mfInput is the scheduler-heavy workload: GenerateWorkload jobs of every
// flexibility class (rigid/moldable/malleable/evolving 30/20/40/10) with
// communication and I/O, checkpointing to a shared burst buffer, arriving
// near saturation on a tapered tree, scheduled event-driven by the
// adaptive policy under Weibull node failures recovered by shrinking.
func mfInput(seed uint64, tiny bool) (simInput, error) {
	nodes, jobs, maxJob := 1024, 10000, 64
	if tiny {
		nodes, jobs, maxJob = 64, 200, 16
	}
	const (
		nodeSpeed = 100e9
		linkBW    = 10e9
		leaf      = 16
	)
	spec := elastisim.HomogeneousPlatform("tree", nodes, nodeSpeed, linkBW, 80e9, 60e9)
	spec.Network.Topology = "tree"
	spec.Network.GroupSize = leaf
	spec.Network.UplinkBandwidth = leaf * linkBW / 4 // 1:4 tapered uplinks
	spec.BurstBuffer = &elastisim.BurstBufferSpec{Kind: "shared", ReadBandwidth: 200e9, WriteBandwidth: 150e9}
	wl, err := elastisim.GenerateWorkload(elastisim.WorkloadConfig{
		Name:         "malleable-failures",
		Seed:         seed,
		Count:        jobs,
		Arrival:      job.Arrival{Kind: job.ArrivalPoisson, Rate: 0.07 * float64(nodes) / 1024},
		Nodes:        [2]int{2, maxJob},
		MachineNodes: nodes,
		NodeSpeed:    nodeSpeed,
		TypeShares: map[job.Type]float64{
			job.Rigid: 0.3, job.Moldable: 0.2, job.Malleable: 0.4, job.Evolving: 0.1,
		},
		CheckpointTarget:   job.TargetBB,
		CheckpointInterval: "600",
	})
	if err != nil {
		return simInput{}, err
	}
	return simInput{
		platform: spec,
		workload: wl,
		failures: &elastisim.FailureSpec{
			Model:    elastisim.FailureWeibull,
			Seed:     seed ^ 0x5eed,
			MTBF:     1e6,
			MTTR:     600,
			Recovery: elastisim.RecoverShrink,
		},
		algorithm: "adaptive",
	}, nil
}

func runSimXLRigid(ctx context.Context, o Options) (*Report, error) {
	return runSim(ctx, o, xlInput(o.Seed, o.Tiny))
}

func runSimMalleableFailures(ctx context.Context, o Options) (*Report, error) {
	in, err := mfInput(o.Seed, o.Tiny)
	if err != nil {
		return nil, err
	}
	return runSim(ctx, o, in)
}

// simRep is what one NewSession + Session.Run repetition measured.
type simRep struct {
	setup, run time.Duration
	cpu        time.Duration // process CPU over Run
	rssMB      float64       // peak resident set over NewSession and Run
	rt         runtimeDelta  // Go runtime counters over Run
	res        *elastisim.Result
	algo       *timedAlgo // traced repetitions only
}

// runSim repeats NewSession + Session.Run on one generated input until the
// measured time is spent. A traced run alternates untraced and traced
// repetitions, so the tracing overhead is measured within it.
func runSim(ctx context.Context, o Options, in simInput) (*Report, error) {
	w, err := specWorkload(o.Workload)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	minReps := 3
	if o.Trace {
		tr = newTracer()
		minReps = 4
	}
	if o.Tiny {
		minReps = 2
	}
	jobs := float64(len(in.workload.Jobs))
	rep := &Report{}
	var plain, traced []simRep
	shares := newCPUShares()
	firstDigest := ""
	start := time.Now()
	for i := 0; i < minReps || time.Since(start) < o.Seconds; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		withTrace := o.Trace && i%2 == 1
		var prof *bytes.Buffer
		if withTrace {
			prof = &bytes.Buffer{}
		}
		r, err := simOnce(ctx, in, tr, prof)
		if err != nil {
			return nil, err
		}
		digest, problems := checkSimResult(r.res, len(in.workload.Jobs))
		switch {
		case firstDigest == "":
			firstDigest = digest
		case digest != firstDigest:
			problems = append(problems, fmt.Sprintf("result digest %s differs from the first repetition's %s", digest, firstDigest))
		}
		if o.Seed == w.DefaultSeed && !o.Tiny && w.ResultDigest != "" && digest != w.ResultDigest {
			problems = append(problems, fmt.Sprintf("result digest %s, spec.json pins %s for the default seed", digest, w.ResultDigest))
		}
		rep.settle(fmt.Sprintf("repetition %d (traced=%v)", i, withTrace), problems)
		o.logf("%s: repetition %d traced=%v setup=%v run=%v cpu=%v", o.Workload, i, withTrace, r.setup, r.run, r.cpu)
		r.res = dropRecords(r.res)
		if withTrace {
			if err := shares.add(prof.Bytes()); err != nil {
				return nil, err
			}
			if err := os.WriteFile(o.artifact("cpu", ".pprof"), prof.Bytes(), 0o644); err != nil {
				return nil, err
			}
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	o.logf("%s: result digest %s over %d repetitions", o.Workload, firstDigest, len(plain)+len(traced))

	if !o.Trace {
		var setup, run, rate []float64
		rss := 0.0
		for _, r := range plain {
			setup = append(setup, seconds(r.setup))
			run = append(run, millis(r.run))
			rate = append(rate, jobs/seconds(r.run))
			rss = max(rss, r.rssMB)
		}
		n := len(plain)
		rep.add("setup_s", median(setup), "s", n)
		rep.add("work_per_s", median(rate), "1/s", n)
		rep.add("latency_p50_ms", median(run), "ms", n)
		rep.add("peak_rss_mb", rss, "MB", n)
		return rep, nil
	}

	var setup, run, cpu, busy, plainRun []float64
	var calls []float64
	for _, r := range traced {
		setup = append(setup, seconds(r.setup))
		run = append(run, seconds(r.run))
		cpu = append(cpu, seconds(r.cpu))
		busy = append(busy, seconds(r.algo.busy))
		calls = append(calls, r.algo.calls...)
	}
	for _, r := range plain {
		plainRun = append(plainRun, seconds(r.run))
	}
	last := traced[len(traced)-1]
	tel := last.res.Telemetry
	n := len(traced)
	rep.add("session.new_s", median(setup), "s", n)
	rep.add("session.run_s", median(run), "s", n)
	rep.add("session.run_cpu_s", median(cpu), "s", n)
	rep.add("sched.calls", float64(len(last.algo.calls)), "count", 0)
	rep.add("sched.busy_s", median(busy), "s", n)
	rep.add("sched.call_p99_us", 1e6*o.percentileOrMax("sched.call_p99_us", calls, 99), "us", len(calls))
	rep.add("sched.elided", float64(tel.Scheduler.Elided), "count", 0)
	rep.add("sched.applied_ratio", ratio(float64(tel.Scheduler.Applied), float64(tel.Scheduler.Applied+tel.Scheduler.Rejected)), "ratio", 0)
	self := median(run) - median(busy)
	rep.add("engine.self_s", self, "s", n)
	rep.add("engine.ns_per_event", 1e9*self/float64(tel.Kernel.Fired), "ns", n)
	rep.add("des.events", float64(tel.Kernel.Fired), "count", 0)
	rep.add("des.cancelled", float64(tel.Kernel.Cancelled), "count", 0)
	rep.add("des.peak_queue", float64(tel.Kernel.PeakQueue), "count", 0)
	rep.add("fluid.solves", float64(tel.Solver.Solves), "count", 0)
	rep.add("fluid.acts_per_solve", ratio(float64(tel.Solver.SolvedActivities), float64(tel.Solver.Solves)), "count", 0)
	rep.add("mem.bytes_per_job", float64(last.rt.bytes)/jobs, "B", 0)
	rep.add("mem.allocs_per_job", float64(last.rt.objects)/jobs, "count", 0)
	rep.add("gc.cycles", float64(last.rt.gcCycles), "count", 0)
	rep.add("gc.cpu_s", last.rt.gcCPU, "s", 0)
	shares.addTo(rep)
	rep.add("trace.overhead_frac", median(run)/median(plainRun)-1, "ratio", n)
	return rep, tr.writeFile(o.artifact("trace", ".json"))
}

// simOnce builds and runs one session. With a tracer it wraps the
// algorithm in a timing shim, records spans at the NewSession,
// Session.Run and Algorithm seams, and writes a CPU profile to prof.
func simOnce(ctx context.Context, in simInput, tr *tracer, prof *bytes.Buffer) (r simRep, err error) {
	algo, err := elastisim.NewAlgorithm(in.algorithm)
	if err != nil {
		return r, err
	}
	group, runSpan := uint64(0), uint64(0)
	if prof != nil {
		group, runSpan = tr.newID(), tr.newID()
		r.algo = &timedAlgo{inner: algo, tr: tr, group: group, parent: runSpan}
		algo = r.algo.wrapped()
	}
	cfg := elastisim.Config{
		Platform:  in.platform,
		Workload:  in.workload,
		Algorithm: algo,
		Failures:  in.failures,
		Options:   in.options,
	}
	// Every repetition starts from the same heap, with freed memory
	// returned to the OS so each one's resident-set peak is its own.
	debug.FreeOSMemory()
	stopRSS, peakRSS := make(chan struct{}), make(chan float64)
	go func() { peakRSS <- watchRSS(stopRSS, 5*time.Millisecond) }()
	defer func() {
		close(stopRSS)
		r.rssMB = <-peakRSS
	}()
	t0 := time.Now()
	s, err := elastisim.NewSession(cfg)
	r.setup = time.Since(t0)
	if err != nil {
		return r, err
	}
	if prof != nil {
		if err := pprof.StartCPUProfile(prof); err != nil {
			return r, err
		}
	}
	rt0 := readRuntime()
	cpu0 := selfCPU()
	t1 := time.Now()
	r.res, err = s.Run(ctx)
	t2 := time.Now()
	r.run = t2.Sub(t1)
	r.cpu = selfCPU() - cpu0
	r.rt = readRuntime().sub(rt0)
	if prof != nil {
		pprof.StopCPUProfile()
		tr.record(span{name: "NewSession", group: group, parent: group, start: t0, end: t0.Add(r.setup)})
		tr.record(span{name: "Session.Run", id: runSpan, group: group, parent: group, start: t1, end: t2})
		tr.record(span{name: "run", id: group, group: group, start: t0, end: t2})
	}
	return r, err
}

// checkSimResult computes the canonical result digest and checks the
// invariants that hold on any seed.
func checkSimResult(res *elastisim.Result, jobs int) (digest string, problems []string) {
	h := sha256.New()
	if err := res.WriteJSON(h); err != nil {
		return "", []string{fmt.Sprintf("writing result JSON: %v", err)}
	}
	digest = "sha256:" + hex.EncodeToString(h.Sum(nil))
	if res.Abort != elastisim.AbortDrained {
		problems = append(problems, fmt.Sprintf("run ended %v, not drained", res.Abort))
	}
	if len(res.Records) != jobs {
		problems = append(problems, fmt.Sprintf("%d records for %d jobs", len(res.Records), jobs))
	}
	for _, rec := range res.Records {
		switch rec.Status {
		case elastisim.StatusCompleted, elastisim.StatusKilledWalltime, elastisim.StatusKilledScheduler, elastisim.StatusFailedNode:
		default:
			problems = append(problems, fmt.Sprintf("job %d ended in non-terminal status %q", rec.ID, rec.Status))
		}
		if len(problems) > 5 {
			break
		}
	}
	if res.Telemetry.Kernel.Fired != res.Events {
		problems = append(problems, fmt.Sprintf("des.events %d != Result.Events %d", res.Telemetry.Kernel.Fired, res.Events))
	}
	return digest, problems
}

// dropRecords keeps a result's counters but releases its per-job state,
// so repetitions do not stack up memory.
func dropRecords(res *elastisim.Result) *elastisim.Result {
	return &elastisim.Result{Events: res.Events, Telemetry: res.Telemetry}
}

// timedAlgo is a transparent Algorithm wrapper timing every Schedule
// call. It must not change a simulated byte: traced and untraced
// repetitions are checked to produce the same result digest.
type timedAlgo struct {
	inner  elastisim.Algorithm
	tr     *tracer
	group  uint64
	parent uint64
	busy   time.Duration
	calls  []float64 // seconds per call
}

// maxSchedSpans caps the per-call spans kept per repetition; every call
// is still timed.
const maxSchedSpans = 2000

func (a *timedAlgo) Name() string { return a.inner.Name() }

func (a *timedAlgo) Schedule(inv *elastisim.Invocation) []elastisim.Decision {
	t0 := time.Now()
	d := a.inner.Schedule(inv)
	t1 := time.Now()
	dt := t1.Sub(t0)
	a.busy += dt
	a.calls = append(a.calls, dt.Seconds())
	if len(a.calls) <= maxSchedSpans {
		a.tr.record(span{name: "Algorithm.Schedule", track: 1, group: a.group, parent: a.parent, start: t0, end: t1})
	}
	return d
}

// wrapped returns the wrapper with exactly the optional interfaces of
// the wrapped algorithm, so the engine treats both alike.
func (a *timedAlgo) wrapped() elastisim.Algorithm {
	if fl, ok := a.inner.(sched.FreeListUser); ok {
		return &timedFreeListAlgo{a, fl}
	}
	return a
}

type timedFreeListAlgo struct {
	*timedAlgo
	fl sched.FreeListUser
}

func (a *timedFreeListAlgo) WantsFreeList() bool { return a.fl.WantsFreeList() }

// runtimeDelta holds Go runtime counters over an interval.
type runtimeDelta struct {
	objects, bytes, gcCycles uint64
	gcCPU                    float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	d := runtimeDelta{objects: u(0), bytes: u(1), gcCycles: u(2)}
	if s[3].Value.Kind() == metrics.KindFloat64 {
		d.gcCPU = s[3].Value.Float64()
	}
	return d
}

func (d runtimeDelta) sub(o runtimeDelta) runtimeDelta {
	return runtimeDelta{d.objects - o.objects, d.bytes - o.bytes, d.gcCycles - o.gcCycles, d.gcCPU - o.gcCPU}
}

// splitmix is splitmix64: a tiny deterministic generator, so workloads do
// not change with the standard library's math/rand.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix) f64() float64 { return float64(s.next()>>11) / (1 << 53) }
