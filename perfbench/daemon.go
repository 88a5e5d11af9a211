package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/elastisim"
	"repro/internal/job"
)

// daemonConfig is one submitted simulation document and the canonical
// result a direct elastisim.Run of it produces.
type daemonConfig struct {
	body, want []byte
}

// daemonConfigs generates the seeded pool of configs the clients submit:
// mostly small ones the size of examples/service/config.json, and one in
// ten medium ones spanning several 4096-event Step chunks. The reference
// results are computed here, before anything is timed.
func daemonConfigs(seed uint64, tiny bool) ([]daemonConfig, error) {
	pool := 20
	if tiny {
		pool = 4
	}
	out := make([]daemonConfig, pool)
	for i := range out {
		nodes, jobs := 16, 4
		if i%10 == 9 || (tiny && i == pool-1) {
			nodes, jobs = 64, 120
		}
		wl, err := elastisim.GenerateWorkload(elastisim.WorkloadConfig{
			Name:         fmt.Sprintf("daemon-%d", i),
			Seed:         seed*1000 + uint64(i),
			Count:        jobs,
			Arrival:      job.Arrival{Kind: job.ArrivalPoisson, Rate: float64(nodes) / 1500},
			Nodes:        [2]int{1, nodes / 2},
			MachineNodes: nodes,
			NodeSpeed:    100e9,
			TypeShares:   map[job.Type]float64{job.Rigid: 0.4, job.Moldable: 0.2, job.Malleable: 0.4},
		})
		if err != nil {
			return nil, err
		}
		cfg := elastisim.Config{
			Platform:  elastisim.HomogeneousPlatform("daemon", nodes, 100e9, 10e9, 80e9, 60e9),
			Workload:  wl,
			Algorithm: elastisim.NewAdaptive(),
		}
		body, err := elastisim.MarshalConfig(cfg)
		if err != nil {
			return nil, err
		}
		// The reference goes through the same document the daemon parses.
		parsed, err := elastisim.ParseConfig(body)
		if err != nil {
			return nil, err
		}
		res, err := elastisim.Run(parsed)
		if err != nil {
			return nil, err
		}
		var want bytes.Buffer
		if err := res.WriteJSON(&want); err != nil {
			return nil, err
		}
		out[i] = daemonConfig{body: body, want: want.Bytes()}
	}
	// The submission order is a seeded permutation of the pool.
	rng := splitmix(seed)
	for i := len(out) - 1; i > 0; i-- {
		j := int(rng.next() % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out, nil
}

// startDaemon spawns elastisimd with default flags on a fresh data
// directory and returns it once /readyz answers 200, with the time that
// took.
func startDaemon(ctx context.Context, g *procGroup, o Options, hc *http.Client, i int) (*child, string, time.Duration, error) {
	c, err := g.start(filepath.Join(o.Bin, "elastisimd"),
		[]string{"-addr", "127.0.0.1:0", "-data", filepath.Join(o.Work, fmt.Sprintf("daemon-%d", i))},
		"listening on ")
	if err != nil {
		return nil, "", 0, err
	}
	addr, err := c.waitAddr(ctx, 30*time.Second)
	if err != nil {
		return nil, "", 0, err
	}
	base := "http://" + addr
	ready, err := pollUntil(ctx, 200*time.Microsecond, 30*time.Second, func() (bool, error) {
		_, err := getBody(ctx, hc, base+"/readyz")
		return err == nil, err
	})
	if err != nil {
		return nil, "", 0, fmt.Errorf("elastisimd readiness: %w", err)
	}
	return c, base, ready.Sub(c.started), nil
}

// sessionSample is what one closed-loop iteration measured.
type sessionSample struct {
	traced                 bool
	rtt, submit, result    time.Duration
	lag, queueWait, runDur time.Duration
	problems               []string
}

// jobView is the part of the daemon's job JSON the benchmark reads.
type jobView struct {
	ID        string     `json:"id"`
	State     string     `json:"state"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started"`
	Finished  *time.Time `json:"finished"`
	Error     string     `json:"error"`
}

func runDaemonClosedLoop(ctx context.Context, o Options) (*Report, error) {
	configs, err := daemonConfigs(o.Seed, o.Tiny)
	if err != nil {
		return nil, err
	}
	var g procGroup
	defer g.killAll()
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()

	setupReps, minSamples := 9, 200
	if o.Tiny {
		setupReps, minSamples = 2, 4
	}
	var (
		setups []float64
		d      *child
		base   string
	)
	for i := 0; i < setupReps; i++ {
		c, b, dt, err := startDaemon(ctx, &g, o, hc, i)
		if err != nil {
			return nil, err
		}
		setups = append(setups, seconds(dt))
		if i < setupReps-1 {
			c.interrupt()
			if err := c.wait(30 * time.Second); err != nil && !isInterruptExit(err) {
				return nil, err
			}
			continue
		}
		d, base = c, b
	}

	var tr *tracer
	if o.Trace {
		tr = newTracer()
	}
	before, err := scrapeURL(ctx, hc, base+"/metrics")
	if err != nil {
		return nil, err
	}
	cpu0, err := d.cpu()
	if err != nil {
		return nil, err
	}
	var (
		mu      sync.Mutex
		samples []sessionSample
		next    atomic.Int64
		wg      sync.WaitGroup
	)
	start := time.Now()
	hardStop := start.Add(3*o.Seconds + 60*time.Second)
	for client := 1; client <= 2; client++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			for {
				mu.Lock()
				n := len(samples)
				mu.Unlock()
				now := time.Now()
				if ctx.Err() != nil || now.After(hardStop) || (now.Sub(start) >= o.Seconds && n >= minSamples) {
					return
				}
				k := next.Add(1) - 1
				cfg := configs[int(k)%len(configs)]
				s := daemonSession(ctx, hc, base, cfg, tr, o.Trace && k%2 == 0, client)
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}
		}(client)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	after, err := scrapeURL(ctx, hc, base+"/metrics")
	if err != nil {
		return nil, err
	}
	d.interrupt()
	if err := d.wait(60 * time.Second); err != nil && !isInterruptExit(err) {
		return nil, err
	}
	cpu1, err := d.cpu() // the exited daemon's rusage, drain included
	if err != nil {
		return nil, err
	}

	rep := &Report{}
	var rtt, rttTraced, rttPlain, submit, result, lag, wait, runDur []float64
	for i, s := range samples {
		rep.settle(fmt.Sprintf("session %d", i), s.problems)
		if len(s.problems) > 0 {
			continue
		}
		rtt = append(rtt, millis(s.rtt))
		if !s.traced {
			rttPlain = append(rttPlain, millis(s.rtt))
			continue
		}
		rttTraced = append(rttTraced, millis(s.rtt))
		submit = append(submit, millis(s.submit))
		result = append(result, millis(s.result))
		lag = append(lag, millis(s.lag))
		wait = append(wait, millis(s.queueWait))
		runDur = append(runDur, millis(s.runDur))
	}
	if len(rtt) == 0 {
		return rep, nil
	}
	sessions := float64(len(samples))
	cpuPerSession := seconds(cpu1-cpu0) / sessions
	if !o.Trace {
		rep.add("setup_s", median(setups), "s", len(setups))
		rep.add("work_per_s", sessions/seconds(elapsed), "1/s", len(samples))
		rep.add("latency_p50_ms", median(rtt), "ms", len(rtt))
		rep.add("peak_rss_mb", d.peakRSSMB(), "MB", 0)
		return rep, nil
	}
	delta := before.delta(after)
	rep.add("daemon.rtt_p95_ms", o.percentileOrMax("daemon.rtt_p95_ms", rtt, 95), "ms", len(rtt))
	rep.add("http.submit_ms", median(submit), "ms", len(submit))
	rep.add("http.result_ms", median(result), "ms", len(result))
	for _, r := range []struct{ metric, route string }{
		{"httpapi.submit.handler_ms", "POST /v1/sessions"},
		{"httpapi.get.handler_ms", "GET /v1/sessions/{id}"},
		{"httpapi.events.handler_ms", "GET /v1/sessions/{id}/events"},
		{"httpapi.result.handler_ms", "GET /v1/sessions/{id}/result"},
	} {
		label := fmt.Sprintf("route=%q", r.route)
		rep.add(r.metric, delta.histMeanMS("elastisimd_http_request_seconds", label), "ms",
			int(delta.sum("elastisimd_http_request_seconds_count", label)))
	}
	rep.add("jobqueue.queue_wait_ms", median(wait), "ms", len(wait))
	rep.add("job.run_ms", median(runDur), "ms", len(runDur))
	rep.add("daemon.cpu_s_per_session", cpuPerSession, "s", len(samples))
	rep.add("sse.notify_lag_ms", median(lag), "ms", len(lag))
	fsyncs := delta.sum("elastisimd_journal_fsync_seconds_count")
	rep.add("journal.fsyncs_per_session", fsyncs/sessions, "count", len(samples))
	rep.add("journal.fsync_ms", delta.histMeanMS("elastisimd_journal_fsync_seconds"), "ms", int(fsyncs))
	rep.add("trace.overhead_frac", median(rttTraced)/median(rttPlain)-1, "ratio", len(rttTraced))
	return rep, tr.writeFile(o.artifact("trace", ".json"))
}

// isInterruptExit reports a child's exit status 130, how the daemon
// reports a graceful drain after SIGINT.
func isInterruptExit(err error) bool {
	var ee *exec.ExitError
	return errors.As(err, &ee) && ee.ExitCode() == 130
}

// daemonSession runs one closed-loop iteration: submit, follow the SSE
// stream to "done", fetch the result, then read the job view.
func daemonSession(ctx context.Context, hc *http.Client, base string, cfg daemonConfig, tr *tracer, traced bool, track int) sessionSample {
	s := sessionSample{traced: traced}
	if !traced {
		tr = nil
	}
	group := tr.newID()
	fail := func(format string, args ...any) sessionSample {
		s.problems = append(s.problems, fmt.Sprintf(format, args...))
		return s
	}
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/sessions", bytes.NewReader(cfg.body))
	if err != nil {
		return fail("%v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return fail("submit: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return fail("submit: %s %v: %s", resp.Status, err, bytes.TrimSpace(body))
	}
	var sub jobView
	if err := json.Unmarshal(body, &sub); err != nil || sub.ID == "" {
		return fail("submit response %q: %v", body, err)
	}
	t1 := time.Now()
	s.submit = t1.Sub(t0)
	tr.record(span{name: "POST /v1/sessions", track: track, group: group, parent: group, start: t0, end: t1})

	done, doneAt, err := followEvents(ctx, hc, base+"/v1/sessions/"+sub.ID+"/events")
	if err != nil {
		return fail("events: %v", err)
	}
	t2 := time.Now()
	tr.record(span{name: "GET /v1/sessions/{id}/events", track: track, group: group, parent: group, start: t1, end: t2})

	got, err := getBody(ctx, hc, base+"/v1/sessions/"+sub.ID+"/result")
	if err != nil {
		return fail("result: %v", err)
	}
	t3 := time.Now()
	s.result = t3.Sub(t2)
	s.rtt = t3.Sub(t0)
	tr.record(span{name: "GET /v1/sessions/{id}/result", track: track, group: group, parent: group, start: t2, end: t3})
	tr.record(span{name: "session", id: group, track: track, group: group, start: t0, end: t3})

	if !bytes.Equal(got, cfg.want) {
		s.problems = append(s.problems, fmt.Sprintf("session %s: result.json (%d bytes) differs from a direct elastisim.Run (%d bytes)", sub.ID, len(got), len(cfg.want)))
	}
	viewBody, err := getBody(ctx, hc, base+"/v1/sessions/"+sub.ID)
	if err != nil {
		return fail("get: %v", err)
	}
	var view jobView
	if err := json.Unmarshal(viewBody, &view); err != nil {
		return fail("job view: %v", err)
	}
	if done.State != "done" || view.State != "done" || view.Started == nil || view.Finished == nil {
		return fail("session %s ended %q/%q: %s", sub.ID, done.State, view.State, view.Error)
	}
	s.queueWait = view.Started.Sub(view.Submitted)
	s.runDur = view.Finished.Sub(*view.Started)
	s.lag = doneAt.Sub(*view.Finished)
	return s
}

// followEvents reads an SSE stream until its "done" event and returns the
// job view it carries with the time it arrived.
func followEvents(ctx context.Context, hc *http.Client, url string) (jobView, time.Time, error) {
	var view jobView
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return view, time.Time{}, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return view, time.Time{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return view, time.Time{}, fmt.Errorf("%s", resp.Status)
	}
	br := bufio.NewReader(resp.Body)
	event := ""
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return view, time.Time{}, fmt.Errorf("stream ended before done: %w", err)
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "done":
			at := time.Now()
			err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &view)
			return view, at, err
		}
	}
}
