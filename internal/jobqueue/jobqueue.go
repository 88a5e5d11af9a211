// Package jobqueue is a store-backed job engine for simulation-as-a-
// service: typed job states, worker claiming with lease + heartbeat
// semantics, and a JSONL journal that lets a restarted daemon recover
// queued and completed jobs without re-running finished work.
//
// Since the work-distribution core was extracted into internal/distwork,
// this package is a thin specialization of it: a Job is a
// distwork.Task[json.RawMessage] under its historical field names, the
// journal keeps its original record shape through a legacy Codec (old
// daemon journals replay unchanged), and the metric families keep their
// elastisimd_* names. The lifecycle state machine, lease/steal contract,
// and journal format are documented on package distwork.
//
//	pending ──claim──▶ claimed ──start──▶ running ◀─pause/resume─▶ paused
//	   ▲                  │                  │                        │
//	   └──lease expiry / release────────────┴───────┐                │
//	                                                 ▼                ▼
//	                                      done / failed / cancelled (terminal)
package jobqueue

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/distwork"
	"repro/internal/obs"
)

// State is a job's lifecycle state.
type State = distwork.State

// The job states. Pending jobs are claimable; claimed/running/paused jobs
// belong to a worker under a lease; done/failed/cancelled are terminal.
const (
	StatePending   = distwork.StatePending
	StateClaimed   = distwork.StateClaimed
	StateRunning   = distwork.StateRunning
	StatePaused    = distwork.StatePaused
	StateDone      = distwork.StateDone
	StateFailed    = distwork.StateFailed
	StateCancelled = distwork.StateCancelled
)

// States lists every lifecycle state, in lifecycle order. Exported for
// consumers that enumerate per-state series (the daemon's /metrics).
var States = []State{
	StatePending, StateClaimed, StateRunning, StatePaused,
	StateDone, StateFailed, StateCancelled,
}

// Job is one unit of work: an opaque config payload plus lifecycle
// bookkeeping. Methods on Queue return copies; mutate only through Queue.
type Job struct {
	// ID is assigned by Submit ("j000001", dense per queue lifetime).
	ID string `json:"id"`
	// State is the current lifecycle state.
	State State `json:"state"`
	// Config is the opaque payload (for elastisimd, a combined
	// simulation document).
	Config json.RawMessage `json:"config,omitempty"`
	// Submitted/Started/Finished are wall-clock transition times; Started
	// and Finished are zero until the transition happened.
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started"`
	Finished  time.Time `json:"finished"`
	// Worker names the claim holder while the job is active.
	Worker string `json:"worker,omitempty"`
	// Lease is when the current claim expires unless renewed by
	// Heartbeat. Expired claims are requeued.
	Lease time.Time `json:"lease,omitempty"`
	// Attempts counts claims, including requeues after lost leases.
	Attempts int `json:"attempts,omitempty"`
	// Error holds the failure message for failed jobs.
	Error string `json:"error,omitempty"`
	// Result is an opaque pointer to the job's artifacts (for elastisimd,
	// the artifact directory), set by Finish.
	Result string `json:"result,omitempty"`
	// Note carries auxiliary lifecycle information, e.g. partial-progress
	// details journaled when a shutdown interrupted the job.
	Note string `json:"note,omitempty"`
}

// task/job conversions: a Job and a distwork.Task[json.RawMessage] are
// the same record under different field names (Config vs Payload).

func jobOf(t distwork.Task[json.RawMessage]) Job {
	return Job{
		ID: t.ID, State: t.State, Config: t.Payload,
		Submitted: t.Submitted, Started: t.Started, Finished: t.Finished,
		Worker: t.Worker, Lease: t.Lease, Attempts: t.Attempts,
		Error: t.Error, Result: t.Result, Note: t.Note,
	}
}

func taskOf(j Job) distwork.Task[json.RawMessage] {
	return distwork.Task[json.RawMessage]{
		ID: j.ID, State: j.State, Payload: j.Config,
		Submitted: j.Submitted, Started: j.Started, Finished: j.Finished,
		Worker: j.Worker, Lease: j.Lease, Attempts: j.Attempts,
		Error: j.Error, Result: j.Result, Note: j.Note,
	}
}

// jobCodec journals records in the pre-distwork shape (the Job struct's
// JSON: "config", not "payload"), so journals written by older daemons
// replay unchanged and new journals stay greppable with the same field
// names operators already know.
type jobCodec struct{}

func (jobCodec) Encode(t *distwork.Task[json.RawMessage]) ([]byte, error) {
	j := jobOf(*t)
	return json.Marshal(&j)
}

func (jobCodec) Decode(data []byte) (distwork.Task[json.RawMessage], error) {
	var j Job
	if err := json.Unmarshal(data, &j); err != nil {
		return distwork.Task[json.RawMessage]{}, err
	}
	return taskOf(j), nil
}

// Options tunes a Queue.
type Options struct {
	// Lease is how long a claim stays valid without a heartbeat
	// (default 30s).
	Lease time.Duration
	// Now overrides the clock (tests).
	Now func() time.Time
	// Metrics, when set, receives the queue's operational series: jobs by
	// state (callback gauges over the live store), submission/claim/lease
	// counters, and journal fsync latency. Flight, when set, records every
	// journaled state transition into the crash flight recorder. Both nil
	// (the default) detach observability at zero cost.
	Metrics *obs.Registry
	Flight  *obs.FlightRecorder
	// JournalShards splits the journal across this many hash-sharded
	// files (0 or 1 = one file); GroupCommit batches journal fsyncs
	// into one flush per window (0 = fsync every transition). See
	// distwork.Options.Shards and distwork.Options.GroupCommit.
	JournalShards int
	GroupCommit   time.Duration
}

func (o Options) core() distwork.Options[json.RawMessage] {
	return distwork.Options[json.RawMessage]{
		Lease:        o.Lease,
		Now:          o.Now,
		Metrics:      o.Metrics,
		Flight:       o.Flight,
		Shards:       o.JournalShards,
		GroupCommit:  o.GroupCommit,
		MetricPrefix: "elastisimd",
		Noun:         "job",
		FlightTopic:  "jobqueue",
		IDPrefix:     "j",
		Codec:        jobCodec{},
	}
}

// Queue is an in-memory job store with optional journal persistence. All
// methods are safe for concurrent use; hundreds of submitters and a
// worker pool can share one Queue. It is a Job-typed view over a
// distwork.Store.
type Queue struct {
	s *distwork.Store[json.RawMessage]
}

// New creates a memory-only queue (no journal).
func New(opts Options) *Queue {
	return &Queue{s: distwork.New(opts.core())}
}

// Open creates a queue journaled at path, replaying any existing journal
// first: terminal jobs are kept (with their result pointers) and are
// never re-run; jobs that were claimed, running, or paused when the
// previous process died return to pending. The journal is compacted on
// open.
func Open(path string, opts Options) (*Queue, error) {
	s, err := distwork.Open(path, opts.core())
	if err != nil {
		return nil, err
	}
	return &Queue{s: s}, nil
}

// legacyErr rephrases distwork's structured errors in this package's
// historical vocabulary, keeping daemon error responses unchanged.
func legacyErr(err error) error {
	if err == nil {
		return nil
	}
	var nf *distwork.NotFoundError
	if errors.As(err, &nf) {
		return fmt.Errorf("jobqueue: no job %s", nf.ID)
	}
	var no *distwork.NotOwnerError
	if errors.As(err, &no) {
		return fmt.Errorf("jobqueue: job %s is %s (worker %q), not owned by %q",
			no.ID, no.State, no.Worker, no.Claimant)
	}
	if errors.Is(err, distwork.ErrClosed) {
		return errors.New("jobqueue: queue is closed")
	}
	return err
}

// Submit enqueues a new job with the given payload and returns it.
func (q *Queue) Submit(config json.RawMessage) (Job, error) {
	t, err := q.s.Submit(append(json.RawMessage(nil), config...))
	if err != nil {
		return Job{}, legacyErr(err)
	}
	return jobOf(t), nil
}

// Get returns a copy of the job, if it exists.
func (q *Queue) Get(id string) (Job, bool) {
	t, ok := q.s.Get(id)
	if !ok {
		return Job{}, false
	}
	return jobOf(t), true
}

// List returns copies of all jobs in submission order.
func (q *Queue) List() []Job {
	tasks := q.s.List()
	out := make([]Job, 0, len(tasks))
	for _, t := range tasks {
		out = append(out, jobOf(t))
	}
	return out
}

// ExpireLeases requeues every active job whose lease has lapsed (the
// worker stopped heartbeating) and reports how many were requeued.
func (q *Queue) ExpireLeases() int { return q.s.ExpireLeases() }

// TryClaim claims the oldest pending job for worker, or reports none
// available. Expired leases are collected first, so a crashed worker's
// jobs become claimable here.
func (q *Queue) TryClaim(worker string) (Job, bool) {
	t, ok := q.s.TryClaim(worker)
	if !ok {
		return Job{}, false
	}
	return jobOf(t), true
}

// Claim blocks until a pending job is available (or ctx is done / the
// queue closes) and claims it for worker.
func (q *Queue) Claim(ctx context.Context, worker string) (Job, error) {
	t, err := q.s.Claim(ctx, worker)
	if err != nil {
		return Job{}, legacyErr(err)
	}
	return jobOf(t), nil
}

// Heartbeat renews worker's lease on the job.
func (q *Queue) Heartbeat(id, worker string) error {
	return legacyErr(q.s.Heartbeat(id, worker))
}

// MarkRunning transitions a claimed (or paused) job to running.
func (q *Queue) MarkRunning(id, worker string) error {
	return legacyErr(q.s.MarkRunning(id, worker))
}

// MarkPaused transitions a running job to paused. The worker keeps the
// claim and must keep heartbeating.
func (q *Queue) MarkPaused(id, worker string) error {
	return legacyErr(q.s.MarkPaused(id, worker))
}

// Finish moves an owned job to a terminal state: done when runErr is nil,
// failed otherwise. result is an opaque artifact pointer stored on the
// job and survives journal recovery.
func (q *Queue) Finish(id, worker, result string, runErr error) error {
	return legacyErr(q.s.Finish(id, worker, result, runErr))
}

// FinishCancelled moves an owned job to cancelled (a cancel request was
// honored mid-run); result may point at partial artifacts.
func (q *Queue) FinishCancelled(id, worker, result string) error {
	return legacyErr(q.s.FinishCancelled(id, worker, result))
}

// Release returns an owned job to pending without finishing it — the
// graceful-shutdown path. note (e.g. partial-progress details) is
// journaled with the transition, so a restarted daemon sees how far the
// interrupted run got before it re-runs the job.
func (q *Queue) Release(id, worker, note string) error {
	return legacyErr(q.s.Release(id, worker, note))
}

// Cancel requests cancellation. A pending job is cancelled immediately;
// for an active job the state is returned unchanged and the caller must
// signal the owning worker (which then calls FinishCancelled). Cancelling
// a terminal job is a no-op. The returned state is the job's state after
// the call.
func (q *Queue) Cancel(id string) (State, error) {
	st, err := q.s.Cancel(id)
	return st, legacyErr(err)
}

// Counts tallies jobs by state.
func (q *Queue) Counts() map[State]int { return q.s.Counts() }

// Close flushes and closes the journal and wakes all blocked Claim calls
// with an error. Jobs are not mutated: active jobs stay active in the
// journal and will be requeued by the next Open.
func (q *Queue) Close() error { return q.s.Close() }
