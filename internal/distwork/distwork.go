// Package distwork is the repository's work-distribution core: a
// payload-generic task store with lease+heartbeat claiming, a journaled
// (JSONL) lifecycle with compaction and torn-tail tolerance, and a
// fixed-size worker pool. It is the one machinery under both execution
// engines in the repo — the elastisimd job queue (internal/jobqueue is a
// thin json.RawMessage specialization with a legacy journal codec) and
// the distributed, resumable sweep grids of internal/experiments.
//
// The lifecycle is a small state machine:
//
//	pending ──claim──▶ claimed ──start──▶ running ◀─pause/resume─▶ paused
//	   ▲                  │                  │                        │
//	   └──lease expiry / release────────────┴───────┐                │
//	                                                 ▼                ▼
//	                                      done / failed / cancelled (terminal)
//
// Claims carry a lease: a worker that stops heartbeating (crashed, hung,
// killed) loses the task, which returns to pending for another worker —
// that re-claim is a *steal*, the mechanism behind both daemon crash
// recovery and straggler work-stealing in distributed sweeps. Every
// transition is journaled; Open replays the journal, requeues tasks that
// were mid-flight when the previous process died, keeps terminal tasks
// (and their result pointers) without re-running them, and compacts the
// file to one line per task.
package distwork

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// State is a task's lifecycle state.
type State string

// The task states. Pending tasks are claimable; claimed/running/paused
// tasks belong to a worker under a lease; done/failed/cancelled are
// terminal.
const (
	StatePending   State = "pending"
	StateClaimed   State = "claimed"
	StateRunning   State = "running"
	StatePaused    State = "paused"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// States lists every lifecycle state, in lifecycle order. Exported for
// consumers that enumerate per-state series (the /metrics exposition).
var States = []State{
	StatePending, StateClaimed, StateRunning, StatePaused,
	StateDone, StateFailed, StateCancelled,
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Active reports whether a worker currently owns the task.
func (s State) Active() bool {
	return s == StateClaimed || s == StateRunning || s == StatePaused
}

// Valid reports whether s is one of the defined states.
func (s State) Valid() bool {
	switch s {
	case StatePending, StateClaimed, StateRunning, StatePaused,
		StateDone, StateFailed, StateCancelled:
		return true
	}
	return false
}

// Sentinel errors for ownership failures, so transports (the HTTP lease
// API) can map them to status codes without string matching.
var (
	// ErrNotFound reports an unknown task id.
	ErrNotFound = errors.New("distwork: no such task")
	// ErrNotOwner reports a transition attempted by a worker that does not
	// hold the task's claim (stale lease, already settled, never claimed).
	ErrNotOwner = errors.New("distwork: task not owned by worker")
	// ErrClosed reports an operation on a closed store.
	ErrClosed = errors.New("distwork: store is closed")
)

// NotFoundError is the concrete ErrNotFound: it carries the id so
// specializations can rephrase the message in their own vocabulary.
type NotFoundError struct{ ID string }

func (e *NotFoundError) Error() string { return fmt.Sprintf("distwork: no task %s", e.ID) }

// Unwrap makes errors.Is(err, ErrNotFound) true.
func (e *NotFoundError) Unwrap() error { return ErrNotFound }

// NotOwnerError is the concrete ErrNotOwner: the task's actual state and
// holder, plus the worker whose claim was rejected.
type NotOwnerError struct {
	ID       string
	State    State
	Worker   string // current holder ("" if unowned)
	Claimant string // the rejected worker
}

func (e *NotOwnerError) Error() string {
	return fmt.Sprintf("distwork: task %s is %s (worker %q), not owned by %q",
		e.ID, e.State, e.Worker, e.Claimant)
}

// Unwrap makes errors.Is(err, ErrNotOwner) true.
func (e *NotOwnerError) Unwrap() error { return ErrNotOwner }

// Task is one unit of work: a typed payload plus lifecycle bookkeeping.
// Methods on Store return copies; mutate only through the Store.
type Task[P any] struct {
	// ID is assigned by Submit (Options.IDPrefix + dense sequence number,
	// e.g. "t000001").
	ID string `json:"id"`
	// State is the current lifecycle state.
	State State `json:"state"`
	// Payload is the work description (for elastisimd, a combined
	// simulation document; for sweep grids, a cell spec).
	Payload P `json:"payload,omitempty"`
	// Submitted/Started/Finished are wall-clock transition times; Started
	// and Finished are zero until the transition happened.
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started"`
	Finished  time.Time `json:"finished"`
	// Worker names the claim holder while the task is active.
	Worker string `json:"worker,omitempty"`
	// Lease is when the current claim expires unless renewed by
	// Heartbeat. Expired claims are requeued.
	Lease time.Time `json:"lease,omitempty"`
	// Attempts counts claims, including requeues after lost leases.
	Attempts int `json:"attempts,omitempty"`
	// Error holds the failure message for failed tasks.
	Error string `json:"error,omitempty"`
	// Result is an opaque pointer to the task's outcome (an artifact
	// directory, an encoded result document), set by Finish.
	Result string `json:"result,omitempty"`
	// Note carries auxiliary lifecycle information, e.g. partial-progress
	// details journaled when a shutdown interrupted the task.
	Note string `json:"note,omitempty"`
}

// Options tunes a Store.
type Options[P any] struct {
	// Lease is how long a claim stays valid without a heartbeat
	// (default 30s).
	Lease time.Duration
	// Now overrides the clock (tests).
	Now func() time.Time
	// Metrics, when set, receives the store's operational series: tasks by
	// state (callback gauges over the live store), submission/claim/steal/
	// lease counters, and journal fsync latency, compactions, and write
	// errors. Flight, when set, records every journaled state transition
	// into the crash flight recorder. Both nil (the default) detach
	// observability at zero cost.
	Metrics *obs.Registry
	Flight  *obs.FlightRecorder
	// MetricPrefix and Noun shape the series names: "<prefix>_<noun>s",
	// "<prefix>_<noun>_claims_total", ... The jobqueue specialization uses
	// ("elastisimd", "job") to keep its historical names; defaults are
	// ("distwork", "task").
	MetricPrefix string
	Noun         string
	// FlightTopic is the flight-recorder category for journaled
	// transitions (default: MetricPrefix).
	FlightTopic string
	// IDPrefix prefixes generated task ids (default "t").
	IDPrefix string
	// Codec encodes journal records (default: JSON of Task[P]). The
	// jobqueue specialization plugs in its legacy record shape here so
	// pre-existing daemon journals replay byte-compatibly.
	Codec Codec[P]
	// Shards splits the journal into N hash-sharded files (shard 0 at
	// path, shard k at path.s00k, each with a layout header line). 0 or
	// 1 is one headered file. Reopening with a different count re-shards
	// during the compaction rewrite.
	Shards int
	// GroupCommit batches journal fsyncs: appends are flushed to the OS
	// per transition (a killed process loses nothing) but fsynced once
	// per window by a background syncer, amortizing the dominant
	// per-settlement cost. 0 fsyncs every append (legacy).
	GroupCommit time.Duration
	// Meta is an opaque fingerprint of the work set stored in sharded
	// journal headers. Open refuses a journal whose stored meta differs —
	// the guard that keeps a resumed sweep from silently continuing a
	// different grid.
	Meta string
	// Source, when set, feeds the task sequence lazily instead of
	// explicit Submits (which are then rejected): the store asks for the
	// payload of sequence number seq (1-based) on demand, and ok=false
	// ends the set. Pending source-fed tasks are reproducible from
	// (Source, seq) and so are not journaled — a task's first journal
	// record is its first claim — which is what makes a million-task
	// journal O(progress), not O(tasks). Claims hand out tasks in
	// sequence order, so after a crash everything past the highest
	// journaled sequence is simply re-fed.
	Source func(seq uint64) (P, bool)
	// Evict drops terminal tasks from memory once settled. In a journaled
	// store the journal record — whose location is handed to OnSettled —
	// becomes the only copy of the result, readable via ReadRecord; in a
	// memory-only store OnSettled receives the only copy. Evicted ids keep
	// exactly-once semantics through a settled-sequence bitmap: a stale
	// worker's finish gets ErrNotOwner, not ErrNotFound.
	Evict bool
	// OnSettled, when set, is called (under the store lock — do not call
	// back into the store) for every task a finish settles, and with
	// Evict for every terminal task an Open replays.
	OnSettled func(Settlement)
}

// Settlement reports one task reaching a terminal state to
// Options.OnSettled.
type Settlement struct {
	Seq   uint64
	State State
	// Loc locates the task's authoritative journal record (zero in a
	// memory-only store).
	Loc RecLoc
	// Result and Error are the outcome of a live finish. A replayed
	// settlement leaves them empty: the record at Loc holds them.
	Result, Error string
}

func (o Options[P]) withDefaults() Options[P] {
	if o.Lease <= 0 {
		o.Lease = 30 * time.Second
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	if o.MetricPrefix == "" {
		o.MetricPrefix = "distwork"
	}
	if o.Noun == "" {
		o.Noun = "task"
	}
	if o.FlightTopic == "" {
		o.FlightTopic = o.MetricPrefix
	}
	if o.IDPrefix == "" {
		o.IDPrefix = "t"
	}
	if o.Codec == nil {
		o.Codec = JSONCodec[P]{}
	}
	return o
}

// pendEntry is one claimable task in the pending heap, keyed by its
// arrival order so claims always pick the oldest pending task — exactly
// the semantics of a linear submission-order scan, at O(log n) per claim.
// Entries are lazily invalidated: a task that left pending (claimed,
// cancelled) is skipped when popped, and a requeued task is re-pushed
// with its original key so it does not lose its place in line.
type pendEntry struct {
	key uint64
	id  string
}

type pendHeap []pendEntry

func (h pendHeap) Len() int           { return len(h) }
func (h pendHeap) Less(i, j int) bool { return h[i].key < h[j].key }
func (h pendHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *pendHeap) Push(x any)        { *h = append(*h, x.(pendEntry)) }
func (h *pendHeap) Pop() any          { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h pendHeap) peek() pendEntry    { return h[0] }

// Store is an in-memory task store with optional journal persistence. All
// methods are safe for concurrent use; hundreds of submitters and a
// worker pool can share one Store.
type Store[P any] struct {
	mu      sync.Mutex
	cond    *sync.Cond
	tasks   map[string]*Task[P]
	order   []string            // submission order (not kept in source/evict mode)
	okey    map[string]uint64   // id → arrival-order key (claim priority)
	active  map[string]struct{} // tasks currently under a lease
	pending pendHeap            // claimable tasks, oldest first
	nextKey uint64
	seq     uint64 // highest sequence number assigned (or fed from Source)
	journal *journal
	opts    Options[P]
	closed  bool
	m       storeMetrics

	prevMeta   string // meta found in the journal before this open
	sourceDone bool   // Source returned ok=false; the work set is complete
	// settledSeqs is the evicted-terminal bitmap (bit seq-1): the
	// exactly-once memory of tasks whose records now live only in the
	// journal.
	settledSeqs []uint64
	evicted     map[State]uint64 // evicted terminal tasks by final state
}

// New creates a memory-only store (no journal).
func New[P any](opts Options[P]) *Store[P] {
	s := &Store[P]{
		tasks:   make(map[string]*Task[P]),
		okey:    make(map[string]uint64),
		active:  make(map[string]struct{}),
		evicted: make(map[State]uint64),
		opts:    opts.withDefaults(),
	}
	s.cond = sync.NewCond(&s.mu)
	s.m = newStoreMetrics(s, s.opts)
	return s
}

// Open creates a store journaled at path, replaying any existing journal
// first: terminal tasks are kept (with their result pointers) and are
// never re-run; tasks that were claimed, running, or paused when the
// previous process died return to pending. The journal is compacted on
// open (counted by the <prefix>_journal_compactions_total metric) into
// the shard count opts requests: the rewrite hash-shards (or re-shards)
// the records, and migrates a header-less journal written by earlier
// releases into the headered layout.
//
// With Options.Evict the replay itself streams: terminal tasks are
// never materialized — their compacted records' locations go to
// OnSettled and their sequence numbers into the settled bitmap — so
// open memory is O(non-terminal tasks + one location per settled task),
// not O(tasks).
func Open[P any](path string, opts Options[P]) (*Store[P], error) {
	s := New(opts)
	lay, err := detectLayout(path)
	if err != nil {
		return nil, err
	}
	if lay.meta != "" && s.opts.Meta != "" && lay.meta != s.opts.Meta {
		return nil, fmt.Errorf("distwork: journal %s was written for a different work set", path)
	}
	s.prevMeta = lay.meta
	meta := s.opts.Meta
	if meta == "" {
		meta = lay.meta // carry an existing fingerprint forward
	}
	cfg := journalConfig{
		path:  path,
		nsh:   max(s.opts.Shards, 1),
		meta:  meta,
		group: s.opts.GroupCommit,
	}
	var jr *journal
	if s.opts.Evict {
		jr, err = s.replayStreaming(path, lay, cfg)
	} else {
		jr, err = s.replayResident(path, lay, cfg)
	}
	if err != nil {
		return nil, err
	}
	jr.fsync = s.m.fsync
	jr.errs = s.m.journalErrors
	jr.appends = s.m.journalAppends
	jr.commits = s.m.groupCommits
	jr.start()
	s.journal = jr
	s.m.compactions.Inc()
	return s, nil
}

// replayResident is the classic open: every journaled task is rebuilt
// in memory, then the journal is compacted to one record per task.
func (s *Store[P]) replayResident(path string, lay journalLayout, cfg journalConfig) (*journal, error) {
	tasks, maxSeq, err := replayJournal(path, lay, s.opts.Codec, s.opts.IDPrefix)
	if err != nil {
		return nil, err
	}
	for _, t := range tasks {
		s.tasks[t.ID] = t
		s.order = append(s.order, t.ID)
	}
	sort.Slice(s.order, func(i, k int) bool {
		return s.tasks[s.order[i]].Submitted.Before(s.tasks[s.order[k]].Submitted) ||
			(s.tasks[s.order[i]].Submitted.Equal(s.tasks[s.order[k]].Submitted) &&
				s.order[i] < s.order[k])
	})
	for _, id := range s.order {
		s.okey[id] = s.nextKey
		s.nextKey++
		if s.tasks[id].State == StatePending {
			heap.Push(&s.pending, pendEntry{s.okey[id], id})
		}
	}
	s.seq = maxSeq
	ids := make([]string, 0, len(s.order))
	records := make([][]byte, 0, len(s.order))
	for _, id := range s.order {
		rec, err := s.opts.Codec.Encode(s.tasks[id])
		if err != nil {
			return nil, fmt.Errorf("distwork: encoding journal record for %s: %w", id, err)
		}
		ids = append(ids, id)
		records = append(records, rec)
	}
	return newJournal(cfg, ids, records)
}

// replayStreaming is the evicting open: one pass indexes the last
// record per sequence number (decoded tasks are retained only while
// non-terminal), a second pass streams the authoritative bytes of
// terminal records from the old files into the compacted layout —
// terminal results never live on the heap.
func (s *Store[P]) replayStreaming(path string, lay journalLayout, cfg journalConfig) (*journal, error) {
	type rmeta struct {
		loc      RecLoc
		state    State
		terminal bool
	}
	var metas []rmeta // indexed seq-1; zero-length loc = never journaled
	resident := make(map[uint64]*Task[P])
	var maxSeq uint64
	err := replayLayout(path, lay, s.opts.Codec, func(t Task[P], loc RecLoc) error {
		seq, ok := parseSeq(t.ID, s.opts.IDPrefix)
		if !ok || seq == 0 {
			return fmt.Errorf("distwork: journal %s: id %q has no sequence number; streaming replay requires dense ids", path, t.ID)
		}
		for uint64(len(metas)) < seq {
			metas = append(metas, rmeta{})
		}
		if seq > maxSeq {
			maxSeq = seq
		}
		metas[seq-1] = rmeta{loc: loc, state: t.State, terminal: t.State.Terminal()}
		if t.State.Terminal() {
			delete(resident, seq)
		} else {
			cp := t
			resident[seq] = &cp
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Stream the compaction: fresh records for resident (requeued)
	// tasks, verbatim bytes for terminal ones.
	comp, err := newCompactor(cfg)
	if err != nil {
		return nil, err
	}
	readers := make([]*os.File, lay.nsh)
	defer func() {
		for _, f := range readers {
			if f != nil {
				f.Close()
			}
		}
	}()
	var settled []Settlement
	for seq := uint64(1); seq <= maxSeq; seq++ {
		m := metas[seq-1]
		if m.loc.Len == 0 && m.state == "" {
			comp.abort()
			return nil, fmt.Errorf("distwork: journal %s: no record for sequence %d (hole)", path, seq)
		}
		id := fmt.Sprintf("%s%06d", s.opts.IDPrefix, seq)
		if t, ok := resident[seq]; ok {
			if t.State.Active() {
				t.State = StatePending
				t.Worker = ""
				t.Lease = time.Time{}
				t.Note = "recovered after restart; requeued"
			}
			rec, err := s.opts.Codec.Encode(t)
			if err != nil {
				comp.abort()
				return nil, fmt.Errorf("distwork: encoding journal record for %s: %w", id, err)
			}
			if _, err := comp.add(id, rec); err != nil {
				comp.abort()
				return nil, err
			}
			continue
		}
		if readers[m.loc.Shard] == nil {
			f, err := os.Open(shardPath(path, m.loc.Shard))
			if err != nil {
				comp.abort()
				return nil, err
			}
			readers[m.loc.Shard] = f
		}
		raw := make([]byte, m.loc.Len)
		if _, err := readers[m.loc.Shard].ReadAt(raw, m.loc.Off); err != nil {
			comp.abort()
			return nil, fmt.Errorf("distwork: re-reading journal record for %s: %w", id, err)
		}
		loc, err := comp.add(id, raw)
		if err != nil {
			comp.abort()
			return nil, err
		}
		s.setSettledBit(seq)
		s.evicted[m.state]++
		settled = append(settled, Settlement{Seq: seq, State: m.state, Loc: loc})
	}
	jr, err := comp.finish()
	if err != nil {
		return nil, err
	}
	// Rebuild the resident (non-terminal) set in sequence order, which
	// is arrival order for source-fed stores.
	seqs := make([]uint64, 0, len(resident))
	for seq := range resident {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, k int) bool { return seqs[i] < seqs[k] })
	for _, seq := range seqs {
		t := resident[seq]
		s.tasks[t.ID] = t
		s.okey[t.ID] = s.nextKey
		s.nextKey++
		if t.State == StatePending {
			heap.Push(&s.pending, pendEntry{s.okey[t.ID], t.ID})
		}
	}
	s.seq = maxSeq
	if s.opts.OnSettled != nil {
		for _, c := range settled {
			s.opts.OnSettled(c)
		}
	}
	return jr, nil
}

// setSettledBit marks seq as settled-and-evicted. Callers hold s.mu (or
// run during Open, before the store is shared).
func (s *Store[P]) setSettledBit(seq uint64) {
	i := (seq - 1) / 64
	for uint64(len(s.settledSeqs)) <= i {
		s.settledSeqs = append(s.settledSeqs, 0)
	}
	s.settledSeqs[i] |= 1 << ((seq - 1) % 64)
}

func (s *Store[P]) settledBit(seq uint64) bool {
	if seq == 0 {
		return false
	}
	i := (seq - 1) / 64
	return i < uint64(len(s.settledSeqs)) && s.settledSeqs[i]&(1<<((seq-1)%64)) != 0
}

// PrevJournalMeta reports the work-set fingerprint found in the journal
// before this open ("" for a fresh or header-less journal).
func (s *Store[P]) PrevJournalMeta() string { return s.prevMeta }

// ReadRecord decodes the journal record at loc — the way a consumer of
// OnSettled streams evicted results back out of the compacted journal.
func (s *Store[P]) ReadRecord(loc RecLoc) (Task[P], error) {
	s.mu.Lock()
	jr := s.journal
	s.mu.Unlock()
	if jr == nil {
		return Task[P]{}, fmt.Errorf("distwork: store has no journal")
	}
	raw, err := jr.readRecord(loc)
	if err != nil {
		return Task[P]{}, err
	}
	return s.opts.Codec.Decode(raw)
}

// Lease reports the configured lease duration — the heartbeat contract a
// worker has to honor to keep its claims.
func (s *Store[P]) Lease() time.Duration { return s.opts.Lease }

// record journals the task's current state and mirrors the transition
// into the flight recorder, reporting the record's journal location
// (ok only when a journal is attached and the append landed). Callers
// hold s.mu.
func (s *Store[P]) record(t *Task[P]) (RecLoc, bool) {
	var loc RecLoc
	var ok bool
	if s.journal != nil {
		rec, err := s.opts.Codec.Encode(t)
		if err != nil {
			s.journal.fail(err)
		} else {
			loc, ok = s.journal.append(t.ID, rec)
		}
	}
	if s.m.flight != nil {
		if t.Worker != "" {
			s.m.flight.Recordf(s.opts.FlightTopic, "%s -> %s (%s, attempt %d)", t.ID, t.State, t.Worker, t.Attempts)
		} else {
			s.m.flight.Recordf(s.opts.FlightTopic, "%s -> %s", t.ID, t.State)
		}
	}
	return loc, ok
}

// feedLocked pulls tasks from Options.Source until the pending heap
// holds want claimables or the source is exhausted. Fed tasks are not
// journaled — they are reproducible from (Source, seq), and claims go
// out in sequence order, so the journal's highest sequence number is
// exactly the resume point. Callers hold s.mu.
func (s *Store[P]) feedLocked(want int) {
	if s.opts.Source == nil || s.sourceDone {
		return
	}
	for s.pending.Len() < want {
		p, ok := s.opts.Source(s.seq + 1)
		if !ok {
			s.sourceDone = true
			// The set is now finite and may already be settled; wake
			// WaitSettled so it can notice.
			s.cond.Broadcast()
			return
		}
		s.seq++
		t := &Task[P]{
			ID:        fmt.Sprintf("%s%06d", s.opts.IDPrefix, s.seq),
			State:     StatePending,
			Payload:   p,
			Submitted: s.opts.Now(),
		}
		s.tasks[t.ID] = t
		s.okey[t.ID] = s.nextKey
		s.nextKey++
		heap.Push(&s.pending, pendEntry{s.okey[t.ID], t.ID})
		s.m.submitted.Inc()
	}
}

// Submit enqueues a new task with the given payload and returns it.
// Stores with a Source reject external submissions — the source owns
// the sequence.
func (s *Store[P]) Submit(payload P) (Task[P], error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Task[P]{}, ErrClosed
	}
	if s.opts.Source != nil {
		return Task[P]{}, fmt.Errorf("distwork: store is source-fed; external submit not allowed")
	}
	s.seq++
	t := &Task[P]{
		ID:        fmt.Sprintf("%s%06d", s.opts.IDPrefix, s.seq),
		State:     StatePending,
		Payload:   payload,
		Submitted: s.opts.Now(),
	}
	s.tasks[t.ID] = t
	if !s.opts.Evict {
		s.order = append(s.order, t.ID)
	}
	s.okey[t.ID] = s.nextKey
	s.nextKey++
	heap.Push(&s.pending, pendEntry{s.okey[t.ID], t.ID})
	s.m.submitted.Inc()
	s.record(t)
	s.cond.Broadcast()
	return *t, nil
}

// Get returns a copy of the task, if it exists.
func (s *Store[P]) Get(id string) (Task[P], bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tasks[id]
	if !ok {
		return Task[P]{}, false
	}
	return *t, true
}

// List returns copies of all resident tasks in submission order. In
// source/evict mode that is the non-terminal working set — evicted
// terminal tasks live only in the journal (ReadRecord).
func (s *Store[P]) List() []Task[P] {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.order != nil {
		out := make([]Task[P], 0, len(s.order))
		for _, id := range s.order {
			out = append(out, *s.tasks[id])
		}
		return out
	}
	out := make([]Task[P], 0, len(s.tasks))
	for _, t := range s.tasks {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, k int) bool { return s.okey[out[i].ID] < s.okey[out[k].ID] })
	return out
}

// requeueLocked returns a task to pending (lease expiry, restart,
// release) and re-arms its claimability. Callers hold s.mu.
func (s *Store[P]) requeueLocked(t *Task[P], note string) {
	t.State = StatePending
	t.Worker = ""
	t.Lease = time.Time{}
	t.Note = note
	delete(s.active, t.ID)
	heap.Push(&s.pending, pendEntry{s.okey[t.ID], t.ID})
	s.record(t)
}

// expireLocked requeues active tasks whose lease lapsed, in submission
// order so the journal stays deterministic. Only the active set is
// scanned — O(leased), not O(all tasks) — which keeps claim latency flat
// as terminal tasks accumulate over a long daemon lifetime. Callers hold
// s.mu.
func (s *Store[P]) expireLocked(now time.Time) int {
	var lapsed []string
	for id := range s.active {
		t := s.tasks[id]
		if t.State.Active() && now.After(t.Lease) {
			lapsed = append(lapsed, id)
		}
	}
	sort.Slice(lapsed, func(i, k int) bool { return s.okey[lapsed[i]] < s.okey[lapsed[k]] })
	n := 0
	for _, id := range lapsed {
		s.requeueLocked(s.tasks[id], "lease expired; requeued")
		n++
	}
	if n > 0 {
		s.m.expirations.Add(uint64(n))
		s.cond.Broadcast()
	}
	return n
}

// ExpireLeases requeues every active task whose lease has lapsed (the
// worker stopped heartbeating) and reports how many were requeued. A
// coordinator calls this on a timer; the expired tasks are then claimed —
// stolen — by whichever worker asks next.
func (s *Store[P]) ExpireLeases() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.expireLocked(s.opts.Now())
}

// TryClaim claims the oldest pending task for worker, or reports none
// available. Expired leases are collected first, so a crashed worker's
// tasks become claimable here.
func (s *Store[P]) TryClaim(worker string) (Task[P], bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tryClaimLocked(worker)
}

func (s *Store[P]) tryClaimLocked(worker string) (Task[P], bool) {
	now := s.opts.Now()
	s.expireLocked(now)
	return s.claimOneLocked(worker, now)
}

// claimOneLocked pops the oldest claimable pending task (feeding the
// source as needed) and claims it. Callers hold s.mu and have already
// collected expired leases.
func (s *Store[P]) claimOneLocked(worker string, now time.Time) (Task[P], bool) {
	for {
		s.feedLocked(1)
		if s.pending.Len() == 0 {
			return Task[P]{}, false
		}
		e := s.pending.peek()
		t := s.tasks[e.id]
		heap.Pop(&s.pending)
		if t == nil || t.State != StatePending {
			continue // lazily dropped: claimed or cancelled since it was pushed
		}
		if t.Attempts > 0 {
			// A re-claim of a task some worker held before: a steal (lease
			// expiry, crash recovery, or an explicit release).
			s.m.steals.Inc()
		}
		t.State = StateClaimed
		t.Worker = worker
		t.Lease = now.Add(s.opts.Lease)
		t.Attempts++
		t.Note = ""
		s.active[t.ID] = struct{}{}
		s.m.claims.Inc()
		s.record(t)
		return *t, true
	}
}

// TryClaimBatch claims up to max pending tasks for worker in one lock
// acquisition — the server side of the batch lease protocol, amortizing
// lock traffic and (with group commit) journal fsyncs over the batch.
// Steal and exactly-once semantics are per task, identical to TryClaim.
func (s *Store[P]) TryClaimBatch(worker string, max int) []Task[P] {
	if max < 1 {
		max = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	now := s.opts.Now()
	s.expireLocked(now)
	var out []Task[P]
	for len(out) < max {
		t, ok := s.claimOneLocked(worker, now)
		if !ok {
			break
		}
		out = append(out, t)
	}
	if len(out) > 0 {
		s.m.batchClaims.Inc()
	}
	return out
}

// Claim blocks until a pending task is available (or ctx is done / the
// store closes) and claims it for worker.
func (s *Store[P]) Claim(ctx context.Context, worker string) (Task[P], error) {
	stop := context.AfterFunc(ctx, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if err := ctx.Err(); err != nil {
			return Task[P]{}, err
		}
		if s.closed {
			return Task[P]{}, ErrClosed
		}
		if t, ok := s.tryClaimLocked(worker); ok {
			return t, nil
		}
		s.cond.Wait()
	}
}

// owned fetches the task and verifies worker holds it. An evicted
// (settled, journal-only) id reports ErrNotOwner — the stale worker's
// late transition loses to the settled record, preserving exactly-once
// even though the task left memory. Callers hold s.mu.
func (s *Store[P]) owned(id, worker string) (*Task[P], error) {
	t, ok := s.tasks[id]
	if !ok {
		if seq, k := parseSeq(id, s.opts.IDPrefix); k && s.settledBit(seq) {
			return nil, &NotOwnerError{ID: id, State: StateDone, Claimant: worker}
		}
		return nil, &NotFoundError{ID: id}
	}
	if !t.State.Active() || t.Worker != worker {
		return nil, &NotOwnerError{ID: id, State: t.State, Worker: t.Worker, Claimant: worker}
	}
	return t, nil
}

// Heartbeat renews worker's lease on the task.
func (s *Store[P]) Heartbeat(id, worker string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.heartbeatLocked(id, worker)
}

func (s *Store[P]) heartbeatLocked(id, worker string) error {
	t, err := s.owned(id, worker)
	if err != nil {
		return err
	}
	t.Lease = s.opts.Now().Add(s.opts.Lease)
	s.m.heartbeats.Inc()
	return nil
}

// HeartbeatBatch renews worker's lease on every id in one lock
// acquisition, reporting per-id errors positionally (nil = renewed).
func (s *Store[P]) HeartbeatBatch(worker string, ids []string) []error {
	out := make([]error, len(ids))
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, id := range ids {
		out[i] = s.heartbeatLocked(id, worker)
	}
	return out
}

// setState moves an owned task to the given active state.
func (s *Store[P]) setState(id, worker string, st State) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, err := s.owned(id, worker)
	if err != nil {
		return err
	}
	if t.State == st {
		return nil
	}
	t.State = st
	t.Lease = s.opts.Now().Add(s.opts.Lease)
	if st == StateRunning && t.Started.IsZero() {
		t.Started = s.opts.Now()
	}
	s.record(t)
	return nil
}

// MarkRunning transitions a claimed (or paused) task to running.
func (s *Store[P]) MarkRunning(id, worker string) error {
	return s.setState(id, worker, StateRunning)
}

// MarkPaused transitions a running task to paused. The worker keeps the
// claim and must keep heartbeating.
func (s *Store[P]) MarkPaused(id, worker string) error {
	return s.setState(id, worker, StatePaused)
}

// Finish moves an owned task to a terminal state: done when runErr is
// nil, failed otherwise. result is an opaque outcome pointer stored on
// the task and survives journal recovery.
func (s *Store[P]) Finish(id, worker, result string, runErr error) error {
	state := StateDone
	errMsg := ""
	if runErr != nil {
		state = StateFailed
		errMsg = runErr.Error()
	}
	return s.finish(id, worker, state, result, errMsg)
}

// FinishCancelled moves an owned task to cancelled (a cancel request was
// honored mid-run); result may point at partial output.
func (s *Store[P]) FinishCancelled(id, worker, result string) error {
	return s.finish(id, worker, StateCancelled, result, "")
}

func (s *Store[P]) finish(id, worker string, st State, result, errMsg string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.finishLocked(id, worker, st, result, errMsg)
	s.cond.Broadcast()
	return err
}

func (s *Store[P]) finishLocked(id, worker string, st State, result, errMsg string) error {
	t, err := s.owned(id, worker)
	if err != nil {
		return err
	}
	t.State = st
	t.Worker = ""
	t.Lease = time.Time{}
	t.Finished = s.opts.Now()
	t.Result = result
	t.Error = errMsg
	delete(s.active, id)
	s.m.finished[st].Inc()
	loc, journaled := s.record(t)
	if !s.opts.Evict && s.opts.OnSettled == nil {
		return nil
	}
	seq, ok := parseSeq(id, s.opts.IDPrefix)
	if !ok {
		return nil
	}
	if s.opts.Evict {
		// The journal record (or, memory-only, OnSettled's copy) is now
		// the authoritative one; drop the task from memory and remember
		// only that its sequence settled.
		s.setSettledBit(seq)
		s.evicted[st]++
		delete(s.tasks, id)
		delete(s.okey, id)
	}
	// A journaled store reports only records that landed, so the
	// location handed out is always readable.
	if s.opts.OnSettled != nil && (journaled || s.journal == nil) {
		s.opts.OnSettled(Settlement{Seq: seq, State: st, Loc: loc, Result: result, Error: errMsg})
	}
	return nil
}

// FinishItem is one settlement in a FinishBatch: done with Result when
// Error is empty, failed otherwise.
type FinishItem struct {
	ID     string
	Result string
	Error  string
}

// FinishBatch settles many owned tasks in one lock acquisition — the
// server side of the batch lease protocol. Per-item errors are
// positional (nil = settled); the usual stale-claim outcome is a
// NotOwnerError on just the stolen items.
func (s *Store[P]) FinishBatch(worker string, items []FinishItem) []error {
	out := make([]error, len(items))
	s.mu.Lock()
	for i, it := range items {
		st := StateDone
		if it.Error != "" {
			st = StateFailed
		}
		out[i] = s.finishLocked(it.ID, worker, st, it.Result, it.Error)
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	return out
}

// Release returns an owned task to pending without finishing it — the
// graceful-shutdown path. note (e.g. partial-progress details) is
// journaled with the transition, so a restarted process sees how far the
// interrupted run got before it re-runs the task.
func (s *Store[P]) Release(id, worker, note string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, err := s.owned(id, worker)
	if err != nil {
		return err
	}
	s.requeueLocked(t, note)
	s.m.releases.Inc()
	s.cond.Broadcast()
	return nil
}

// Cancel requests cancellation. A pending task is cancelled immediately;
// for an active task the state is returned unchanged and the caller must
// signal the owning worker (which then calls FinishCancelled). Cancelling
// a terminal task is a no-op. The returned state is the task's state
// after the call.
func (s *Store[P]) Cancel(id string) (State, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tasks[id]
	if !ok {
		if seq, k := parseSeq(id, s.opts.IDPrefix); k && s.settledBit(seq) {
			return StateDone, nil // evicted terminal: cancel is a no-op
		}
		return "", &NotFoundError{ID: id}
	}
	if t.State == StatePending {
		if s.opts.Source != nil {
			// Source-fed pending tasks are normally unjournaled (re-fed on
			// resume from the highest journaled sequence). Journaling this
			// cancel would advance that watermark past still-unjournaled
			// earlier tasks, so journal those first — no resume holes.
			s.journalPendingBelowLocked(id)
		}
		t.State = StateCancelled
		t.Finished = s.opts.Now()
		s.m.finished[StateCancelled].Inc()
		s.record(t)
		s.cond.Broadcast()
	}
	return t.State, nil
}

// journalPendingBelowLocked records every resident pending task with a
// lower arrival key than id, oldest first. Callers hold s.mu.
func (s *Store[P]) journalPendingBelowLocked(id string) {
	limit := s.okey[id]
	var ids []string
	for tid, t := range s.tasks {
		if t.State == StatePending && s.okey[tid] < limit {
			ids = append(ids, tid)
		}
	}
	sort.Slice(ids, func(i, k int) bool { return s.okey[ids[i]] < s.okey[ids[k]] })
	for _, tid := range ids {
		s.record(s.tasks[tid])
	}
}

// Counts tallies tasks by state, including evicted terminal tasks.
func (s *Store[P]) Counts() map[State]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[State]int)
	for _, t := range s.tasks {
		out[t.State]++
	}
	for st, n := range s.evicted {
		out[st] += int(n)
	}
	return out
}

// countState tallies tasks currently in state st (sampled at scrape time
// by the per-state callback gauges — the gauge reads the store the queue
// already maintains instead of keeping a parallel count). Evicted
// terminal tasks stay counted under their final state.
func (s *Store[P]) countState(st State) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := int(s.evicted[st])
	for _, t := range s.tasks {
		if t.State == st {
			n++
		}
	}
	return n
}

// countJournalShards backs the <prefix>_journal_shard_count gauge.
func (s *Store[P]) countJournalShards() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		return 0
	}
	return len(s.journal.shards)
}

// settledLocked reports whether every task is terminal. Callers hold
// s.mu. An empty store is settled; a source-fed store is settled only
// once the source is drained (evicted tasks are terminal by
// construction).
func (s *Store[P]) settledLocked() bool {
	if s.opts.Source != nil && !s.sourceDone {
		// Probe the source before answering: an empty (or exactly
		// drained) source must settle even if no claim ever ran to
		// discover the exhaustion.
		s.feedLocked(1)
		if !s.sourceDone {
			return false
		}
	}
	for _, t := range s.tasks {
		if !t.State.Terminal() {
			return false
		}
	}
	return true
}

// Settled reports whether every task has reached a terminal state — the
// completion condition of a fixed work set such as a sweep grid.
func (s *Store[P]) Settled() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.settledLocked()
}

// WaitSettled blocks until every task is terminal, ctx is done, or the
// store closes. It is how a grid coordinator knows the sweep is complete:
// workers finish (or fail) cells, lease expiry requeues stragglers, and
// settlement means nothing pending or leased remains.
func (s *Store[P]) WaitSettled(ctx context.Context) error {
	stop := context.AfterFunc(ctx, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if s.closed {
			return ErrClosed
		}
		if s.settledLocked() {
			return nil
		}
		s.cond.Wait()
	}
}

// Close flushes and closes the journal and wakes all blocked Claim and
// WaitSettled calls with an error. Tasks are not mutated: active tasks
// stay active in the journal and will be requeued by the next Open.
func (s *Store[P]) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.cond.Broadcast()
	if s.journal != nil {
		return s.journal.close()
	}
	return nil
}
