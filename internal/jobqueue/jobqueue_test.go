package jobqueue

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestLifecycle(t *testing.T) {
	q := New(Options{})
	j, err := q.Submit(json.RawMessage(`{"n":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if j.State != StatePending || j.ID == "" {
		t.Fatalf("submitted job = %+v", j)
	}

	claimed, ok := q.TryClaim("w1")
	if !ok || claimed.ID != j.ID || claimed.State != StateClaimed || claimed.Attempts != 1 {
		t.Fatalf("claim = %+v ok=%v", claimed, ok)
	}
	if _, ok := q.TryClaim("w2"); ok {
		t.Fatal("second claim succeeded on an owned job")
	}
	if err := q.MarkRunning(j.ID, "w1"); err != nil {
		t.Fatal(err)
	}
	if err := q.MarkPaused(j.ID, "w1"); err != nil {
		t.Fatal(err)
	}
	if got, _ := q.Get(j.ID); got.State != StatePaused {
		t.Fatalf("state = %s, want paused", got.State)
	}
	if err := q.MarkRunning(j.ID, "w1"); err != nil {
		t.Fatal(err)
	}
	// Wrong worker cannot drive the job.
	if err := q.MarkPaused(j.ID, "w2"); err == nil {
		t.Fatal("foreign worker drove the job")
	}
	if err := q.Finish(j.ID, "w1", "artifacts/1", nil); err != nil {
		t.Fatal(err)
	}
	got, _ := q.Get(j.ID)
	if got.State != StateDone || got.Result != "artifacts/1" || got.Worker != "" {
		t.Fatalf("finished job = %+v", got)
	}
	// Terminal jobs are not claimable.
	if _, ok := q.TryClaim("w1"); ok {
		t.Fatal("claimed a terminal job")
	}
}

func TestFailAndCancel(t *testing.T) {
	q := New(Options{})
	a, _ := q.Submit(nil)
	b, _ := q.Submit(nil)

	// Pending cancel is immediate.
	if st, err := q.Cancel(b.ID); err != nil || st != StateCancelled {
		t.Fatalf("cancel pending: state=%s err=%v", st, err)
	}

	cl, _ := q.TryClaim("w")
	if cl.ID != a.ID {
		t.Fatalf("claimed %s, want %s (cancelled job must be skipped)", cl.ID, a.ID)
	}
	// Active cancel leaves the state for the worker to settle.
	if st, err := q.Cancel(a.ID); err != nil || st != StateClaimed {
		t.Fatalf("cancel active: state=%s err=%v", st, err)
	}
	if err := q.FinishCancelled(a.ID, "w", "partial"); err != nil {
		t.Fatal(err)
	}
	got, _ := q.Get(a.ID)
	if got.State != StateCancelled || got.Result != "partial" {
		t.Fatalf("cancelled job = %+v", got)
	}

	c, _ := q.Submit(nil)
	q.TryClaim("w")
	if err := q.Finish(c.ID, "w", "", errors.New("boom")); err != nil {
		t.Fatal(err)
	}
	if got, _ := q.Get(c.ID); got.State != StateFailed || got.Error != "boom" {
		t.Fatalf("failed job = %+v", got)
	}
}

// TestLeaseExpiry pins the crash-recovery semantics of claims: a worker
// that stops heartbeating loses the job; a worker that heartbeats keeps
// it; the stale worker's late transitions are rejected.
func TestLeaseExpiry(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	q := New(Options{Lease: 10 * time.Second, Now: clock})

	j, _ := q.Submit(nil)
	if _, ok := q.TryClaim("dead"); !ok {
		t.Fatal("claim failed")
	}

	// Within the lease nothing expires.
	now = now.Add(5 * time.Second)
	if n := q.ExpireLeases(); n != 0 {
		t.Fatalf("expired %d jobs inside lease", n)
	}
	// Heartbeat extends the lease.
	if err := q.Heartbeat(j.ID, "dead"); err != nil {
		t.Fatal(err)
	}
	now = now.Add(8 * time.Second)
	if n := q.ExpireLeases(); n != 0 {
		t.Fatalf("expired %d jobs after heartbeat", n)
	}
	// Silence past the lease loses the claim.
	now = now.Add(11 * time.Second)
	reclaimed, ok := q.TryClaim("alive")
	if !ok || reclaimed.ID != j.ID || reclaimed.Attempts != 2 {
		t.Fatalf("reclaim = %+v ok=%v", reclaimed, ok)
	}
	// The dead worker's late operations bounce.
	if err := q.Heartbeat(j.ID, "dead"); err == nil {
		t.Fatal("stale heartbeat accepted")
	}
	if err := q.Finish(j.ID, "dead", "", nil); err == nil {
		t.Fatal("stale finish accepted")
	}
	if err := q.Finish(j.ID, "alive", "ok", nil); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentClaiming hammers one queue with concurrent submitters and
// a worker pool under -race: every job must be executed exactly once.
func TestConcurrentClaiming(t *testing.T) {
	q := New(Options{Lease: time.Minute})
	const jobs = 200

	var executed atomic.Int64
	seen := make(map[string]int)
	var seenMu sync.Mutex
	pool := NewPool(q, 8, func(ctx context.Context, q *Queue, job Job) (string, error) {
		seenMu.Lock()
		seen[job.ID]++
		seenMu.Unlock()
		executed.Add(1)
		return "r:" + job.ID, nil
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pool.Start(ctx)

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < jobs/8; k++ {
				if _, err := q.Submit(json.RawMessage(fmt.Sprintf(`{"i":%d,"k":%d}`, i, k))); err != nil {
					t.Error(err)
				}
			}
		}(i)
	}
	wg.Wait()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if c := q.Counts(); c[StateDone] == jobs {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	pool.Wait()

	if c := q.Counts(); c[StateDone] != jobs {
		t.Fatalf("counts = %v, want %d done", c, jobs)
	}
	if executed.Load() != jobs {
		t.Fatalf("executed %d times, want %d", executed.Load(), jobs)
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("job %s executed %d times", id, n)
		}
	}
	for _, j := range q.List() {
		if j.Result != "r:"+j.ID {
			t.Errorf("job %s result = %q", j.ID, j.Result)
		}
	}
}

// TestJournalRecovery pins the restart contract: done/failed/cancelled
// jobs survive with their results and are NOT re-run; jobs that were
// pending or mid-flight (claimed/running/paused) when the process died
// come back as pending and ARE re-run; new ids never collide with
// journaled ones.
func TestJournalRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")

	q1, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	done, _ := q1.Submit(json.RawMessage(`{"job":"done"}`))
	failed, _ := q1.Submit(json.RawMessage(`{"job":"failed"}`))
	running, _ := q1.Submit(json.RawMessage(`{"job":"running"}`))
	pending, _ := q1.Submit(json.RawMessage(`{"job":"pending"}`))

	q1.TryClaim("w")
	if err := q1.Finish(done.ID, "w", "artifacts/done", nil); err != nil {
		t.Fatal(err)
	}
	q1.TryClaim("w")
	if err := q1.Finish(failed.ID, "w", "", errors.New("exploded")); err != nil {
		t.Fatal(err)
	}
	q1.TryClaim("w")
	if err := q1.MarkRunning(running.ID, "w"); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash: no Close, no settlement of the running job.

	q2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()

	if got, _ := q2.Get(done.ID); got.State != StateDone || got.Result != "artifacts/done" {
		t.Fatalf("done job after recovery = %+v", got)
	}
	if got, _ := q2.Get(failed.ID); got.State != StateFailed || got.Error != "exploded" {
		t.Fatalf("failed job after recovery = %+v", got)
	}
	if got, _ := q2.Get(running.ID); got.State != StatePending || got.Worker != "" {
		t.Fatalf("running job after recovery = %+v (want requeued)", got)
	}
	if got, _ := q2.Get(pending.ID); got.State != StatePending {
		t.Fatalf("pending job after recovery = %+v", got)
	}
	// Config payloads survive.
	if got, _ := q2.Get(running.ID); string(got.Config) != `{"job":"running"}` {
		t.Fatalf("config after recovery = %s", got.Config)
	}

	// Exactly the two non-terminal jobs are claimable, in order.
	first, ok1 := q2.TryClaim("w2")
	second, ok2 := q2.TryClaim("w2")
	_, ok3 := q2.TryClaim("w2")
	if !ok1 || !ok2 || ok3 {
		t.Fatalf("claimable after recovery: %v %v %v, want true true false", ok1, ok2, ok3)
	}
	if first.ID != running.ID || second.ID != pending.ID {
		t.Fatalf("claim order after recovery: %s, %s", first.ID, second.ID)
	}

	// New ids continue past journaled ones.
	fresh, _ := q2.Submit(nil)
	if fresh.ID <= pending.ID {
		t.Fatalf("fresh id %s does not continue after %s", fresh.ID, pending.ID)
	}
}

// TestJournalTornTail pins that a crash mid-append (torn last line) does
// not poison recovery: the torn record is dropped, everything before it
// survives.
func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	q1, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := q1.Submit(json.RawMessage(`{"x":1}`))
	if err := q1.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"id":"j000002","state":"pend`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	q2, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("recovery choked on torn tail: %v", err)
	}
	defer q2.Close()
	if got, ok := q2.Get(a.ID); !ok || got.State != StatePending {
		t.Fatalf("job after torn-tail recovery = %+v ok=%v", got, ok)
	}
	if _, ok := q2.Get("j000002"); ok {
		t.Fatal("torn record resurrected")
	}
}

// headerlessJobJournal is a daemon journal in the header-less layout
// earlier elastisimd releases wrote, by hand and in the Job record shape
// ("config", not "payload"): j000001 done, j000002 running when the
// daemon died, j000003 pending.
const headerlessJobJournal = `{"id":"j000001","state":"pending","config":{"job":1},"submitted":"2025-01-01T00:00:00Z","started":"0001-01-01T00:00:00Z","finished":"0001-01-01T00:00:00Z"}
{"id":"j000002","state":"pending","config":{"job":2},"submitted":"2025-01-01T00:00:01Z","started":"0001-01-01T00:00:00Z","finished":"0001-01-01T00:00:00Z"}
{"id":"j000003","state":"pending","config":{"job":3},"submitted":"2025-01-01T00:00:02Z","started":"0001-01-01T00:00:00Z","finished":"0001-01-01T00:00:00Z"}
{"id":"j000001","state":"done","config":{"job":1},"submitted":"2025-01-01T00:00:00Z","started":"2025-01-01T00:00:03Z","finished":"2025-01-01T00:00:04Z","attempts":1,"result":"artifacts/j000001"}
{"id":"j000002","state":"running","config":{"job":2},"submitted":"2025-01-01T00:00:01Z","started":"2025-01-01T00:00:05Z","finished":"0001-01-01T00:00:00Z","worker":"w","lease":"2025-01-01T00:01:00Z","attempts":1}
`

// TestHeaderlessJournalMigrates pins that a daemon journal from before
// the headered layout replays — the finished job is not re-run, the
// interrupted one is requeued — and is rewritten on open with the
// one-shard header. A second reopen is stable.
func TestHeaderlessJournalMigrates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := os.WriteFile(path, []byte(headerlessJobJournal), 0o644); err != nil {
		t.Fatal(err)
	}
	q, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("open header-less journal: %v", err)
	}
	if got, _ := q.Get("j000001"); got.State != StateDone || got.Result != "artifacts/j000001" {
		t.Fatalf("done job after migration = %+v", got)
	}
	if got, _ := q.Get("j000002"); got.State != StatePending || got.Worker != "" || string(got.Config) != `{"job":2}` {
		t.Fatalf("running job after migration = %+v (want requeued with its config)", got)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	migrated, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if first, _, _ := strings.Cut(string(migrated), "\n"); first != `{"journal_shards":1,"shard":0}` {
		t.Fatalf("migrated journal header: %q", first)
	}

	q2, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("reopen migrated journal: %v", err)
	}
	defer q2.Close()
	if again, _ := os.ReadFile(path); string(again) != string(migrated) {
		t.Fatalf("second reopen rewrote the journal:\n%s\nwant:\n%s", again, migrated)
	}
	var claimed []string
	for {
		j, ok := q2.TryClaim("w2")
		if !ok {
			break
		}
		claimed = append(claimed, j.ID)
	}
	if strings.Join(claimed, ",") != "j000002,j000003" {
		t.Fatalf("claimable after migration: %v, want [j000002 j000003]", claimed)
	}
}

// TestPoolInterruption pins the graceful-shutdown path: a runner that
// reports ErrInterrupted gets its job released back to pending with the
// partial-progress note journaled.
func TestPoolInterruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	q, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	j, _ := q.Submit(nil)

	started := make(chan struct{})
	pool := NewPool(q, 1, func(ctx context.Context, q *Queue, job Job) (string, error) {
		_ = q.MarkRunning(job.ID, "worker-0")
		close(started)
		<-ctx.Done()
		return "", fmt.Errorf("stopped at t=42 after 1000 events: %w", ErrInterrupted)
	})
	ctx, cancel := context.WithCancel(context.Background())
	pool.Start(ctx)
	<-started
	cancel()
	pool.Wait()

	got, _ := q.Get(j.ID)
	if got.State != StatePending {
		t.Fatalf("interrupted job state = %s, want pending", got.State)
	}
	if got.Note == "" || got.Worker != "" {
		t.Fatalf("interrupted job = %+v, want note and no worker", got)
	}
	q.Close()

	// The restarted queue re-runs it.
	q2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	if re, ok := q2.TryClaim("w"); !ok || re.ID != j.ID {
		t.Fatalf("interrupted job not claimable after restart: %+v ok=%v", re, ok)
	}
}

// TestClaimBlocksUntilSubmit pins the blocking Claim path used by idle
// pool workers.
func TestClaimBlocksUntilSubmit(t *testing.T) {
	q := New(Options{})
	got := make(chan Job, 1)
	go func() {
		j, err := q.Claim(context.Background(), "w")
		if err != nil {
			t.Error(err)
		}
		got <- j
	}()
	time.Sleep(20 * time.Millisecond) // let the claimer block
	want, _ := q.Submit(nil)
	select {
	case j := <-got:
		if j.ID != want.ID {
			t.Fatalf("claimed %s, want %s", j.ID, want.ID)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Claim did not wake on Submit")
	}

	// Claim respects context cancellation.
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := q.Claim(ctx, "w")
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Claim did not wake on cancellation")
	}
}
