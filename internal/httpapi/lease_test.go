package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/distwork"
)

type leasePayload struct {
	Index int    `json:"index"`
	Name  string `json:"name"`
}

func newLeaseFixture(t *testing.T, lease time.Duration) (*distwork.Store[leasePayload], *LeaseClient[leasePayload]) {
	t.Helper()
	store := distwork.New(distwork.Options[leasePayload]{Lease: lease})
	t.Cleanup(func() { store.Close() })
	mux := http.NewServeMux()
	api := &LeaseAPI[leasePayload]{Store: store}
	api.Register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return store, &LeaseClient[leasePayload]{Base: srv.URL, HTTP: srv.Client()}
}

// claimOne claims a batch of one — how a single-task worker speaks the
// lease protocol. A nil task means nothing was pending.
func claimOne(t *testing.T, client *LeaseClient[leasePayload], worker string) (*distwork.Task[leasePayload], bool, time.Duration) {
	t.Helper()
	tasks, settled, lease, err := client.ClaimBatch(context.Background(), worker, 1)
	if err != nil {
		t.Fatalf("claim %s: %v", worker, err)
	}
	if len(tasks) > 1 {
		t.Fatalf("claim %s: batch of one returned %d tasks", worker, len(tasks))
	}
	if len(tasks) == 0 {
		return nil, settled, lease
	}
	return &tasks[0], settled, lease
}

// finishOne settles one task through finish-batch and returns its
// per-item outcome.
func finishOne(t *testing.T, client *LeaseClient[leasePayload], id, worker, result, taskErr string) error {
	t.Helper()
	errs, err := client.FinishBatch(context.Background(), worker, []distwork.FinishItem{{ID: id, Result: result, Error: taskErr}})
	if err != nil {
		t.Fatalf("finish-batch: %v", err)
	}
	return errs[0]
}

// TestLeaseRoundTrip drives a full claim/heartbeat/finish cycle over
// HTTP with batches of one and pins the wire-level settlement signal.
func TestLeaseRoundTrip(t *testing.T) {
	store, client := newLeaseFixture(t, time.Minute)
	ctx := context.Background()

	// Empty store: no task, not settled... an empty store is settled by
	// definition (nothing outstanding), which is also the worker's exit
	// signal when it arrives after the grid completed.
	task, settled, lease := claimOne(t, client, "w1")
	if task != nil || !settled {
		t.Fatalf("empty store claim: task=%v settled=%v", task, settled)
	}
	if lease != time.Minute {
		t.Fatalf("lease: got %v, want 1m", lease)
	}

	if _, err := store.Submit(leasePayload{Index: 0, Name: "a"}); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Submit(leasePayload{Index: 1, Name: "b"}); err != nil {
		t.Fatal(err)
	}

	task, settled, _ = claimOne(t, client, "w1")
	if task == nil || settled {
		t.Fatalf("claim: task=%v settled=%v", task, settled)
	}
	if task.Payload.Index != 0 || task.Payload.Name != "a" || task.Worker != "w1" {
		t.Fatalf("claimed task: %+v", task)
	}
	errs, err := client.HeartbeatBatch(ctx, "w1", []string{task.ID})
	if err != nil || errs[0] != nil {
		t.Fatalf("heartbeat: %v %v", err, errs)
	}
	if err := finishOne(t, client, task.ID, "w1", `{"v":42}`, ""); err != nil {
		t.Fatal(err)
	}
	got, _ := store.Get(task.ID)
	if got.State != distwork.StateDone || got.Result != `{"v":42}` {
		t.Fatalf("after finish: %+v", got)
	}

	// Second task fails remotely.
	task2, _, _ := claimOne(t, client, "w1")
	if task2 == nil {
		t.Fatal("claim 2: no task")
	}
	if err := finishOne(t, client, task2.ID, "w1", "", "engine exploded"); err != nil {
		t.Fatal(err)
	}
	got2, _ := store.Get(task2.ID)
	if got2.State != distwork.StateFailed || got2.Error != "engine exploded" {
		t.Fatalf("after failed finish: %+v", got2)
	}

	// Everything terminal: the next claim reports settled.
	task, settled, _ = claimOne(t, client, "w1")
	if task != nil || !settled {
		t.Fatalf("settled claim: task=%v settled=%v", task, settled)
	}
}

// TestLeaseOwnershipStatusCodes pins the error mapping: 404 unknown
// task, 409 stale claim — per item inside a 200 batch reply, and on the
// release route's own status.
func TestLeaseOwnershipStatusCodes(t *testing.T) {
	store, client := newLeaseFixture(t, time.Minute)
	ctx := context.Background()

	var st *LeaseStatusError
	errs, err := client.HeartbeatBatch(ctx, "w1", []string{"t999999"})
	if err != nil || !asLeaseStatus(errs[0], &st) || st.Status != http.StatusNotFound {
		t.Fatalf("unknown task: %v %v", err, errs)
	}
	if err := finishOne(t, client, "t999999", "w1", "r", ""); !asLeaseStatus(err, &st) || st.Status != http.StatusNotFound {
		t.Fatalf("unknown task finish: %v", err)
	}
	if err := client.Release(ctx, "t999999", "w1", ""); !asLeaseStatus(err, &st) || st.Status != http.StatusNotFound {
		t.Fatalf("unknown task release: %v", err)
	}

	if _, err := store.Submit(leasePayload{Index: 0}); err != nil {
		t.Fatal(err)
	}
	task, _, _ := claimOne(t, client, "w1")
	if task == nil {
		t.Fatal("claim: no task")
	}
	if err := finishOne(t, client, task.ID, "w2", "r", ""); !asLeaseStatus(err, &st) || st.Status != http.StatusConflict {
		t.Fatalf("foreign finish: %v", err)
	}
	if err := client.Release(ctx, task.ID, "w2", ""); !asLeaseStatus(err, &st) || st.Status != http.StatusConflict {
		t.Fatalf("foreign release: %v", err)
	}
	// The rightful owner still settles fine.
	if err := finishOne(t, client, task.ID, "w1", "r", ""); err != nil {
		t.Fatal(err)
	}
}

// TestLeaseRequiresWorker pins input checking: every lease request that
// names no worker is a 400, not a per-item 409.
func TestLeaseRequiresWorker(t *testing.T) {
	store, client := newLeaseFixture(t, time.Minute)
	ctx := context.Background()
	if _, err := store.Submit(leasePayload{Index: 0}); err != nil {
		t.Fatal(err)
	}
	task, _, _ := claimOne(t, client, "w1")
	var st *LeaseStatusError
	if _, _, _, err := client.ClaimBatch(ctx, "", 1); !asLeaseStatus(err, &st) || st.Status != http.StatusBadRequest {
		t.Fatalf("claim-batch without worker: %v", err)
	}
	if _, err := client.HeartbeatBatch(ctx, "", []string{task.ID}); !asLeaseStatus(err, &st) || st.Status != http.StatusBadRequest {
		t.Fatalf("heartbeat-batch without worker: %v", err)
	}
	if _, err := client.FinishBatch(ctx, "", []distwork.FinishItem{{ID: task.ID}}); !asLeaseStatus(err, &st) || st.Status != http.StatusBadRequest {
		t.Fatalf("finish-batch without worker: %v", err)
	}
	if err := client.Release(ctx, task.ID, "", ""); !asLeaseStatus(err, &st) || st.Status != http.StatusBadRequest {
		t.Fatalf("release without worker: %v", err)
	}
	if got, _ := store.Get(task.ID); got.State != distwork.StateClaimed || got.Worker != "w1" {
		t.Fatalf("rejected requests changed the task: %+v", got)
	}
}

// TestLeaseStealOverHTTP exercises the distributed work-stealing path: a
// worker claims over HTTP and dies silently; after lease expiry another
// worker claims the same task, and the dead worker's late finish is
// rejected with 409.
func TestLeaseStealOverHTTP(t *testing.T) {
	store, client := newLeaseFixture(t, 30*time.Millisecond)
	if _, err := store.Submit(leasePayload{Index: 0}); err != nil {
		t.Fatal(err)
	}
	task, _, _ := claimOne(t, client, "w-dead")
	if task == nil {
		t.Fatal("claim: no task")
	}
	// w-dead never heartbeats. Poll until the lease lapses and w-live
	// steals the task.
	deadline := time.Now().Add(5 * time.Second)
	var stolen *distwork.Task[leasePayload]
	for {
		stolen, _, _ = claimOne(t, client, "w-live")
		if stolen != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("steal never happened")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if stolen.ID != task.ID || stolen.Attempts != 2 {
		t.Fatalf("stolen task: %+v", stolen)
	}
	// The dead worker wakes up and tries to finish: exactly-once
	// settlement rejects it.
	var st *LeaseStatusError
	if err := finishOne(t, client, task.ID, "w-dead", "stale", ""); !asLeaseStatus(err, &st) || st.Status != http.StatusConflict {
		t.Fatalf("stale finish: %v", err)
	}
	if err := finishOne(t, client, task.ID, "w-live", "fresh", ""); err != nil {
		t.Fatal(err)
	}
	got, _ := store.Get(task.ID)
	if got.Result != "fresh" {
		t.Fatalf("result: %q, want the stealing worker's", got.Result)
	}
}

// TestLeaseRelease pins the graceful-release path and concurrent client
// safety under -race: a fleet of batch-of-one workers settles every task
// exactly once.
func TestLeaseRelease(t *testing.T) {
	store, client := newLeaseFixture(t, time.Minute)
	ctx := context.Background()
	const n = 12
	for i := 0; i < n; i++ {
		if _, err := store.Submit(leasePayload{Index: i}); err != nil {
			t.Fatal(err)
		}
	}
	task, _, _ := claimOne(t, client, "w1")
	if task == nil {
		t.Fatal("claim: no task")
	}
	if err := client.Release(ctx, task.ID, "w1", "shutting down"); err != nil {
		t.Fatal(err)
	}
	got, _ := store.Get(task.ID)
	if got.State != distwork.StatePending || got.Note != "shutting down" {
		t.Fatalf("after release: %+v", got)
	}

	// A small fleet drains the store concurrently.
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		settled = map[string]int{}
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := string(rune('a' + w))
			for {
				tasks, done, _, err := client.ClaimBatch(ctx, name, 1)
				if err != nil {
					t.Errorf("claim: %v", err)
					return
				}
				if len(tasks) == 0 {
					if done {
						return
					}
					time.Sleep(time.Millisecond)
					continue
				}
				errs, err := client.FinishBatch(ctx, name, []distwork.FinishItem{{ID: tasks[0].ID, Result: "ok"}})
				if err != nil || errs[0] != nil {
					t.Errorf("finish: %v %v", err, errs)
					return
				}
				mu.Lock()
				settled[tasks[0].ID]++
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	counts := store.Counts()
	if counts[distwork.StateDone] != n || len(settled) != n {
		t.Fatalf("done: %d (%d distinct), want %d (counts %v)", counts[distwork.StateDone], len(settled), n, counts)
	}
	for id, k := range settled {
		if k != 1 {
			t.Fatalf("task %s settled %d times", id, k)
		}
	}
}

func asLeaseStatus(err error, st **LeaseStatusError) bool {
	if err == nil {
		return false
	}
	e, ok := err.(*LeaseStatusError)
	if ok {
		*st = e
	}
	return ok
}

// TestBatchLeaseOverHTTP drives the batched wire protocol end to end:
// claim-batch hands out oldest-first, heartbeat-batch and finish-batch
// carry per-item outcomes, and a stolen cell's 409 rides alongside its
// batch-mates' successes without failing the request.
func TestBatchLeaseOverHTTP(t *testing.T) {
	store, client := newLeaseFixture(t, 40*time.Millisecond)
	ctx := context.Background()
	const n = 6
	for i := 0; i < n; i++ {
		if _, err := store.Submit(leasePayload{Index: i}); err != nil {
			t.Fatal(err)
		}
	}
	tasks, settled, lease, err := client.ClaimBatch(ctx, "w1", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 4 || settled || lease != 40*time.Millisecond {
		t.Fatalf("claim-batch: %d tasks settled=%v lease=%v", len(tasks), settled, lease)
	}
	for i, task := range tasks {
		if task.Payload.Index != i || task.Worker != "w1" {
			t.Fatalf("batch order: task %d is %+v", i, task)
		}
	}
	ids := []string{tasks[0].ID, tasks[1].ID, "t999999"}
	errs, err := client.HeartbeatBatch(ctx, "w1", ids)
	if err != nil {
		t.Fatal(err)
	}
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("heartbeat own claims: %v", errs)
	}
	var st *LeaseStatusError
	if !asLeaseStatus(errs[2], &st) || st.Status != http.StatusNotFound {
		t.Fatalf("heartbeat unknown id: %v", errs[2])
	}

	// Let every lease lapse; w2 steals the whole batch. w1's late batch
	// finish gets per-item 409s, w2's wins.
	deadline := time.Now().Add(5 * time.Second)
	var stolen []distwork.Task[leasePayload]
	for {
		store.ExpireLeases()
		stolen, _, _, err = client.ClaimBatch(ctx, "w2", 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(stolen) == n {
			break
		}
		// Partial steals go back so the next round claims all six at once.
		for _, task := range stolen {
			if err := client.Release(ctx, task.ID, "w2", "retry full batch"); err != nil {
				t.Fatal(err)
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("steal never happened (last saw %d tasks)", len(stolen))
		}
		time.Sleep(5 * time.Millisecond)
	}
	items := []distwork.FinishItem{
		{ID: tasks[0].ID, Result: "stale-0"},
		{ID: tasks[1].ID, Result: "stale-1"},
	}
	lateErrs, err := client.FinishBatch(ctx, "w1", items)
	if err != nil {
		t.Fatal(err)
	}
	for i, ierr := range lateErrs {
		if !asLeaseStatus(ierr, &st) || st.Status != http.StatusConflict {
			t.Fatalf("stale batch finish item %d: %v", i, ierr)
		}
	}
	var fresh []distwork.FinishItem
	for _, task := range stolen {
		fresh = append(fresh, distwork.FinishItem{ID: task.ID, Result: "fresh"})
	}
	fresh = append(fresh, distwork.FinishItem{ID: stolen[0].ID, Result: "dup"})
	freshErrs, err := client.FinishBatch(ctx, "w2", fresh)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if freshErrs[i] != nil {
			t.Fatalf("fresh batch finish item %d: %v", i, freshErrs[i])
		}
	}
	// The duplicate settle inside the same batch is rejected per item.
	if !asLeaseStatus(freshErrs[n], &st) || st.Status != http.StatusConflict {
		t.Fatalf("duplicate finish in batch: %v", freshErrs[n])
	}
	if !store.Settled() {
		t.Fatal("store should be settled")
	}
	got, _ := store.Get(tasks[0].ID)
	if got.Result != "fresh" {
		t.Fatalf("result: %q, want the stealing worker's", got.Result)
	}
	// Settled signal arrives on an empty batch claim.
	none, settled, _, err := client.ClaimBatch(ctx, "w3", 5)
	if err != nil || len(none) != 0 || !settled {
		t.Fatalf("settled claim-batch: %v %v %v", none, settled, err)
	}
}

// FuzzLeaseRequests sends arbitrary bodies to the batch and release
// endpoints of a small store (two tasks claimed by w1, two pending) and
// checks the wire contract: no panic; a batch endpoint answers 200 or
// 400, release answers 200/400/404/409; a 200 heartbeat- or
// finish-batch reply has exactly one result per request item; a 200
// claim-batch reply hands out at most max(1, max) tasks, all leased to
// the asking worker.
func FuzzLeaseRequests(f *testing.F) {
	f.Add(uint8(0), "", []byte(`{"worker":"w2","max":3}`))
	f.Add(uint8(0), "", []byte(`{"worker":"","max":1}`))
	f.Add(uint8(0), "", []byte(`{"worker":"w1","max":-7}`))
	f.Add(uint8(1), "", []byte(`{"worker":"w1","ids":["t000001","t000003","t999999",""]}`))
	f.Add(uint8(1), "", []byte(`{"worker":"","ids":["t000001"]}`))
	f.Add(uint8(1), "", []byte(`{"ids":null}`))
	f.Add(uint8(2), "", []byte(`{"worker":"w1","items":[{"ID":"t000001","Result":"r"},{"ID":"t000001"},{"ID":"t000002","Error":"boom"}]}`))
	f.Add(uint8(2), "", []byte(`{"worker":"w2","items":[{"ID":"t000004"}]}`))
	f.Add(uint8(3), "t000001", []byte(`{"worker":"w1","note":"bye"}`))
	f.Add(uint8(3), "t000003", []byte(`{"worker":"w1"}`))
	f.Add(uint8(3), "nope", []byte(`{"worker":"w1"}`))
	f.Add(uint8(2), "", []byte(`not json`))
	f.Add(uint8(1), "", []byte(`[1,2,3]`))
	f.Fuzz(func(t *testing.T, route uint8, id string, body []byte) {
		store := distwork.New(distwork.Options[leasePayload]{Lease: time.Minute})
		defer store.Close()
		for i := 0; i < 4; i++ {
			if _, err := store.Submit(leasePayload{Index: i}); err != nil {
				t.Fatal(err)
			}
		}
		store.TryClaimBatch("w1", 2)
		mux := http.NewServeMux()
		(&LeaseAPI[leasePayload]{Store: store}).Register(mux)

		var path string
		switch route % 4 {
		case 0:
			path = "/v1/tasks/claim-batch"
		case 1:
			path = "/v1/tasks/heartbeat-batch"
		case 2:
			path = "/v1/tasks/finish-batch"
		default:
			if !validFuzzID(id) {
				id = "t000001"
			}
			path = "/v1/tasks/" + id + "/release"
		}
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		code := rec.Code

		if route%4 == 3 {
			switch code {
			case http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusConflict:
			default:
				t.Fatalf("release %s: status %d: %s", id, code, rec.Body)
			}
			return
		}
		if code != http.StatusOK && code != http.StatusBadRequest {
			t.Fatalf("%s: status %d: %s", path, code, rec.Body)
		}
		if code != http.StatusOK {
			return
		}
		switch route % 4 {
		case 0:
			var req claimBatchRequest
			var resp claimBatchResponse[leasePayload]
			mustUnmarshal(t, body, &req)
			mustUnmarshal(t, rec.Body.Bytes(), &resp)
			if len(resp.Tasks) > max(1, req.Max) {
				t.Fatalf("claim-batch max=%d handed out %d tasks", req.Max, len(resp.Tasks))
			}
			for _, task := range resp.Tasks {
				if task.Worker != req.Worker || task.State != distwork.StateClaimed {
					t.Fatalf("claim-batch for %q returned %+v", req.Worker, task)
				}
			}
		case 1:
			var req heartbeatBatchRequest
			var resp batchResponse
			mustUnmarshal(t, body, &req)
			mustUnmarshal(t, rec.Body.Bytes(), &resp)
			if len(resp.Results) != len(req.IDs) {
				t.Fatalf("heartbeat-batch: %d results for %d ids", len(resp.Results), len(req.IDs))
			}
		case 2:
			var req finishBatchRequest
			var resp batchResponse
			mustUnmarshal(t, body, &req)
			mustUnmarshal(t, rec.Body.Bytes(), &resp)
			if len(resp.Results) != len(req.Items) {
				t.Fatalf("finish-batch: %d results for %d items", len(resp.Results), len(req.Items))
			}
		}
	})
}

// validFuzzID reports whether id can stand as one clean path segment
// (anything else would be redirected by the mux's path cleaning).
func validFuzzID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for _, c := range id {
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == '-') {
			return false
		}
	}
	return true
}

func mustUnmarshal(t *testing.T, data []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("decoding %q: %v", data, err)
	}
}
