package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/distwork"
)

// The lease API is the HTTP face of a distwork store: remote workers
// claim tasks, heartbeat their leases, and return results over the same
// REST idiom as the session API. It is deliberately payload-generic —
// the sweep coordinator serves LeaseAPI[experiments.GridCell]; any
// future distributed consumer of the distwork core gets wire transport
// for free.
//
//	POST /v1/tasks/claim-batch     claim up to max pending tasks, oldest first
//	POST /v1/tasks/heartbeat-batch renew many leases in one request
//	POST /v1/tasks/finish-batch    settle many tasks (done or failed)
//	GET  /v1/tasks                 list tasks (operator visibility)
//	POST /v1/tasks/{id}/release    return the task to pending
//
// There is one lease protocol: a worker that wants a single task claims
// a batch of one. Ownership failures map to status codes: 404 for an
// unknown task, 409 for a stale claim (the lease expired and another
// worker owns the task now — the loser's finish is rejected,
// exactly-once settlement). The batch endpoints report per-item outcomes
// with those codes: the request itself is 200 as long as it parses and
// names a worker, and each item carries its own status — one stolen cell
// must not fail the other N-1 results travelling in the same request.

// LeaseAPI serves a distwork store's claim/heartbeat/finish lifecycle
// over HTTP.
type LeaseAPI[P any] struct {
	Store *distwork.Store[P]
}

// Register installs the lease routes on mux.
func (a *LeaseAPI[P]) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/tasks/claim-batch", a.handleClaimBatch)
	mux.HandleFunc("POST /v1/tasks/heartbeat-batch", a.handleHeartbeatBatch)
	mux.HandleFunc("POST /v1/tasks/finish-batch", a.handleFinishBatch)
	mux.HandleFunc("GET /v1/tasks", a.handleList)
	mux.HandleFunc("POST /v1/tasks/{id}/release", a.handleRelease)
}

type releaseRequest struct {
	Worker string `json:"worker"`
	Note   string `json:"note,omitempty"`
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := io.ReadAll(io.LimitReader(r.Body, 64<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
		writeError(w, http.StatusBadRequest, "parsing body: %v", err)
		return false
	}
	return true
}

// requireWorker rejects a lease request that names no worker: every
// lease transition is owned by one.
func requireWorker(w http.ResponseWriter, worker string) bool {
	if worker == "" {
		writeError(w, http.StatusBadRequest, "missing worker name")
		return false
	}
	return true
}

// leaseStatus maps distwork's ownership errors onto status codes.
func leaseStatus(err error) int {
	switch {
	case errors.Is(err, distwork.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, distwork.ErrNotOwner):
		return http.StatusConflict
	default:
		return http.StatusInternalServerError
	}
}

// claimBatchRequest asks for up to Max tasks in one round trip.
type claimBatchRequest struct {
	Worker string `json:"worker"`
	Max    int    `json:"max"`
}

// claimBatchResponse carries the claimed tasks (possibly empty), whether
// the store has settled (every task terminal — the worker's signal to
// exit), and the lease the worker must heartbeat within.
type claimBatchResponse[P any] struct {
	Tasks        []distwork.Task[P] `json:"tasks"`
	Settled      bool               `json:"settled"`
	LeaseSeconds float64            `json:"lease_seconds"`
}

type heartbeatBatchRequest struct {
	Worker string   `json:"worker"`
	IDs    []string `json:"ids"`
}

type finishBatchRequest struct {
	Worker string                `json:"worker"`
	Items  []distwork.FinishItem `json:"items"`
}

// batchItemStatus is one item's outcome inside a 200 batch response:
// 200, or the 404/409/500 code of its ownership error.
type batchItemStatus struct {
	Status int    `json:"status"`
	Error  string `json:"error,omitempty"`
}

type batchResponse struct {
	Results []batchItemStatus `json:"results"`
}

// batchResult turns positional distwork errors into per-item statuses.
func batchResult(errs []error) batchResponse {
	resp := batchResponse{Results: make([]batchItemStatus, len(errs))}
	for i, err := range errs {
		resp.Results[i] = batchItemStatus{Status: http.StatusOK}
		if err != nil {
			resp.Results[i] = batchItemStatus{Status: leaseStatus(err), Error: err.Error()}
		}
	}
	return resp
}

// handleClaimBatch hands out up to max pending tasks (at least one) in
// one request. Expired leases are collected first, so a crashed worker's
// tasks are stolen here by whichever worker polls next. An empty claim
// is not an error: the worker backs off and retries until settled says
// the whole task set is terminal.
func (a *LeaseAPI[P]) handleClaimBatch(w http.ResponseWriter, r *http.Request) {
	var req claimBatchRequest
	if !decodeBody(w, r, &req) || !requireWorker(w, req.Worker) {
		return
	}
	resp := claimBatchResponse[P]{LeaseSeconds: a.Store.Lease().Seconds()}
	resp.Tasks = a.Store.TryClaimBatch(req.Worker, req.Max)
	if len(resp.Tasks) == 0 {
		resp.Settled = a.Store.Settled()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (a *LeaseAPI[P]) handleHeartbeatBatch(w http.ResponseWriter, r *http.Request) {
	var req heartbeatBatchRequest
	if !decodeBody(w, r, &req) || !requireWorker(w, req.Worker) {
		return
	}
	writeJSON(w, http.StatusOK, batchResult(a.Store.HeartbeatBatch(req.Worker, req.IDs)))
}

// handleFinishBatch settles many tasks in one request with per-item
// outcomes: a stolen task's 409 rides alongside its batch-mates' 200s.
func (a *LeaseAPI[P]) handleFinishBatch(w http.ResponseWriter, r *http.Request) {
	var req finishBatchRequest
	if !decodeBody(w, r, &req) || !requireWorker(w, req.Worker) {
		return
	}
	writeJSON(w, http.StatusOK, batchResult(a.Store.FinishBatch(req.Worker, req.Items)))
}

func (a *LeaseAPI[P]) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, a.Store.List())
}

func (a *LeaseAPI[P]) handleRelease(w http.ResponseWriter, r *http.Request) {
	var req releaseRequest
	if !decodeBody(w, r, &req) || !requireWorker(w, req.Worker) {
		return
	}
	if err := a.Store.Release(r.PathValue("id"), req.Worker, req.Note); err != nil {
		writeError(w, leaseStatus(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// LeaseClient is the worker-side counterpart of LeaseAPI: typed batch
// claim/heartbeat/finish and release calls against a coordinator's base
// URL.
type LeaseClient[P any] struct {
	// Base is the coordinator's URL, e.g. "http://127.0.0.1:9180".
	Base string
	// HTTP overrides the http.Client (default http.DefaultClient).
	HTTP *http.Client
}

func (c *LeaseClient[P]) client() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// post sends a JSON body and decodes a JSON response into out (when
// non-nil). Non-2xx responses become errors carrying the server's
// message and an httpStatus the caller can switch on.
func (c *LeaseClient[P]) post(ctx context.Context, path string, body, out any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+path, bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		var e struct {
			Error string `json:"error"`
		}
		msg := string(raw)
		if json.Unmarshal(raw, &e) == nil && e.Error != "" {
			msg = e.Error
		}
		return &LeaseStatusError{Status: resp.StatusCode, Msg: msg}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

// LeaseStatusError is a non-2xx lease API response.
type LeaseStatusError struct {
	Status int
	Msg    string
}

func (e *LeaseStatusError) Error() string {
	return fmt.Sprintf("lease api: HTTP %d: %s", e.Status, e.Msg)
}

// ClaimBatch asks the coordinator for up to max tasks (at least one) in
// one round trip. An empty slice with settled=false means nothing is pending
// right now; settled=true means the task set is terminal.
func (c *LeaseClient[P]) ClaimBatch(ctx context.Context, worker string, max int) (tasks []distwork.Task[P], settled bool, lease time.Duration, err error) {
	var resp claimBatchResponse[P]
	if err := c.post(ctx, "/v1/tasks/claim-batch", claimBatchRequest{Worker: worker, Max: max}, &resp); err != nil {
		return nil, false, 0, err
	}
	return resp.Tasks, resp.Settled, time.Duration(resp.LeaseSeconds * float64(time.Second)), nil
}

// batchItemErrors converts a batch response into positional errors:
// nil for a 200 item, a *LeaseStatusError otherwise. A response whose
// length does not match n is a protocol error on every position.
func batchItemErrors(resp batchResponse, n int) []error {
	out := make([]error, n)
	if len(resp.Results) != n {
		for i := range out {
			out[i] = fmt.Errorf("lease api: batch response has %d results, want %d", len(resp.Results), n)
		}
		return out
	}
	for i, st := range resp.Results {
		if st.Status != http.StatusOK {
			out[i] = &LeaseStatusError{Status: st.Status, Msg: st.Error}
		}
	}
	return out
}

// HeartbeatBatch renews many leases in one request, returning one error
// slot per id (nil = renewed).
func (c *LeaseClient[P]) HeartbeatBatch(ctx context.Context, worker string, ids []string) ([]error, error) {
	var resp batchResponse
	if err := c.post(ctx, "/v1/tasks/heartbeat-batch", heartbeatBatchRequest{Worker: worker, IDs: ids}, &resp); err != nil {
		return nil, err
	}
	return batchItemErrors(resp, len(ids)), nil
}

// FinishBatch settles many tasks in one request, returning one error
// slot per item (nil = settled; 409 = the task was stolen and the newer
// claim's result won).
func (c *LeaseClient[P]) FinishBatch(ctx context.Context, worker string, items []distwork.FinishItem) ([]error, error) {
	var resp batchResponse
	if err := c.post(ctx, "/v1/tasks/finish-batch", finishBatchRequest{Worker: worker, Items: items}, &resp); err != nil {
		return nil, err
	}
	return batchItemErrors(resp, len(items)), nil
}

// Release returns the task to pending with a note.
func (c *LeaseClient[P]) Release(ctx context.Context, id, worker, note string) error {
	return c.post(ctx, "/v1/tasks/"+id+"/release", releaseRequest{Worker: worker, Note: note}, nil)
}
