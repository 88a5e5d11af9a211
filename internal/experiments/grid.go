package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"repro/elastisim"
	"repro/internal/distwork"
	"repro/internal/obs"
)

// The grid runner is the one execution path of every sweep. It puts a
// sweep's cells through the same work-distribution core as elastisimd's
// job queue: every cell is a distwork task. An in-process sweep
// (SweepContext) is a memory-only grid. A journaled grid journals every
// completion with its canonical encoded result, and a killed sweep
// reopened with Resume picks up at the first incomplete cell —
// completed cells replay from the journal and never re-run. The same
// store serves the distributed mode: a coordinator leases cells to HTTP
// workers (internal/httpapi.LeaseAPI) instead of a local pool, with
// lease expiry returning a dead worker's cells to the pool for the
// survivors to steal.
//
// The grid never materializes its cells: the store is fed from the
// CellAt cursor one claim at a time, and runs in its evicting mode — a
// settled cell leaves the store. A journaled grid's result then lives
// only in the journal, indexed by a per-cell record location, so
// coordinator memory is O(active leases) + O(one record location per
// cell), which is what makes million-cell grids feasible. A memory-only
// grid keeps each settled result decoded, one slot per cell.

// GridOptions tunes a grid run.
type GridOptions struct {
	// Workers sizes the local pool for Run (0 = one per CPU).
	Workers int
	// Lease is the claim lease for cells (default 1m: cells are minutes-
	// scale at most, and a dead worker's cells should requeue quickly).
	Lease time.Duration
	// Resume permits opening a journal that already has entries. Without
	// it, an existing journal is an error — refusing to silently append a
	// new sweep onto an old one.
	Resume bool
	// Shards splits the journal into this many hash-sharded files
	// (0 or 1 = one file). See distwork.Options.Shards.
	Shards int
	// GroupCommit batches journal fsyncs into one flush per window
	// (0 = fsync every transition). See distwork.Options.GroupCommit.
	GroupCommit time.Duration
	// Metrics/Flight attach observability (sweep_* series).
	Metrics *obs.Registry
	Flight  *obs.FlightRecorder
	// OnCellDone, when set, is called once per cell that settles done —
	// run by the local pool, finished by a remote worker, or replayed
	// from a resumed journal. It runs under the grid store's lock,
	// possibly from concurrent goroutines, and must not call back into
	// the grid.
	OnCellDone func()

	// runCell overrides cell execution (tests: fake slow/failing cells).
	runCell func(ctx context.Context, c GridCell) (SweepPoint, error)
}

func (o GridOptions) withDefaults() GridOptions {
	if o.Lease <= 0 {
		o.Lease = time.Minute
	}
	if o.runCell == nil {
		o.runCell = RunCell
	}
	return o
}

// Grid is a sweep grid run through a distwork store, journaled or
// memory-only.
type Grid struct {
	store *distwork.Store[GridCell]
	cfg   SweepConfig // defaults applied
	size  int
	opts  GridOptions

	// Settled-cell index: terminal tasks leave the store, and the grid
	// keeps one state code per cell plus where the cell's outcome lives.
	// A journaled grid keeps only the journal record location — this,
	// not the results, is the only per-cell memory the coordinator
	// holds. A memory-only grid keeps the decoded results themselves.
	mu     sync.Mutex
	states []byte            // indexed by cell: 0 unsettled, else a cellState code
	locs   []distwork.RecLoc // journaled grids
	pts    []SweepPoint      // memory-only grids: results of done cells
	fails  map[int]string    // memory-only grids: errors of failed cells
	done   int               // cells settled done
	badSeq uint64            // journal sequence outside the grid (mismatch evidence)
}

// cellState codes compress distwork.State to a byte for the per-cell index.
const (
	cellUnsettled = byte(iota)
	cellDone
	cellFailed
	cellCancelled
)

func stateCode(st distwork.State) byte {
	switch st {
	case distwork.StateDone:
		return cellDone
	case distwork.StateFailed:
		return cellFailed
	default:
		return cellCancelled
	}
}

func codeState(c byte) distwork.State {
	switch c {
	case cellDone:
		return distwork.StateDone
	case cellFailed:
		return distwork.StateFailed
	default:
		return distwork.StateCancelled
	}
}

// gridStoreOptions is the one place the sweep specialization of the
// distwork core is configured; cells journal under ids c000001… with
// sweep_* metric families.
func gridStoreOptions(opts GridOptions) distwork.Options[GridCell] {
	return distwork.Options[GridCell]{
		Lease:        opts.Lease,
		Metrics:      opts.Metrics,
		Flight:       opts.Flight,
		MetricPrefix: "sweep",
		Noun:         "cell",
		FlightTopic:  "sweepgrid",
		IDPrefix:     "c",
	}
}

// gridMeta fingerprints the work set a journal was written for: the
// canonical JSON of the grid-shaping fields. Workers and hooks are
// execution detail, not identity, so a resume may change them.
func gridMeta(cfg SweepConfig) string {
	data, err := json.Marshal(struct {
		Algorithms []string  `json:"algorithms"`
		Shares     []float64 `json:"shares"`
		Seeds      []uint64  `json:"seeds"`
		Jobs       int       `json:"jobs"`
		Nodes      int       `json:"nodes"`
	}{cfg.Algorithms, cfg.Shares, cfg.Seeds, cfg.Jobs, cfg.Nodes})
	if err != nil {
		panic(err) // plain slices and ints cannot fail to marshal
	}
	return string(data)
}

// OpenGrid opens (or creates) the grid journal at path for cfg's grid;
// an empty path makes the grid memory-only (a coordinator that doesn't
// need restart durability). Cells are fed to the store lazily from the
// CellAt cursor — the grid slice is never materialized. An existing
// journal requires opts.Resume and must have been written for the same
// grid — same cells in the same order — otherwise OpenGrid refuses
// rather than merge incompatible sweeps.
func OpenGrid(path string, cfg SweepConfig, opts GridOptions) (*Grid, error) {
	opts = opts.withDefaults()
	dcfg := cfg.withDefaults()
	size := len(dcfg.Seeds) * len(dcfg.Shares) * len(dcfg.Algorithms)
	g := &Grid{cfg: dcfg, size: size, opts: opts, states: make([]byte, size)}
	sopts := gridStoreOptions(opts)
	sopts.Source = func(seq uint64) (GridCell, bool) {
		if seq == 0 || seq > uint64(size) {
			return GridCell{}, false
		}
		return cellAt(dcfg, int(seq)-1), true
	}
	sopts.Evict = true
	sopts.OnSettled = g.noteSettled
	if path == "" {
		g.pts = make([]SweepPoint, size)
		g.fails = map[int]string{}
		g.store = distwork.New(sopts)
		return g, nil
	}
	existed := false
	if _, err := os.Stat(path); err == nil {
		existed = true
		if !opts.Resume {
			return nil, fmt.Errorf("journal %s already exists; pass resume to continue it", path)
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	g.locs = make([]distwork.RecLoc, size)
	sopts.Shards = opts.Shards
	sopts.GroupCommit = opts.GroupCommit
	// The journal header carries the grid fingerprint that makes
	// resume-mismatch detection exact.
	sopts.Meta = gridMeta(dcfg)
	store, err := distwork.Open(path, sopts)
	if err != nil {
		if strings.Contains(err.Error(), "different work set") {
			return nil, fmt.Errorf("journal %s: refusing to resume a different sweep (%w)", path, err)
		}
		return nil, err
	}
	g.store = store
	if err := g.validateJournal(path, existed); err != nil {
		store.Close()
		return nil, err
	}
	return g, nil
}

// noteSettled is the store's OnSettled hook and the one place a cell
// counts as done: it records the cell's outcome in the per-cell index —
// the journal location of its terminal record, or for a memory-only
// grid the decoded result — and fires OnCellDone. Called under the
// store lock (both at replay and at finish), so it must not call back
// into the store.
func (g *Grid) noteSettled(st distwork.Settlement) {
	g.mu.Lock()
	if st.Seq == 0 || st.Seq > uint64(g.size) {
		if g.badSeq == 0 {
			g.badSeq = st.Seq
		}
		g.mu.Unlock()
		return
	}
	i, code := int(st.Seq)-1, stateCode(st.State)
	if g.locs != nil {
		g.locs[i] = st.Loc
	} else if code == cellDone {
		p, err := DecodeCellResult(st.Result)
		if err != nil {
			// An undecodable result (a misbehaving remote worker) fails
			// the cell instead of poisoning the output.
			code, g.fails[i] = cellFailed, err.Error()
		}
		g.pts[i] = p
	} else if code == cellFailed {
		g.fails[i] = st.Error
	}
	newlyDone := code == cellDone && g.states[i] != cellDone
	g.states[i] = code
	if newlyDone {
		g.done++
	}
	g.mu.Unlock()
	if newlyDone && g.opts.OnCellDone != nil {
		g.opts.OnCellDone()
	}
}

// validateJournal refuses to resume a journal that does not describe
// cfg's grid. New-style journals carry the grid fingerprint in their
// shard headers and were checked by distwork.Open; this catches replay
// evidence of a mismatch (sequences outside the grid) and pre-header
// legacy journals, whose only identity is their cell set.
func (g *Grid) validateJournal(path string, existed bool) error {
	g.mu.Lock()
	badSeq, settled := g.badSeq, 0
	for _, c := range g.states {
		if c != cellUnsettled {
			settled++
		}
	}
	g.mu.Unlock()
	if badSeq != 0 {
		return fmt.Errorf("journal %s holds cell sequence %d, grid has %d cells: refusing to resume a different sweep", path, badSeq, g.size)
	}
	resident := g.store.List()
	for _, t := range resident {
		i := t.Payload.Index
		if i < 0 || i >= g.size || t.Payload != cellAt(g.cfg, i) {
			return fmt.Errorf("journal %s cell %+v does not match the grid: refusing to resume a different sweep", path, t.Payload)
		}
	}
	if existed && g.store.PrevJournalMeta() == "" {
		// Legacy journal (every cell submitted up front, no fingerprint):
		// the cell count is the only shape check available.
		if settled+len(resident) != g.size {
			return fmt.Errorf("journal %s holds %d cells, grid has %d: refusing to resume a different sweep", path, settled+len(resident), g.size)
		}
	}
	return nil
}

// Store exposes the underlying distwork store — the coordinator mode
// serves it over HTTP (lease endpoints, ExpireLeases ticker,
// WaitSettled).
func (g *Grid) Store() *distwork.Store[GridCell] { return g.store }

// Size returns the number of cells in the grid.
func (g *Grid) Size() int { return g.size }

// Completed returns how many cells have settled done so far.
func (g *Grid) Completed() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.done
}

// Close closes the underlying store and journal.
func (g *Grid) Close() error { return g.store.Close() }

// Runner returns the distwork runner that executes one claimed cell
// in-process: mark running, heartbeat at a third of the lease while the
// simulation runs, and finish with the encoded result. It is the one
// place that picks the encoding: a journaled grid stores the canonical
// EncodeCellResult (so a resumed CSV is byte-identical), a memory-only
// grid keeps the measured wall clock and heap figures. On ctx
// cancellation the cell is released back to pending (journaled), so a
// subsequent resume re-runs only that cell.
func (g *Grid) Runner() distwork.Runner[GridCell] {
	encode := EncodeCellResult
	if g.locs == nil {
		encode = encodeCell
	}
	return func(ctx context.Context, s *distwork.Store[GridCell], t distwork.Task[GridCell]) (string, error) {
		if err := s.MarkRunning(t.ID, t.Worker); err != nil {
			return "", err
		}
		hbCtx, stopHB := context.WithCancel(ctx)
		defer stopHB()
		go func() {
			tick := time.NewTicker(s.Lease() / 3)
			defer tick.Stop()
			for {
				select {
				case <-hbCtx.Done():
					return
				case <-tick.C:
					if err := s.Heartbeat(t.ID, t.Worker); err != nil {
						return // lease lost: a newer claim owns the cell
					}
				}
			}
		}()
		p, err := g.opts.runCell(ctx, t.Payload)
		if err != nil {
			if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
				return "", fmt.Errorf("interrupted at cell %d (%s, %g, %d): %w",
					t.Payload.Index, t.Payload.Algorithm, t.Payload.Share, t.Payload.Seed, distwork.ErrInterrupted)
			}
			return "", err
		}
		return encode(p)
	}
}

// Run executes the grid's remaining cells on a local pool and blocks
// until every cell is terminal or ctx is cancelled. Once ctx is done no
// further cell is dispatched; in-flight cells stop and return to
// pending, and cells already finished (in this run or in the journal)
// stay valid. It returns the grid's cell error (Err) when a cell
// genuinely failed — even if the run was also cut short — else ctx's
// error when it was cut short, else nil.
func (g *Grid) Run(ctx context.Context) error {
	poolCtx, stopPool := context.WithCancel(ctx)
	defer stopPool()
	pool := distwork.NewPool(g.store, resolveWorkers(g.opts.Workers, g.size), g.Runner())
	pool.Start(poolCtx)
	err := g.store.WaitSettled(ctx)
	stopPool()
	pool.Wait()
	if err != nil && ctx.Err() == nil {
		return err
	}
	if ferr := g.Err(); ferr != nil {
		return ferr
	}
	return ctx.Err()
}

// result returns cell i's result when the cell settled done: memory-only
// grids hold it decoded, journaled grids read the cell's settling record
// back from the journal (the results are not on the heap).
func (g *Grid) result(i int) (SweepPoint, bool, error) {
	if g.locs == nil {
		g.mu.Lock()
		defer g.mu.Unlock()
		return g.pts[i], g.states[i] == cellDone, nil
	}
	t, ok, err := g.record(i, cellDone)
	if !ok || err != nil {
		return SweepPoint{}, false, err
	}
	p, err := DecodeCellResult(t.Result)
	if err != nil {
		return SweepPoint{}, false, fmt.Errorf("cell %d: %w", i, err)
	}
	return p, true, nil
}

// record reads back a journaled cell's settling record when the index
// holds the cell in state code want.
func (g *Grid) record(i int, want byte) (distwork.Task[GridCell], bool, error) {
	g.mu.Lock()
	code, loc := g.states[i], g.locs[i]
	g.mu.Unlock()
	if code != want {
		return distwork.Task[GridCell]{}, false, nil
	}
	t, err := g.store.ReadRecord(loc)
	if err != nil {
		return t, false, fmt.Errorf("cell %d: reading journal record: %w", i, err)
	}
	if t.State != codeState(code) {
		return t, false, fmt.Errorf("cell %d: journal record state %s does not match index %s", i, t.State, codeState(code))
	}
	return t, true, nil
}

// Err returns the deterministic cell-failure error: the failed cell
// with the lowest index, regardless of completion order. Nil when no
// cell failed.
func (g *Grid) Err() error {
	g.mu.Lock()
	i := bytes.IndexByte(g.states, cellFailed)
	msg := g.fails[i] // memory-only grids; a journal holds the rest
	g.mu.Unlock()
	if i < 0 {
		return nil
	}
	if g.locs != nil {
		t, _, err := g.record(i, cellFailed)
		if err != nil {
			return err
		}
		msg = t.Error
	}
	c := cellAt(g.cfg, i)
	return fmt.Errorf("cell %d (%s, %g, %d): %s", i, c.Algorithm, c.Share, c.Seed, msg)
}

// Collect merges the grid's settled cells into grid order: the points
// slice and done bitmap are indexed by cell, with failed cells reported
// as the error of the lowest failing index. Collect materializes the
// whole grid — million-cell callers should stream with EmitCSV instead.
func (g *Grid) Collect() ([]SweepPoint, []bool, error) {
	pts := make([]SweepPoint, g.size)
	done := make([]bool, g.size)
	for i := range g.size {
		p, ok, err := g.result(i)
		if err != nil {
			return nil, nil, err
		}
		pts[i], done[i] = p, ok
	}
	return pts, done, g.Err()
}

// EmitCSV streams the completed cells as CSV rows in grid order —
// byte-identical to WriteSweepCSV over the collected grid, without ever
// holding more than one decoded cell. When agg is non-nil each cell's
// telemetry snapshot is summed into it (the streaming form of
// AggregateSnapshots). Returns the number of rows written.
func (g *Grid) EmitCSV(w io.Writer, agg *elastisim.TelemetrySnapshot) (int, error) {
	if err := writeSweepCSVHeader(w); err != nil {
		return 0, err
	}
	rows := 0
	for i := range g.size {
		p, ok, err := g.result(i)
		if err != nil {
			return rows, err
		}
		if !ok {
			continue
		}
		if err := writeSweepCSVRow(w, p); err != nil {
			return rows, err
		}
		if agg != nil {
			agg.Add(p.Snapshot)
		}
		rows++
	}
	return rows, nil
}
