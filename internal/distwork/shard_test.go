package distwork

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestShardedJournalRecovery pins the sharded layout end to end: records
// land hash-sharded across N header-carrying files, and a crash-reopen
// reconstructs the same task set the single-file journal would have.
func TestShardedJournalRecovery(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	opts := Options[int]{Shards: 4}
	s, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		if _, err := s.Submit(i); err != nil {
			t.Fatal(err)
		}
	}
	done := map[string]bool{}
	for i := 0; i < n/2; i++ {
		c, ok := s.TryClaim("w1")
		if !ok {
			t.Fatal("claim failed")
		}
		if err := s.Finish(c.ID, "w1", fmt.Sprintf("r%d", c.Payload), nil); err != nil {
			t.Fatal(err)
		}
		done[c.ID] = true
	}
	// Crash: no Close. All four shard files must exist with headers.
	for k := 0; k < 4; k++ {
		fp := shardPath(path, k)
		data, err := os.ReadFile(fp)
		if err != nil {
			t.Fatalf("shard %d: %v", k, err)
		}
		first := strings.SplitN(string(data), "\n", 2)[0]
		h, ok := parseShardHeader(first)
		if !ok || h.Shards != 4 || h.Shard != k {
			t.Fatalf("shard %d header: %q", k, first)
		}
	}
	s2, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	tasks := s2.List()
	if len(tasks) != n {
		t.Fatalf("recovered %d tasks, want %d", len(tasks), n)
	}
	for _, task := range tasks {
		if done[task.ID] {
			if task.State != StateDone || task.Result != fmt.Sprintf("r%d", task.Payload) {
				t.Fatalf("finished task lost its result: %+v", task)
			}
		} else if task.State != StatePending {
			t.Fatalf("unfinished task state: %+v", task)
		}
	}
}

// oneShardHeader is the first line of a journal opened without a shard
// count.
const oneShardHeader = `{"journal_shards":1,"shard":0}`

// TestJournalReshardOnReopen pins that the compaction rewrite migrates
// between layouts: one headered file → 4 shards, wider → narrower
// (removing the orphaned files), and back to one file.
func TestJournalReshardOnReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	s, err := Open(path, Options[int]{}) // Shards 0: one headered file
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		s.Submit(i)
	}
	s.Close()
	if first := firstLine(t, path); first != oneShardHeader {
		t.Fatalf("default layout header: %q, want %q", first, oneShardHeader)
	}

	s2, err := Open(path, Options[int]{Shards: 4})
	if err != nil {
		t.Fatalf("1 -> 4 shards: %v", err)
	}
	if got := len(s2.List()); got != 10 {
		t.Fatalf("after resharding to 4: %d tasks, want 10", got)
	}
	s2.Close()
	if _, err := os.Stat(shardPath(path, 3)); err != nil {
		t.Fatalf("shard 3 missing after reshard: %v", err)
	}

	s3, err := Open(path, Options[int]{Shards: 2})
	if err != nil {
		t.Fatalf("4 -> 2 shards: %v", err)
	}
	if got := len(s3.List()); got != 10 {
		t.Fatalf("after narrowing to 2: %d tasks, want 10", got)
	}
	s3.Close()
	if _, err := os.Stat(shardPath(path, 2)); !os.IsNotExist(err) {
		t.Fatalf("stale shard 2 not removed: %v", err)
	}
	if _, err := os.Stat(shardPath(path, 3)); !os.IsNotExist(err) {
		t.Fatalf("stale shard 3 not removed: %v", err)
	}

	s4, err := Open(path, Options[int]{})
	if err != nil {
		t.Fatalf("2 -> 1 shard: %v", err)
	}
	defer s4.Close()
	if got := len(s4.List()); got != 10 {
		t.Fatalf("after collapsing to one file: %d tasks, want 10", got)
	}
	if _, err := os.Stat(shardPath(path, 1)); !os.IsNotExist(err) {
		t.Fatalf("stale shard 1 not removed: %v", err)
	}
	if first := firstLine(t, path); first != oneShardHeader {
		t.Fatalf("collapsed journal header: %q, want %q", first, oneShardHeader)
	}
}

func firstLine(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.SplitN(string(data), "\n", 2)[0]
}

// headerlessFixture is a journal in the header-less single-file layout
// earlier releases wrote, by hand: t000001 settled done (after an
// earlier pending record, so last-record-wins is exercised), t000002
// failed, t000003 claimed by a worker that died, t000004 pending.
const headerlessFixture = `{"id":"t000001","state":"pending","payload":10,"submitted":"2025-01-01T00:00:00Z","started":"0001-01-01T00:00:00Z","finished":"0001-01-01T00:00:00Z"}
{"id":"t000002","state":"failed","payload":20,"submitted":"2025-01-01T00:00:01Z","started":"2025-01-01T00:00:05Z","finished":"2025-01-01T00:00:06Z","attempts":1,"error":"exploded"}
{"id":"t000003","state":"claimed","payload":30,"submitted":"2025-01-01T00:00:02Z","started":"0001-01-01T00:00:00Z","finished":"0001-01-01T00:00:00Z","worker":"w-dead","lease":"2025-01-01T00:01:00Z","attempts":1}
{"id":"t000004","state":"pending","payload":40,"submitted":"2025-01-01T00:00:03Z","started":"0001-01-01T00:00:00Z","finished":"0001-01-01T00:00:00Z"}
{"id":"t000001","state":"done","payload":10,"submitted":"2025-01-01T00:00:00Z","started":"2025-01-01T00:00:04Z","finished":"2025-01-01T00:00:07Z","attempts":1,"result":"r10"}
`

// TestHeaderlessJournalMigrates pins that a header-less journal still
// replays — finished tasks keep their results and are not handed out
// again, the dead worker's claim is requeued — and that the rewrite on
// open gives it the one-shard header. A second reopen is stable: same
// tasks, same bytes.
func TestHeaderlessJournalMigrates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := os.WriteFile(path, []byte(headerlessFixture), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path, Options[int]{})
	if err != nil {
		t.Fatalf("open header-less journal: %v", err)
	}
	if got, _ := s.Get("t000001"); got.State != StateDone || got.Result != "r10" || got.Payload != 10 {
		t.Fatalf("done task after migration: %+v", got)
	}
	if got, _ := s.Get("t000002"); got.State != StateFailed || got.Error != "exploded" {
		t.Fatalf("failed task after migration: %+v", got)
	}
	if got, _ := s.Get("t000003"); got.State != StatePending || got.Worker != "" {
		t.Fatalf("claimed task after migration: %+v (want requeued)", got)
	}
	s.Close()
	if first := firstLine(t, path); first != oneShardHeader {
		t.Fatalf("migrated journal header: %q, want %q", first, oneShardHeader)
	}
	migrated, _ := os.ReadFile(path)

	s2, err := Open(path, Options[int]{})
	if err != nil {
		t.Fatalf("reopen migrated journal: %v", err)
	}
	defer s2.Close()
	if again, _ := os.ReadFile(path); string(again) != string(migrated) {
		t.Fatalf("second reopen rewrote the journal:\n%s\nwant:\n%s", again, migrated)
	}
	// Only the two unfinished tasks are claimable, in submission order.
	var claimed []string
	for {
		task, ok := s2.TryClaim("w2")
		if !ok {
			break
		}
		claimed = append(claimed, task.ID)
	}
	if strings.Join(claimed, ",") != "t000003,t000004" {
		t.Fatalf("claimable after migration: %v, want [t000003 t000004]", claimed)
	}
	if fresh, _ := s2.Submit(50); fresh.ID != "t000005" {
		t.Fatalf("fresh id %s does not continue after the fixture", fresh.ID)
	}
}

// TestJournalMissingShard pins that a listed shard file missing on
// reopen is a named error naming the lost file (and a leftover .tmp from
// an interrupted compaction) rather than a silently partial task set.
func TestJournalMissingShard(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	s, err := Open(path, Options[int]{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		s.Submit(i)
	}
	s.Close()
	lost := shardPath(path, 1)
	if err := os.Remove(lost); err != nil {
		t.Fatal(err)
	}
	for _, evict := range []bool{false, true} {
		s2, err := Open(path, Options[int]{Shards: 2, Evict: evict})
		if err == nil {
			n := len(s2.List())
			s2.Close()
			t.Fatalf("evict=%v: reopen without %s succeeded with %d of 10 tasks", evict, lost, n)
		}
		var ms *MissingShardError
		if !errors.As(err, &ms) || ms.Path != lost || ms.Tmp != "" {
			t.Fatalf("evict=%v: error %v (%+v), want MissingShardError for %s", evict, err, ms, lost)
		}
	}
	// A compaction that died between renames leaves the shard's records
	// in a .tmp file; the error points at it.
	if err := os.WriteFile(lost+".tmp", []byte(`{"journal_shards":2,"shard":1}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(path, Options[int]{Shards: 2})
	var ms *MissingShardError
	if !errors.As(err, &ms) || ms.Tmp != lost+".tmp" || !strings.Contains(err.Error(), lost+".tmp") {
		t.Fatalf("error %v does not name the leftover %s.tmp", err, lost)
	}
}

// TestShardedTornTailPerShard pins that torn-tail tolerance is per
// shard file: a crash mid-append corrupts at most the final line of one
// shard, and recovery drops only that line.
func TestShardedTornTailPerShard(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	s, err := Open(path, Options[int]{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		s.Submit(i)
	}
	s.Close()
	// Tear the tail of every shard that has records.
	for k := 0; k < 3; k++ {
		f, err := os.OpenFile(shardPath(path, k), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		f.WriteString(`{"id":"t0000`)
		f.Close()
	}
	s2, err := Open(path, Options[int]{Shards: 3})
	if err != nil {
		t.Fatalf("torn shard tails should be tolerated: %v", err)
	}
	defer s2.Close()
	if got := len(s2.List()); got != 12 {
		t.Fatalf("recovered %d tasks, want 12", got)
	}
}

// TestGroupCommitDurableAgainstKill pins the group-commit durability
// contract: appends inside an unsynced window are still flushed to the
// OS per transition, so a process kill (simulated: drop the store
// without Close, never letting the syncer run) loses nothing.
func TestGroupCommitDurableAgainstKill(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	reg := obs.NewRegistry()
	s, err := Open(path, Options[int]{Shards: 2, GroupCommit: time.Hour, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		s.Submit(i)
	}
	c, _ := s.TryClaim("w1")
	if err := s.Finish(c.ID, "w1", "result", nil); err != nil {
		t.Fatal(err)
	}
	// Simulated kill: reopen without Close; the hour-long window means no
	// group commit ever ran.
	if v := reg.Counter("distwork_journal_group_commits_total").Value(); v != 0 {
		t.Fatalf("group commits before window: %v", v)
	}
	s2, err := Open(path, Options[int]{Shards: 2, GroupCommit: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := len(s2.List()); got != 8 {
		t.Fatalf("recovered %d tasks, want 8", got)
	}
	fin, _ := s2.Get(c.ID)
	if fin.State != StateDone || fin.Result != "result" {
		t.Fatalf("finished task lost inside group-commit window: %+v", fin)
	}
}

// TestGroupCommitCrashMidCommitTornTail is the crash-mid-group-commit
// pin: a batch of appends lands, the process dies while the final
// record of the window is half-written (a torn tail on one shard), and
// recovery keeps every whole record while dropping the torn one.
func TestGroupCommitCrashMidCommitTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	s, err := Open(path, Options[int]{Shards: 2, GroupCommit: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	var last Task[int]
	for i := 0; i < 6; i++ {
		last, _ = s.Submit(i)
	}
	// Crash mid-append of the next record: the shard that would have
	// taken it ends in a torn line.
	k := shardIndex("t000007", 2)
	f, err := os.OpenFile(shardPath(path, k), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"id":"t000007","sta`)
	f.Close()
	s2, err := Open(path, Options[int]{Shards: 2, GroupCommit: time.Hour})
	if err != nil {
		t.Fatalf("crash mid group commit should recover: %v", err)
	}
	defer s2.Close()
	if got := len(s2.List()); got != 6 {
		t.Fatalf("recovered %d tasks, want 6 (torn record dropped)", got)
	}
	if got, _ := s2.Get(last.ID); got.State != StatePending {
		t.Fatalf("last whole record lost: %+v", got)
	}
	// The sequence resumes after the highest recovered id.
	fresh, err := s2.Submit(99)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID != "t000007" {
		t.Fatalf("fresh id after torn tail: %s, want t000007", fresh.ID)
	}
}

// TestJournalMetaRefusal pins the work-set fingerprint guard.
func TestJournalMetaRefusal(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	s, err := Open(path, Options[int]{Shards: 1, Meta: "grid-a"})
	if err != nil {
		t.Fatal(err)
	}
	s.Submit(1)
	s.Close()
	if _, err := Open(path, Options[int]{Shards: 1, Meta: "grid-b"}); err == nil ||
		!strings.Contains(err.Error(), "different work set") {
		t.Fatalf("want different-work-set refusal, got %v", err)
	}
	// Same meta resumes; the fingerprint survives an open with no meta.
	s2, err := Open(path, Options[int]{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.PrevJournalMeta(); got != "grid-a" {
		t.Fatalf("prev meta: %q", got)
	}
	s2.Close()
	s3, err := Open(path, Options[int]{Shards: 1, Meta: "grid-a"})
	if err != nil {
		t.Fatalf("meta carried forward: %v", err)
	}
	s3.Close()
}

// TestBatchClaimHeartbeatFinish pins the batched lease operations:
// claim-N hands out oldest-first, heartbeat-many and finish-many report
// per-item outcomes, and settlement stays exactly-once per task.
func TestBatchClaimHeartbeatFinish(t *testing.T) {
	clk := newFakeClock()
	reg := obs.NewRegistry()
	s := New(Options[int]{Lease: time.Minute, Now: clk.Now, Metrics: reg})
	for i := 0; i < 5; i++ {
		s.Submit(i)
	}
	batch := s.TryClaimBatch("w1", 3)
	if len(batch) != 3 {
		t.Fatalf("claimed %d, want 3", len(batch))
	}
	for i, task := range batch {
		if want := fmt.Sprintf("t%06d", i+1); task.ID != want {
			t.Fatalf("batch order: got %s at %d, want %s", task.ID, i, want)
		}
	}
	ids := []string{batch[0].ID, batch[1].ID, "t000099"}
	errs := s.HeartbeatBatch("w1", ids)
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("heartbeat own claims: %v", errs)
	}
	if !errors.Is(errs[2], ErrNotFound) {
		t.Fatalf("heartbeat unknown id: %v", errs[2])
	}
	fin := s.FinishBatch("w1", []FinishItem{
		{ID: batch[0].ID, Result: "r0"},
		{ID: batch[1].ID, Error: "boom"},
		{ID: batch[2].ID, Result: "r2"},
	})
	for i, err := range fin {
		if err != nil {
			t.Fatalf("finish %d: %v", i, err)
		}
	}
	// Double-finish is rejected per item.
	again := s.FinishBatch("w1", []FinishItem{{ID: batch[0].ID, Result: "dup"}})
	if !errors.Is(again[0], ErrNotOwner) {
		t.Fatalf("double finish: %v", again[0])
	}
	counts := s.Counts()
	if counts[StateDone] != 2 || counts[StateFailed] != 1 || counts[StatePending] != 2 {
		t.Fatalf("counts: %+v", counts)
	}
	if v := reg.Counter("distwork_task_batch_claims_total").Value(); v != 1 {
		t.Fatalf("batch claims counter: %v", v)
	}
	// A stale batch finish after a steal loses only the stolen items.
	rest := s.TryClaimBatch("w2", 10)
	if len(rest) != 2 {
		t.Fatalf("rest: %d", len(rest))
	}
	clk.Advance(2 * time.Minute)
	stolen := s.TryClaimBatch("w3", 10)
	if len(stolen) != 2 {
		t.Fatalf("stolen: %d", len(stolen))
	}
	late := s.FinishBatch("w2", []FinishItem{{ID: rest[0].ID, Result: "late"}})
	if !errors.Is(late[0], ErrNotOwner) {
		t.Fatalf("late finish after steal: %v", late[0])
	}
}

// TestSourceFedStore pins the streamed work set: tasks are fed lazily
// in sequence order, external submits are rejected, and the store
// settles once the source drains and every fed task is terminal.
func TestSourceFedStore(t *testing.T) {
	const n = 25
	var fedMax uint64
	s := New(Options[int]{Source: func(seq uint64) (int, bool) {
		if seq > n {
			return 0, false
		}
		if seq > fedMax {
			fedMax = seq
		}
		return int(seq) * 10, true
	}})
	if _, err := s.Submit(1); err == nil {
		t.Fatal("source-fed store must reject Submit")
	}
	if s.Settled() {
		t.Fatal("undrained source must not be settled")
	}
	seen := 0
	for {
		batch := s.TryClaimBatch("w1", 4)
		if len(batch) == 0 {
			break
		}
		if fedMax > uint64(seen+2*len(batch))+4 {
			t.Fatalf("feeding ran ahead of claims: fed %d, seen %d", fedMax, seen)
		}
		for _, task := range batch {
			if task.Payload != (seen+1)*10 {
				t.Fatalf("claim order: payload %d, want %d", task.Payload, (seen+1)*10)
			}
			seen++
			if err := s.Finish(task.ID, "w1", "", nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if seen != n {
		t.Fatalf("claimed %d tasks, want %d", seen, n)
	}
	if !s.Settled() {
		t.Fatal("drained and finished source should settle")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.WaitSettled(ctx); err != nil {
		t.Fatalf("WaitSettled: %v", err)
	}
}

// TestEvictingStoreJournalIsTheResult pins the O(active)-memory mode:
// terminal tasks leave the heap, their journal records (via OnSettled
// locations) remain readable, late finishes get the exactly-once 409,
// and a resume re-feeds only what was never journaled.
func TestEvictingStoreJournalIsTheResult(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	const n = 30
	source := func(seq uint64) (int, bool) {
		if seq > n {
			return 0, false
		}
		return int(seq) * 7, true
	}
	settled := map[uint64]RecLoc{}
	opts := Options[int]{
		Shards:      3,
		GroupCommit: time.Millisecond,
		Source:      source,
		Evict:       true,
		OnSettled:   func(st Settlement) { settled[st.Seq] = st.Loc },
	}
	s, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Run the first 18 to terminal, leave 2 claimed, crash.
	batch := s.TryClaimBatch("w1", 20)
	if len(batch) != 20 {
		t.Fatalf("claimed %d, want 20", len(batch))
	}
	var items []FinishItem
	for _, task := range batch[:18] {
		items = append(items, FinishItem{ID: task.ID, Result: fmt.Sprintf("res-%d", task.Payload)})
	}
	if errs := s.FinishBatch("w1", items); errs[0] != nil {
		t.Fatalf("finish: %v", errs)
	}
	if len(settled) != 18 {
		t.Fatalf("OnSettled fired %d times, want 18", len(settled))
	}
	if got := len(s.List()); got != 2 {
		t.Fatalf("resident after eviction: %d tasks, want 2 (the claimed pair)", got)
	}
	// Evicted results stream back out of the journal.
	task, err := s.ReadRecord(settled[5])
	if err != nil {
		t.Fatal(err)
	}
	if task.ID != "t000005" || task.State != StateDone || task.Result != "res-35" {
		t.Fatalf("ReadRecord: %+v", task)
	}
	// Late transitions on evicted ids: conflict, not not-found.
	if err := s.Finish("t000003", "w1", "dup", nil); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("finish on evicted id: %v", err)
	}
	if st, err := s.Cancel("t000003"); err != nil || !st.Terminal() {
		t.Fatalf("cancel on evicted id: %v %v", st, err)
	}

	// Crash (no Close) and resume: replay hands the settled set back via
	// OnSettled, the two claimed tasks requeue, and the remainder re-feed.
	resumed := map[uint64]RecLoc{}
	opts2 := opts
	opts2.OnSettled = func(st Settlement) { resumed[st.Seq] = st.Loc }
	s2, err := Open(path, opts2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if len(resumed) != 18 {
		t.Fatalf("replay OnSettled fired %d times, want 18", len(resumed))
	}
	seen := map[int]bool{}
	for {
		c, ok := s2.TryClaim("w2")
		if !ok {
			break
		}
		seen[c.Payload] = true
		if err := s2.Finish(c.ID, "w2", fmt.Sprintf("res-%d", c.Payload), nil); err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != n-18 {
		t.Fatalf("resumed run claimed %d tasks, want %d", len(seen), n-18)
	}
	for seq := uint64(19); seq <= n; seq++ {
		if !seen[int(seq)*7] {
			t.Fatalf("sequence %d never re-fed after resume", seq)
		}
	}
	if !s2.Settled() {
		t.Fatal("store should settle after resume finishes the remainder")
	}
	// Every result — pre-crash and post-resume — reads back from the journal.
	got, err := s2.ReadRecord(resumed[11])
	if err != nil {
		t.Fatal(err)
	}
	if got.Result != "res-77" {
		t.Fatalf("resumed ReadRecord: %+v", got)
	}
	counts := s2.Counts()
	if counts[StateDone] != n {
		t.Fatalf("done count across eviction and resume: %+v", counts)
	}
}

// TestEmptySourceSettles pins that a source with zero items settles
// immediately: a coordinator waiting on an empty grid must not hang.
func TestEmptySourceSettles(t *testing.T) {
	s := New(Options[int]{Source: func(seq uint64) (int, bool) { return 0, false }})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.WaitSettled(ctx); err != nil {
		t.Fatalf("empty source must settle: %v", err)
	}
}
