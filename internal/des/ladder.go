package des

import "math"

// ladderQueue is a ladder queue (Tang & Goh): a three-tier priority queue
// tuned for the near-monotonic timestamps a discrete-event simulation
// produces. Schedule and fire are O(1) amortised instead of the binary
// heap's O(log n), which is what makes million-job simulations tractable.
//
//   - top: an unsorted overflow list for far-future events (time >=
//     topStart). Bulk arrivals (e.g. a million pre-scheduled job
//     submissions) land here with one append each.
//   - rungs: a stack of bucketed arrays, outermost coarsest. When the top
//     is transferred it is spread over a rung with ~one event per bucket;
//     an overloaded bucket is subdivided into a finer child rung.
//   - bottom: the reference eventHeap. Events enter it only when their
//     bucket is next to fire, so it stays small; because it orders with
//     the exact (time, priority, seq) comparator, the ladder's fire order
//     is bit-identical to the plain heap's.
//
// Correctness hinges on one routing invariant: an event reaches the
// bottom only when it is strictly earlier than everything still pending
// in any rung and below topStart, so nothing in a rung or the top can
// ever order before anything in the bottom. Three details keep the
// invariant airtight at timestamp boundaries:
//
//   - Routing and placement share one bucket-index computation
//     (ladderRung.bucketFor) and compare indices against cur instead of
//     comparing times against separately-rounded bucket edges; since the
//     index map is monotone in time, "routed below cur" implies strictly
//     earlier than every pending event of that rung.
//   - After a top transfer, topStart becomes math.Nextafter(maxT, +inf):
//     a later push at exactly maxT must join the tier that already holds
//     its equal-time peers (where the heap breaks the tie by sequence),
//     not sit in the top behind them.
//   - cur advances before a bucket's events are served, so an equal-time
//     push issued by a handler races into the bottom heap with its
//     peers, never into an already-served bucket.
//
// Buckets that cannot be subdivided (all-equal timestamps) fall back to
// the bottom heap, degrading gracefully to O(log n) for that burst.
//
// Cancelled events are dropped eagerly whenever a bucket or the top is
// swept; the onDrop callback lets the kernel keep its tombstone counter
// and free list in sync.
const (
	// ladderSpawnThreshold is the bucket population above which a finer
	// child rung is spawned instead of dumping into the bottom heap.
	ladderSpawnThreshold = 64
	// ladderTopDumpMin is the top population up to which a transfer goes
	// straight to the bottom heap (building a rung would cost more than
	// the heap's log factor saves).
	ladderTopDumpMin = 64
	// ladderMaxRungs bounds subdivision depth.
	ladderMaxRungs = 8
	// ladderMaxBuckets bounds a single rung's bucket array.
	ladderMaxBuckets = 1 << 20
	// ladderBucketPoolCap bounds the recycled-bucket pool. It must cover
	// the bucket count of a full rung spawn (one bucket per live event) or
	// steady-state re-bucketing allocates fresh bucket slices on every
	// spawn; spawns release their source buckets back as they are served,
	// so the pool is self-sustaining once warm.
	ladderBucketPoolCap = 4096
	// ladderBigBucketCap splits recycled buckets into two classes. Spawn
	// redistribution spreads ~one event per bucket and is happy with any
	// tiny slice; live pushes accumulate a whole transient cloud into one
	// bucket per rung step and need their big backing arrays back, or they
	// regrow an undersized slice to thousands of slots every cycle. The
	// threshold must sit above the mid-size buckets a child-rung serve
	// releases, or those pollute the big pool and upgrades keep drawing
	// too-small bases.
	ladderBigBucketCap = 1024
	// ladderBigUpgradeMin is the occupancy from which a live append that
	// is about to grow a bucket swaps in a recycled big array instead of
	// letting append reallocate. Below it, doubling a tiny slice is
	// cheaper than spending one of the few pooled big arrays on a bucket
	// that may never see more than a handful of events.
	ladderBigUpgradeMin = 16
	// ladderBigPoolCap bounds the big-bucket pool.
	ladderBigPoolCap = 64
)

type ladderRung struct {
	start   float64
	width   float64
	buckets [][]*Event
	cur     int // next bucket to serve
}

// bucketFor maps a timestamp to its bucket index with one fixed
// floating-point computation. Routing decisions compare the result
// against cur rather than comparing t against a separately-rounded bucket
// edge: because (t-start)/width and int truncation are monotone in t, an
// event routed below cur (to a deeper rung or the bottom heap) is
// guaranteed strictly earlier than every event still pending in this
// rung — no ulp-level disagreement between two roundings can reorder a
// pair. Out-of-range times clamp to the last bucket (high side) or map
// below zero (low side, routed deeper by the caller).
func (r *ladderRung) bucketFor(t float64) int {
	f := (t - r.start) / r.width
	if f < 0 {
		return -1
	}
	if f >= float64(len(r.buckets)) {
		return len(r.buckets) - 1
	}
	return int(f)
}

type ladderQueue struct {
	top      []*Event
	topStart float64
	rungs    []*ladderRung // outermost (coarsest) first
	bottom   eventHeap
	count    int
	onDrop   func(*Event)  // kernel hook: tombstone discarded
	pool     [][]*Event    // recycled small bucket slices (spawn spreads)
	bigPool  [][]*Event    // recycled large bucket slices (live accumulation)
	rungPool []*ladderRung // recycled exhausted rungs (all-nil bucket arrays)

	// Re-bucketing counters, sampled by Kernel.Stats into the telemetry
	// snapshot. They count structural work (cold paths only — a
	// transfer or spawn touches many events at once) and never influence
	// routing, so the ladder's fire order is untouched.
	topTransfers uint64 // overflow list spread over a rung / the bottom
	rungSpawns   uint64 // overloaded bucket subdivided into a finer rung
}

func newLadderQueue(onDrop func(*Event)) *ladderQueue {
	return &ladderQueue{onDrop: onDrop}
}

func (l *ladderQueue) Len() int { return l.count }

// Push routes ev to the shallowest tier that may still hold its timestamp.
func (l *ladderQueue) Push(ev *Event) {
	l.count++
	t := float64(ev.time)
	if t >= l.topStart {
		ev.index = 0
		l.top = append(l.top, ev)
		return
	}
	// Outermost rung first: the first non-exhausted rung still holding
	// t's bucket is the event's natural home. Exhausted rungs (cur past
	// the last bucket) are skipped — their clamped last bucket has
	// already been served.
	for _, r := range l.rungs {
		if r.cur >= len(r.buckets) {
			continue
		}
		if idx := r.bucketFor(t); idx >= r.cur {
			l.rungInsert(r, idx, ev)
			return
		}
	}
	l.bottom.Push(ev)
}

// rungInsert places ev into r's bucket idx (already validated >= r.cur).
func (l *ladderQueue) rungInsert(r *ladderRung, idx int, ev *Event) {
	ev.index = 0
	b := r.buckets[idx]
	if b == nil {
		b = l.grabBucket()
	} else if len(b) == cap(b) && cap(b) >= ladderBigUpgradeMin {
		// This bucket is accumulating a transient cloud: the next append
		// would reallocate. Swap in a strictly larger recycled array so
		// steady-state accumulation reuses the arrays previous cycles
		// already grew instead of reallocating every cycle.
		if big := l.grabBigger(cap(b)); big != nil {
			big = big[:len(b)]
			copy(big, b)
			l.releaseBucket(b, len(b))
			b = big
		}
	}
	r.buckets[idx] = append(b, ev)
}

// Peek returns the earliest event without removing it, materialising it
// into the bottom heap first if needed.
func (l *ladderQueue) Peek() *Event {
	if l.bottom.Len() == 0 {
		l.advance()
	}
	return l.bottom.Peek()
}

// Pop removes and returns the earliest event, or nil when empty.
func (l *ladderQueue) Pop() *Event {
	if l.bottom.Len() == 0 {
		l.advance()
	}
	ev := l.bottom.Pop()
	if ev != nil {
		l.count--
	}
	return ev
}

// advance refills the bottom heap from the innermost rung, spawning finer
// rungs for overloaded buckets and transferring the top once the rungs are
// exhausted. It returns with the bottom non-empty unless the whole queue
// holds no live events.
func (l *ladderQueue) advance() {
	for l.bottom.Len() == 0 {
		if n := len(l.rungs); n > 0 {
			r := l.rungs[n-1]
			for r.cur < len(r.buckets) && len(r.buckets[r.cur]) == 0 {
				r.cur++
			}
			if r.cur >= len(r.buckets) {
				l.rungs[n-1] = nil
				l.rungs = l.rungs[:n-1]
				l.releaseRung(r)
				continue
			}
			b := r.buckets[r.cur]
			// Advance cur before serving so an equal-time push issued by
			// a handler joins the bottom heap, not this served bucket.
			r.buckets[r.cur] = nil
			r.cur++
			l.serveBucket(b)
			continue
		}
		if len(l.top) == 0 {
			return
		}
		l.transferTop()
	}
}

// serveBucket moves a bucket's live events toward the bottom: into a finer
// child rung when the bucket is overloaded and subdividable, directly into
// the bottom heap otherwise. Tombstones are dropped on the way.
func (l *ladderQueue) serveBucket(b []*Event) {
	live := b[:0]
	minT, maxT := math.Inf(1), math.Inf(-1)
	for _, ev := range b {
		if ev.dead {
			l.drop(ev)
			continue
		}
		t := float64(ev.time)
		if t < minT {
			minT = t
		}
		if t > maxT {
			maxT = t
		}
		live = append(live, ev)
	}
	if len(live) > ladderSpawnThreshold && maxT > minT && len(l.rungs) < ladderMaxRungs {
		if r := l.newRung(minT, maxT, len(live)); r != nil {
			l.rungSpawns++
			l.rungs = append(l.rungs, r)
			for _, ev := range live {
				l.rungInsert(r, r.bucketFor(float64(ev.time)), ev)
			}
			l.releaseBucket(b, len(live))
			return
		}
	}
	for _, ev := range live {
		l.bottom.Push(ev)
	}
	l.releaseBucket(b, len(live))
}

// transferTop spreads the top over a fresh rung (or straight into the
// bottom heap when small) and advances topStart past the largest
// transferred timestamp so equal-time latecomers follow their peers.
func (l *ladderQueue) transferTop() {
	live := l.top[:0]
	minT, maxT := math.Inf(1), math.Inf(-1)
	for _, ev := range l.top {
		if ev.dead {
			l.drop(ev)
			continue
		}
		t := float64(ev.time)
		if t < minT {
			minT = t
		}
		if t > maxT {
			maxT = t
		}
		live = append(live, ev)
	}
	if len(live) == 0 {
		clear(l.top)
		l.top = l.top[:0]
		return
	}
	l.topStart = math.Nextafter(maxT, math.Inf(1))
	l.topTransfers++
	if len(live) > ladderTopDumpMin && maxT > minT {
		if r := l.newRung(minT, maxT, len(live)); r != nil {
			l.rungSpawns++
			l.rungs = append(l.rungs, r)
			for _, ev := range live {
				l.rungInsert(r, r.bucketFor(float64(ev.time)), ev)
			}
			clear(l.top[:len(live)])
			l.top = l.top[:0]
			return
		}
	}
	for _, ev := range live {
		l.bottom.Push(ev)
	}
	clear(l.top[:len(live)])
	l.top = l.top[:0]
}

// newRung builds a rung spanning [minT, maxT] with roughly one bucket per
// event, reusing a recycled rung's storage when one with enough bucket
// capacity is pooled. It returns nil when the span is too narrow to
// subdivide in floating point; the caller falls back to the bottom heap.
func (l *ladderQueue) newRung(minT, maxT float64, n int) *ladderRung {
	nb := n
	if nb > ladderMaxBuckets {
		nb = ladderMaxBuckets
	}
	if nb < 2 {
		nb = 2
	}
	width := (maxT - minT) / float64(nb)
	if width <= 0 || math.IsInf(width, 0) || math.IsNaN(width) {
		return nil
	}
	for i, r := range l.rungPool {
		if cap(r.buckets) >= nb {
			k := len(l.rungPool) - 1
			l.rungPool[i] = l.rungPool[k]
			l.rungPool[k] = nil
			l.rungPool = l.rungPool[:k]
			r.start, r.width, r.cur = minT, width, 0
			r.buckets = r.buckets[:nb]
			return r
		}
	}
	// Allocate with power-of-two capacity headroom: spawn sizes drift
	// upward slowly in steady state (a transient cloud grows by a handful
	// of events per spawn), and exact-size arrays would make every spawn
	// a fresh allocation because no recycled rung is ever quite big
	// enough.
	capHint := 2
	for capHint < nb {
		capHint <<= 1
	}
	if capHint > ladderMaxBuckets {
		capHint = ladderMaxBuckets
	}
	return &ladderRung{start: minT, width: width, buckets: make([][]*Event, nb, capHint)}
}

// releaseRung recycles an exhausted rung so steady-state re-bucketing
// stops allocating: the rung struct and its bucket array are handed to the
// next spawn instead of the garbage collector. Served buckets are already
// nil; skipped empty-but-allocated buckets (Compact can shrink one to
// length zero in place) go back to the bucket pool. When the pool is full
// the smaller of the released rung and the smallest pooled one is dropped,
// so pooled capacities converge upward toward the working set's spawn size.
func (l *ladderQueue) releaseRung(r *ladderRung) {
	for i, b := range r.buckets {
		if b != nil {
			l.releaseBucket(b, len(b))
			r.buckets[i] = nil
		}
	}
	r.buckets = r.buckets[:0]
	r.start, r.width, r.cur = 0, 0, 0
	if len(l.rungPool) < ladderMaxRungs {
		l.rungPool = append(l.rungPool, r)
		return
	}
	small := 0
	for i, p := range l.rungPool {
		if cap(p.buckets) < cap(l.rungPool[small].buckets) {
			small = i
		}
	}
	if cap(l.rungPool[small].buckets) < cap(r.buckets) {
		l.rungPool[small] = r
	}
}

// Compact sweeps every tier, dropping all tombstones.
func (l *ladderQueue) Compact(drop func(*Event)) {
	live := l.top[:0]
	for _, ev := range l.top {
		if ev.dead {
			l.count--
			drop(ev)
			continue
		}
		live = append(live, ev)
	}
	clear(l.top[len(live):])
	l.top = live
	for _, r := range l.rungs {
		for i := r.cur; i < len(r.buckets); i++ {
			b := r.buckets[i]
			if len(b) == 0 {
				continue
			}
			kept := b[:0]
			for _, ev := range b {
				if ev.dead {
					l.count--
					drop(ev)
					continue
				}
				kept = append(kept, ev)
			}
			clear(b[len(kept):])
			r.buckets[i] = kept
		}
	}
	n := l.bottom.Len()
	l.bottom.Compact(drop)
	l.count -= n - l.bottom.Len()
}

// drop discards a tombstone found during a sweep.
func (l *ladderQueue) drop(ev *Event) {
	l.count--
	l.onDrop(ev)
}

// grabBucket reuses a served bucket's backing array when one is spare.
func (l *ladderQueue) grabBucket() []*Event {
	if n := len(l.pool); n > 0 {
		b := l.pool[n-1]
		l.pool[n-1] = nil
		l.pool = l.pool[:n-1]
		return b
	}
	return nil
}

// grabBigger takes the largest recycled big array if it beats min, else
// leaves the pool untouched and returns nil. An upgrading bucket grows to
// the full transient-cloud size, so the best base is the biggest one a
// previous cycle already grew; the scan is bounded by ladderBigPoolCap
// and upgrades are rare (one per accumulation bucket, not one per push).
func (l *ladderQueue) grabBigger(min int) []*Event {
	n := len(l.bigPool)
	if n == 0 {
		return nil
	}
	best := 0
	for i, b := range l.bigPool {
		if cap(b) > cap(l.bigPool[best]) {
			best = i
		}
	}
	if cap(l.bigPool[best]) <= min {
		return nil
	}
	b := l.bigPool[best]
	l.bigPool[best] = l.bigPool[n-1]
	l.bigPool[n-1] = nil
	l.bigPool = l.bigPool[:n-1]
	return b
}

// releaseBucket returns a served bucket's storage to the size-matched pool.
func (l *ladderQueue) releaseBucket(b []*Event, used int) {
	if cap(b) == 0 {
		return
	}
	clear(b[:used])
	if cap(b) >= ladderBigBucketCap {
		if len(l.bigPool) < ladderBigPoolCap {
			l.bigPool = append(l.bigPool, b[:0])
			return
		}
		// Full: evict the smallest so pooled capacities converge upward
		// toward the working set's cloud size instead of churning.
		small := 0
		for i, p := range l.bigPool {
			if cap(p) < cap(l.bigPool[small]) {
				small = i
			}
		}
		if cap(l.bigPool[small]) < cap(b) {
			l.bigPool[small] = b[:0]
		}
		return
	}
	if len(l.pool) < ladderBucketPoolCap {
		l.pool = append(l.pool, b[:0])
	}
}
