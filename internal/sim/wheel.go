// The event core of both replication kernels: a bucket calendar (a
// single-level timing wheel) holding the pending job completions.
//
// One flat event arena is threaded into wheelBuckets intrusive chains
// by truncated time, vi = int(at*invW). IEEE multiplication by a
// positive constant is monotone, so t <= T implies vi(t) <= vi(T): a
// bucket wholly before a time bound holds only due events, and no event
// <= T can hide in a later bucket. An occupancy bitmap lets a scan jump
// empty buckets by trailing-zero counts. Events past the ring's horizon
// (a job time more than ~8 sigma above the largest mean) go to an
// overflow chain kept in pop order; it is empty in any realistic
// replication.
//
// The two kernels read the wheel two ways:
//
//   - drain (the order-free kernel, kernelfast.go) empties every bucket
//     a window covers wholesale, in bucket order, and filters only the
//     boundary bucket; nothing is sorted.
//   - popBefore (the ordered kernel, kernel.go) returns events one at a
//     time in exact time order. A bucket's chain is sorted the first
//     time a pop reaches it (sortedVi names that bucket); an insert
//     that lands in it afterwards, such as a rollover assignment in
//     the middle of a drain, is linked in order. Equal completion times
//     pop in ascending job id, so (at, job) is a strict total order — a
//     job has at most one pending completion — and every run is
//     deterministic whatever the bucket geometry.
//
// Popped arena slots go back through a free list, so the failure
// branch's re-assignments reuse them: the arena never holds more than
// the job count, the bound on simultaneously pending completions. The
// ring base follows the simulation clock (advance): every live ring
// event lies in [baseVi, baseVi+wheelBuckets), so a ring slot names
// exactly one live bucket.
package sim

import (
	"math"
	"math/bits"
)

// wheelBuckets is the ring size (a power of two). The wheel spans
// 2*(mean+8*JobTimeStdDev) for the largest job-time mean, so at the
// paper's N(1, 0.1) job times one bucket covers ~3.5ms of simulated
// time and a burst of 8192 assignments spreads across ~230 buckets.
const wheelBuckets = 1024

// wheelEvent is one pending completion in the arena: the completion
// time, the job id, and the arena index of the next event in the same
// chain (a bucket, the overflow, or the free list); -1 ends a chain.
type wheelEvent struct {
	at   float64
	job  int32
	next int32
}

// before reports whether e pops before an event at (at, job).
func (e *wheelEvent) before(at float64, job int32) bool {
	return e.at < at || e.at == at && e.job < job
}

// wheel is the pooled calendar of one runState. heads is a fixed-size
// array — not a slice — so that masked bucket indexing (vi &
// (wheelBuckets-1), plus the constant overflow slot) is provably
// in-bounds and the insert, pop, and drain paths compile without
// bounds checks.
type wheel struct {
	events   []wheelEvent
	free     int32                   // head of the free-slot list
	buf      []wheelEvent            // sortChain's scratch
	heads    [wheelBuckets + 1]int32 // ring slots + the overflow chain
	invW     float64                 // buckets per unit simulated time
	baseVi   int                     // ring base: live ring events are in [baseVi, baseVi+wheelBuckets)
	minVi    int                     // lowest bucket that may hold a live ring event
	sortedVi int                     // the bucket whose chain is in pop order
	live     int                     // events in the ring
	// occ summarizes which ring slots are non-empty, one bit per
	// bucket: at short batch interarrivals most windows cover hundreds
	// of buckets holding a handful of events.
	occ [wheelBuckets / 64]uint64
}

// reset empties the wheel for one replication of an n-job dag under p,
// pre-sizing the arena and scratch to n so steady state never grows
// them.
//
//prio:noalloc
//prio:nobce
func (w *wheel) reset(p Params, n int) {
	if cap(w.events) < n {
		w.events = make([]wheelEvent, 0, n)
	}
	if cap(w.buf) < n {
		w.buf = make([]wheelEvent, 0, n)
	}
	w.events = w.events[:0]
	w.free = -1
	for i := range w.heads {
		w.heads[i] = -1
	}
	for i := range w.occ {
		w.occ[i] = 0
	}
	// The wheel spans twice the effective job-time range of the slowest
	// job, so an insert at now+d lands at most wheelBuckets/2+1 buckets
	// past the base.
	mean := p.JobTimeMean
	for _, m := range p.JobMeans {
		if m > mean {
			mean = m
		}
	}
	span := mean + 8*p.JobTimeStdDev + 1e-3
	w.invW = float64(wheelBuckets/2) / span
	w.baseVi = 0
	w.minVi = math.MaxInt
	w.sortedVi = math.MinInt
	w.live = 0
}

// advance moves the ring base to time t. Every pending completion must
// be at or after t; the base never moves back.
//
//prio:noalloc
func (w *wheel) advance(t float64) {
	if vi := int(t * w.invW); vi > w.baseVi {
		w.baseVi = vi
		if w.minVi < vi {
			w.minVi = vi
		}
	}
}

// insert schedules the completion of job at time at. Into the sorted
// bucket and the overflow chain it links in order; anywhere else it
// prepends. The slot is provably in-bounds for heads: the ring branch
// masks with wheelBuckets-1 and the overflow branch uses the constant
// last slot.
//
//prio:noalloc
//prio:nobce
func (w *wheel) insert(at float64, job int32) {
	vi := int(at * w.invW)
	slot := uint(wheelBuckets)
	ordered := true
	if uint(vi-w.baseVi) < wheelBuckets {
		slot = uint(vi) & (wheelBuckets - 1)
		w.occ[(slot>>6)&(wheelBuckets/64-1)] |= 1 << (slot & 63)
		if vi < w.minVi {
			w.minVi = vi
		}
		w.live++
		ordered = vi == w.sortedVi
	}
	// The clamp never fires; it hands the prover the upper bound the
	// branch merge loses.
	if slot > wheelBuckets {
		slot = wheelBuckets
	}
	ev := wheelEvent{at: at, job: job, next: w.heads[slot]}
	i := int(w.free)
	if events := w.events; uint(i) < uint(len(events)) {
		w.free = events[i].next
		events[i] = ev
	} else {
		i = len(events)
		w.events = append(w.events, ev)
	}
	if !ordered {
		w.heads[slot] = int32(i)
		return
	}
	events := w.events
	link := &w.heads[slot]
	for j := int(*link); uint(j) < uint(len(events)) && events[j].before(at, job); j = int(*link) {
		link = &events[j].next
	}
	if uint(i) < uint(len(events)) { // always true; it proves the index
		events[i].next = *link
	}
	*link = int32(i)
}

// nextOcc returns the ring distance from slot s to the nearest
// occupied slot at or after s, wrapping past the top of the ring. The
// ring must be non-empty (live > 0), or the scan would not terminate.
// The word index mask keeps the occupancy scan free of bounds checks.
//
//prio:noalloc
//prio:nobce
//prio:inline
func (w *wheel) nextOcc(s int) int {
	i := (s >> 6) & (wheelBuckets/64 - 1)
	if word := w.occ[i] >> (uint(s) & 63); word != 0 {
		return bits.TrailingZeros64(word)
	}
	for d := 1; ; d++ {
		if word := w.occ[(i+d)&(wheelBuckets/64-1)]; word != 0 {
			return d<<6 - s&63 + bits.TrailingZeros64(word)
		}
	}
}

// popBefore removes and returns the earliest pending completion if it
// is due by T (any time when all is set); ok is false otherwise. The
// front is the head of the lowest occupied bucket — sorted here the
// first time a pop reaches it — or the overflow head, whichever comes
// first. The freed arena slot goes on the free list.
//
//prio:noalloc
//prio:nobce
func (w *wheel) popBefore(T float64, all bool) (at float64, job int32, ok bool) {
	events := w.events
	link := &w.heads[wheelBuckets]
	slot := -1
	if w.live > 0 {
		vi := w.minVi + w.nextOcc(w.minVi&(wheelBuckets-1))
		w.minVi = vi
		s := vi & (wheelBuckets - 1)
		r, o := int(w.heads[s]), int(*link)
		if vi != w.sortedVi {
			// A one-event chain, the rule at small batch sizes, is sorted.
			if uint(r) < uint(len(events)) && events[r].next >= 0 {
				w.sortChain(s)
				r = int(w.heads[s])
			}
			w.sortedVi = vi
		}
		if uint(o) >= uint(len(events)) || uint(r) < uint(len(events)) && events[r].before(events[o].at, events[o].job) {
			link, slot = &w.heads[s], s
		}
	}
	i := int(*link)
	if uint(i) >= uint(len(events)) {
		return 0, 0, false
	}
	ev := &events[i]
	if !all && ev.at > T {
		return 0, 0, false
	}
	*link = ev.next
	if slot >= 0 {
		if ev.next < 0 {
			w.occ[(slot>>6)&(wheelBuckets/64-1)] &^= 1 << (uint(slot) & 63)
		}
		w.live--
		if w.live == 0 {
			w.minVi = math.MaxInt
		}
	}
	ev.next = w.free
	w.free = int32(i)
	return ev.at, ev.job, true
}

// sortChain puts the chain of ring slot s in pop order: the events,
// tagged with their arena indices, are copied into buf, sorted there by
// (at, job), and relinked. Bursts spread over ~230 buckets, so a chain
// is a few dozen events and the sort is a plain insertion sort —
// contiguous moves, one unpredictable branch per event. Only a
// degenerate job-time spread (a zero standard deviation puts a whole
// burst in one bucket) makes a chain long enough for Shell passes
// (Knuth's gaps) to run first and keep the sort subquadratic.
//
//prio:noalloc
func (w *wheel) sortChain(s int) {
	events := w.events
	link := &w.heads[s&(wheelBuckets-1)]
	buf := w.buf[:0]
	for i := *link; uint(i) < uint(len(events)); i = events[i].next {
		e := events[i]
		e.next = i
		buf = append(buf, e)
	}
	w.buf = buf
	h := 1
	for h < len(buf)/64 {
		h = 3*h + 1
	}
	for ; h > 0; h /= 3 {
		for i := h; i < len(buf); i++ {
			e := buf[i]
			j := i
			for ; j >= h && e.before(buf[j-h].at, buf[j-h].job); j -= h {
				buf[j] = buf[j-h]
			}
			buf[j] = e
		}
	}
	for _, e := range buf {
		*link = e.next
		link = &events[e.next].next
	}
	*link = -1
}

// drain hands every pending completion with time <= T (all of them when
// all is set) to the order-free kernel's complete, in bucket order
// rather than time order, and returns how many completed. Whole buckets
// strictly before the boundary complete without comparison; the
// boundary bucket is filtered by comparison and its survivors relinked.
// Slots are not freed: the order-free kernel inserts each job once, so
// the arena never needs reuse between resets.
//
// The bucket chains walk with uint(i) < uint(len(events)) as the loop
// condition: it folds the chain-end test (next == -1 wraps to a huge
// uint) and the arena bound into one compare, so the event loads carry
// no bounds checks.
//
//prio:noalloc
//prio:nobce
func (w *wheel) drain(T float64, all bool, k *fastKernel) int {
	done := 0
	events := w.events
	if w.live > 0 {
		Tvi := int(T * w.invW)
		if all || w.minVi <= Tvi {
			vi := w.minVi
			for w.live > 0 {
				// Jump to the next occupied bucket; the live invariant
				// guarantees it is within one full ring turn of vi.
				vi += w.nextOcc(vi & (wheelBuckets - 1))
				if !all && vi > Tvi {
					break
				}
				slot := vi & (wheelBuckets - 1)
				if all || vi < Tvi {
					// The whole bucket is inside the window.
					for i := int(w.heads[slot]); uint(i) < uint(len(events)); i = int(events[i].next) {
						k.complete(events[i].job)
						done++
						w.live--
					}
					w.heads[slot] = -1
					w.occ[(slot>>6)&(wheelBuckets/64-1)] &^= 1 << (uint(slot) & 63)
				} else {
					// Boundary bucket: filter by time, relink survivors.
					nh := int32(-1)
					for i := int(w.heads[slot]); uint(i) < uint(len(events)); {
						ev := &events[i]
						next := int(ev.next)
						if ev.at <= T {
							k.complete(ev.job)
							done++
							w.live--
						} else {
							ev.next = nh
							nh = int32(i)
						}
						i = next
					}
					w.heads[slot] = nh
					if nh < 0 {
						w.occ[(slot>>6)&(wheelBuckets/64-1)] &^= 1 << (uint(slot) & 63)
					}
					break
				}
				vi++
			}
			w.minVi = vi
		}
	}
	if !all {
		// Every live ring event is now > T.
		w.advance(T)
	}
	if w.live == 0 {
		// Empty ring: forget the stale walk start so a sparse later
		// insert does not leave minVi pointing at drained buckets.
		w.minVi = math.MaxInt
	}
	// The overflow chain is in pop order: its due events are a prefix.
	for i := int(w.heads[wheelBuckets]); uint(i) < uint(len(events)) && (all || events[i].at <= T); i = int(w.heads[wheelBuckets]) {
		k.complete(events[i].job)
		done++
		w.heads[wheelBuckets] = events[i].next
	}
	return done
}
