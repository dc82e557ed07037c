// The allocation-free replication kernel. One paper-scale Figures 6-9
// grid is 7×9 points × 2 policies × P·Q = 300·300 replications ≈ 11.3M
// simulator runs, so the per-run constant factor dominates the whole
// evaluation. This file keeps the discrete-event loop of model.go but
// moves every piece of per-run state into a reusable runState owned by
// a Runner, so that in steady state a replication performs zero heap
// allocations:
//
//   - completion events live in the calendar wheel both kernels share
//     (wheel.go) instead of container/heap, whose interface{} Push/Pop
//     box every event and pay O(log w) dependent cache misses per sift
//     at fan-out w — tens of thousands of in-flight jobs on the paper's
//     SDSS dag. This loop pops them one at a time in exact time order
//     (ties in ascending job id), because order-sensitive policies and
//     the failure and rollover branches consume randomness or build
//     state in pop order;
//   - the per-completion child walk reads the dag.Frozen's CSR arena
//     directly (ChildCSR: one contiguous int32 array with absolute
//     start offsets), so the kernel needs no adjacency flattening of
//     its own and the remaining-parents counters reset from the
//     precomputed indegrees;
//   - the random source is reseeded in place (rng.Source.Reseed)
//     rather than constructed per replication;
//   - policies reset in place in Start, keeping their eligible sets in
//     bitset.MinSet bitmaps rather than freshly allocated btrees (see
//     policy.go, extensions.go).
package sim

import (
	"repro/internal/dag"
	"repro/internal/rng"
)

// runState is the reusable per-worker state of one replication: the
// remaining-parents counters and the completion-event wheel. The dag
// needs no per-Runner flattening — the shared dag.Frozen CSR layout
// (one int32 arc arena with absolute childStart offsets, precomputed
// indegrees and sources) is exactly the array pair the hot child walk
// wants, so the kernel borrows views of it directly. The zero value is
// ready to use; run grows the buffers on first use and then only
// truncates them.
type runState struct {
	remaining []int32
	wheel     wheel
	// fast is the order-free kernel (kernelfast.go) used when the
	// policy and parameters admit it; noFast forces the ordered path
	// (the differential tests compare the two).
	fast   fastKernel
	noFast bool
}

// reset prepares the remaining-parents counters for a replication on
// g, reusing capacity.
//
//prio:noalloc
func (st *runState) reset(g *dag.Frozen, n int) {
	if cap(st.remaining) < n {
		st.remaining = make([]int32, n)
	} else {
		st.remaining = st.remaining[:n]
	}
	for v := 0; v < n; v++ {
		st.remaining[v] = int32(g.InDegree(v))
	}
}

// Runner owns the pooled state for repeated replications on one dag:
// a runState and a random source reseeded in place per run. In steady
// state (after buffer capacities and the policy's internal state have
// grown to the dag's high-water mark) Run performs zero heap
// allocations; the experiment engine keeps one Runner per worker for
// the whole grid. A Runner is not safe for concurrent use.
type Runner struct {
	g   *dag.Frozen
	st  runState
	src *rng.Source
}

// NewRunner returns a Runner for repeated simulations of g.
func NewRunner(g *dag.Frozen) *Runner {
	return &Runner{g: g, src: rng.New(0)}
}

// Run simulates one execution of the Runner's dag under pol with the
// given replication seed. It is equivalent to
// sim.Run(g, p, pol, rng.New(seed)) — bit-identical metrics — without
// the per-replication allocations.
//
//prio:noalloc
func (r *Runner) Run(p Params, pol Policy, seed uint64) Metrics {
	r.src.Reseed(seed)
	return r.st.run(r.g, p, pol, r.src, nil)
}

// run is the discrete-event kernel shared by Run, RunObserved, and
// Runner.Run. All mutable per-replication state lives in st, the
// policy, and src; the kernel itself allocates nothing once st's
// buffers have grown to the dag's high-water mark.
func (st *runState) run(g *dag.Frozen, p Params, pol Policy, src *rng.Source, obs Observer) Metrics {
	if err := p.validate(); err != nil {
		panic(err)
	}
	n := g.NumNodes()
	if n == 0 {
		return Metrics{}
	}

	// Order-free fast path: when completions within a drain window are
	// unobservable (set-semantics policy, no failures, no rollover, no
	// observer) exact time order is pure overhead — see kernelfast.go
	// for the argument and the differential tests pinning the two paths
	// bit-identical.
	if !st.noFast {
		if o, ok := fastPathOK(p, pol, obs); ok {
			return st.runFast(g, p, o, src)
		}
	}

	st.reset(g, n)
	wh := &st.wheel
	wh.reset(p, n)
	remaining := st.remaining // unexecuted parents
	childStart, children := g.ChildCSR()
	pol.Start(g, src)
	for _, v := range g.Sources() {
		pol.Eligible(int(v))
	}

	now := 0.0
	nextBatch := 0.0 // first batch arrives at time 0
	unassigned := n  // jobs not yet handed to a worker
	executed := 0
	lastCompletion := 0.0
	batches, stalls, requests := 0, 0, 0
	waiting := 0 // rolled-over unfilled requests (RolloverWorkers only)

	// assign does not escape run, so the closure and the variables it
	// captures stay on the stack (the kernel's zero-alloc tests would
	// catch a regression).
	assign := func(v int) {
		if obs != nil {
			obs.Assigned(now, v)
		}
		unassigned--
		mean := p.JobTimeMean
		if len(p.JobMeans) > 0 {
			mean = p.JobMeans[v]
		}
		d := src.Normal(mean, p.JobTimeStdDev)
		if d < 1e-3 {
			d = 1e-3 // a job cannot run backwards in time
		}
		wh.insert(now+d, int32(v))
	}

	for executed < n {
		// Advance to the earlier of the next batch arrival and the next
		// completion. Completions at the same instant as a batch are
		// processed first: their children are eligible for that batch.
		for {
			at, job, ok := wh.popBefore(nextBatch, unassigned == 0)
			if !ok {
				break
			}
			now = at
			if p.FailureProb > 0 && src.Float64() < p.FailureProb {
				// The worker failed: the job is unexecuted and eligible
				// again, waiting for a future request.
				unassigned++
				if obs != nil {
					obs.Failed(now, int(job))
				}
				pol.Eligible(int(job))
				continue
			}
			executed++
			lastCompletion = at
			if obs != nil {
				obs.Completed(now, int(job))
			}
			for ci, end := childStart[job], childStart[job+1]; ci < end; ci++ {
				c := children[ci]
				remaining[c]--
				if remaining[c] == 0 {
					pol.Eligible(int(c))
				}
			}
			// Rolled-over workers take newly eligible jobs immediately.
			if waiting > 0 {
				wh.advance(now)
			}
			for waiting > 0 && unassigned > 0 {
				v, ok := pol.Next()
				if !ok {
					break
				}
				waiting--
				assign(v)
			}
		}
		if executed == n {
			break
		}
		if unassigned == 0 {
			continue // drain remaining completions
		}

		// Batch arrival.
		now = nextBatch
		wh.advance(now)
		size := batchSize(src, p.BatchSize)
		batches++
		requests += size
		served := 0
		for i := 0; i < size; i++ {
			v, ok := pol.Next()
			if !ok {
				break
			}
			served++
			assign(v)
		}
		if served == 0 {
			stalls++
		}
		if obs != nil {
			obs.BatchArrived(now, size, served)
		}
		if p.RolloverWorkers {
			waiting += size - served
		}
		nextBatch = now + src.Exp(p.BatchInterarrival)
	}

	m := Metrics{
		ExecutionTime: lastCompletion,
		Batches:       batches,
		Requests:      requests,
	}
	if batches > 0 {
		m.StallProbability = float64(stalls) / float64(batches)
	}
	if requests > 0 {
		m.Utilization = float64(n) / float64(requests)
	}
	return m
}
