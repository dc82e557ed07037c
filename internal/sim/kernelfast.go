// The order-free fast path of the replication kernel. The ordered
// kernel in kernel.go pops completions in exact global time order,
// because order-sensitive policies (FIFO's eligibility queue, Random's
// index draws, TwoLevel's DAGMan queue) and the failure/rollover
// branches consume randomness or build state in pop order. For the
// paper's headline policy that ordering is pure overhead: an Oblivious
// policy is a *set* — Next pops the minimum rank of the eligible set, a
// pure function of the set's contents — so between two batch arrivals
// the order in which completions are processed is unobservable.
//
// runFast exploits the order freedom three ways, each differential-
// tested bit-identical to the ordered path (fuzz_test.go compares it
// against both the forced-slow kernel and an independent naive-rescan
// reference; the engine goldens pin it to the pre-refactor driver):
//
//   - batched event drains: all completions in the window (prevBatch,
//     nextBatch] leave the shared calendar wheel (wheel.go) in one
//     wholesale drain, in bucket order rather than time order, and no
//     bucket is ever sorted. Only their *set* matters: the maximum
//     insert time reproduces lastCompletion (windows are disjoint in
//     time, so the global maximum is popped in the final window either
//     way), and the eligible set after the window is order-independent.
//   - incremental eligibility straight into bitset words: the
//     completion→children walk decrements remaining-parent counters
//     and sets the rank bit in a bitset.MinSet directly — no interface
//     dispatch per child, no per-policy indirection — and assignment
//     pops ranks via MinSet.PopMin's word-level trailing-zero scan from
//     its cached minimum word index.
//   - cache-conscious layout: the kernel runs in a topo-relabeled id
//     space. The CSR arc arena and every per-node array (remaining,
//     rank, initial indegree) are ordered by the frozen topological
//     order, so the child walk of a just-completed node touches a
//     contiguous region instead of striding the original id space.
//
// No failures means each job is inserted once, so the wheel's arena,
// sized to the job count, never needs its free list here.
package sim

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/dag"
	"repro/internal/rng"
)

// fastKernel is the pooled state of the order-free path, owned by a
// runState and rebuilt only when the policy instance (and with it the
// total order) changes. All buffers are pre-sized from the dag at
// build time, so steady state performs zero heap allocations and zero
// buffer growth.
//
// rem and rank are deliberately separate arrays, not one fused record:
// the completion walk decrements rem once per arc but reads rank only
// once per node ever (when the last parent finishes), so splitting
// halves the hot working set the child walk strides through.
type fastKernel struct {
	owner *Oblivious // cache key: rebuilt when the policy changes
	g     *dag.Frozen

	// Topo-relabeled topology: node i is the i-th node of g.Topo(), so
	// sources are exactly the ids [0, nSources) and a completion's
	// children cluster just after it in id space.
	childStart []int32
	children   []int32
	initRem    []int32
	rem        []int32 // remaining unexecuted parents
	rank       []int32 // position under the policy's total order
	jobOfRank  []int32 // rank -> topo-relabeled id
	nSources   int

	elig bitset.MinSet
}

// fastPathOK reports whether the order-free path may run: the policy
// must have set semantics and the run must not branch on pop order
// (failures draw randomness per pop; rollover assigns — and therefore
// draws job times — at completion times; an observer sees pop order
// and original ids; per-job means are indexed in the original space).
//
// Admission is by capability, not concrete type: any policy
// implementing staticRank — in practice anything embedding *Oblivious,
// which promotes both methods — rides the fast kernel, so new
// ranker-backed families (and wrappers adding Name-only behaviour) are
// admitted without touching this gate. The kernel runs on the
// fastCore() *Oblivious, which carries the same total order the
// wrapper would replay.
func fastPathOK(p Params, pol Policy, obs Observer) (*Oblivious, bool) {
	sr, ok := pol.(staticRank)
	if !ok || obs != nil || p.FailureProb != 0 || p.RolloverWorkers || len(p.JobMeans) != 0 {
		return nil, false
	}
	return sr.fastCore(), true
}

// rankHook is the CI anti-vacuousness seam for the devirt proof on
// runFast: a mutable package-level interface variable whose dynamic
// type the compiler cannot pin (swapRankHook below keeps it
// unprovable, mirroring the devirtclean fixture's Churn). CI's
// injection probe seds runFast's INJECT marker into `sr = rankHook`,
// which must turn `make lint`'s devirt gate red — proving the gate
// still distinguishes the pinned local from an arbitrary interface
// call. Production code never reads it.
var rankHook staticRank = &Oblivious{}

// swapRankHook makes rankHook's dynamic type depend on a call the
// compiler cannot see through, so the injected call above can never be
// accidentally devirtualized into a passing build.
func swapRankHook(sr staticRank) { rankHook = sr }

// build derives the topo-relabeled topology and rank tables for (g, o),
// reusing every buffer whose size still fits. Rebuilding for a policy
// change on the same dag touches no allocator.
func (k *fastKernel) build(g *dag.Frozen, o *Oblivious, order []int) {
	n := g.NumNodes()
	if len(order) != n {
		panic(fmt.Sprintf("sim: order covers %d jobs, dag has %d", len(order), n))
	}
	k.owner, k.g = o, g
	topo, pos := g.Topo(), g.TopoPositions()
	cs, ch := g.ChildCSR()
	m := int(cs[n])
	if len(k.childStart) != n+1 {
		k.childStart = make([]int32, n+1)
	}
	if len(k.children) != m {
		k.children = make([]int32, m)
	}
	if len(k.initRem) != n {
		k.initRem = make([]int32, n)
	}
	if len(k.rem) != n {
		k.rem = make([]int32, n)
	}
	if len(k.rank) != n {
		k.rank = make([]int32, n)
	}
	if len(k.jobOfRank) != n {
		k.jobOfRank = make([]int32, n)
	}
	w := int32(0)
	for i, v := range topo {
		k.childStart[i] = w
		for ci := cs[v]; ci < cs[v+1]; ci++ {
			k.children[w] = pos[ch[ci]]
			w++
		}
		k.initRem[i] = int32(g.InDegree(int(v)))
	}
	k.childStart[n] = w
	for r, v := range order {
		j := pos[v]
		k.jobOfRank[r] = j
		k.rank[j] = int32(r)
	}
	k.nSources = len(g.Sources())
}

// start resets the kernel for one replication: remaining-parents
// counters from the precomputed indegrees and the eligible set seeded
// with the sources' ranks.
//
//prio:noalloc
//prio:nobce
func (k *fastKernel) start() {
	copy(k.rem, k.initRem)
	rank := k.rank
	nSources := k.nSources
	if nSources > len(rank) {
		panic("sim: fastKernel.start: sources exceed rank table")
	}
	k.elig.Reset(len(k.rem))
	for i := 0; i < nSources; i++ {
		k.elig.Add(int(rank[i]))
	}
}

// complete processes one completion: walk the children sequentially in
// the relabeled CSR, decrement their remaining-parent counters, and
// set the rank bit of every node whose last parent this was.
//
// The cold guards up front replace the per-iteration implicit bounds
// checks: a corrupt CSR (never built by build) panics once at entry,
// and past the guards every index in the walk is provably in-bounds —
// children by ci < end <= len(children), rem by the per-child uint
// guard, and rank by the reslice pinning len(rank) to len(rem).
//
//prio:noalloc
//prio:nobce
func (k *fastKernel) complete(job int32) {
	cs, children := k.childStart, k.children
	j := int(job)
	if uint(j) >= uint(len(cs)) {
		panic("sim: fastKernel.complete: job out of range")
	}
	ci := int(cs[j])
	jn := j + 1
	if uint(jn) >= uint(len(cs)) {
		panic("sim: fastKernel.complete: job out of range")
	}
	end := int(cs[jn])
	if ci < 0 || end > len(children) {
		panic("sim: fastKernel.complete: corrupt child CSR")
	}
	rem, rank := k.rem, k.rank
	if len(rank) < len(rem) {
		panic("sim: fastKernel.complete: rank table too short")
	}
	rank = rank[:len(rem)]
	for ; ci < end; ci++ {
		c := int(children[ci])
		if uint(c) >= uint(len(rem)) {
			panic("sim: fastKernel.complete: child id out of range")
		}
		rem[c]--
		if rem[c] == 0 {
			k.elig.Add(int(rank[c]))
		}
	}
}

// runFast is the order-free replication loop. It consumes randomness
// in exactly the order the ordered kernel does — batch size, then one
// job time per assignment in rank order, then the interarrival draw —
// and reproduces its metrics bit for bit on the policies and
// parameters fastPathOK admits.
//
// The //prio:devirt pragma adds the devirtualization obligation on top
// of noalloc: the ranker capability call below must compile to a
// direct call (the compiler proves sr's dynamic type), and the census
// in the devirt analyzer fails the build if the interface call ever
// disappears — so the pragma can never go vacuously green.
//
//prio:noalloc
//prio:nobce
//prio:devirt
func (st *runState) runFast(g *dag.Frozen, p Params, o *Oblivious, src *rng.Source) Metrics {
	k := &st.fast
	// The rank order reaches the kernel through the staticRank
	// capability, pinned to a local so the compiler devirtualizes the
	// call (proven by `make lint`; see rankHook for the CI probe that
	// keeps that proof honest).
	var sr staticRank = o
	// INJECT: ranker call through the mutable hook goes here
	if k.owner != o || k.g != g {
		k.build(g, o, sr.StaticOrder())
	}
	n := g.NumNodes()
	k.start()
	wh := &st.wheel
	wh.reset(p, n)

	now := 0.0
	maxIns := 0.0 // the latest scheduled completion
	nextBatch := 0.0
	unassigned := n
	executed := 0
	batches, stalls, requests := 0, 0, 0

	for executed < n {
		executed += wh.drain(nextBatch, unassigned == 0, k)
		if executed == n {
			break
		}
		if unassigned == 0 {
			continue // drain the remaining completions
		}

		// Batch arrival.
		now = nextBatch
		size := batchSize(src, p.BatchSize)
		batches++
		requests += size
		served := 0
		jobOfRank := k.jobOfRank
		for i := 0; i < size; i++ {
			r, ok := k.elig.PopMin()
			if !ok {
				break
			}
			if uint(r) >= uint(len(jobOfRank)) {
				panic("sim: runFast: rank out of range")
			}
			served++
			unassigned--
			d := src.Normal(p.JobTimeMean, p.JobTimeStdDev)
			if d < 1e-3 {
				d = 1e-3 // a job cannot run backwards in time
			}
			at := now + d
			if at > maxIns {
				maxIns = at
			}
			wh.insert(at, jobOfRank[r])
		}
		if served == 0 {
			stalls++
		}
		nextBatch = now + src.Exp(p.BatchInterarrival)
	}

	// Every scheduled event completed and drain windows advance in time,
	// so the latest insert is the ordered kernel's final pop.
	m := Metrics{
		ExecutionTime: maxIns,
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
