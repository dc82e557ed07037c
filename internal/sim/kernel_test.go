package sim

import (
	"fmt"
	"math/bits"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/workloads"
)

// TestRunnerMatchesRun pins the Runner's equivalence contract:
// Runner.Run(p, pol, seed) returns exactly Run(g, p, pol, rng.New(seed))
// even as the pooled state carries over between replications, across
// policies, the failure/rollover branches, and per-job means spread
// over two decades (the wheel spans the largest mean).
func TestRunnerMatchesRun(t *testing.T) {
	g := workloads.AIRSN(15)
	fail := DefaultParams(1, 8)
	fail.FailureProb = 0.15
	roll := DefaultParams(0.3, 4)
	roll.RolloverWorkers = true
	means := DefaultParams(1, 8)
	means.JobMeans = make([]float64, g.NumNodes())
	for i := range means.JobMeans {
		means.JobMeans[i] = 0.5 + 49.5*float64(i%10)/9
	}
	params := []Params{DefaultParams(1, 8), fail, roll, means}

	for _, name := range []string{"prio", "fifo", "random", "prio-maxjobs=4"} {
		factory, err := PolicyFactory(name, g)
		if err != nil {
			t.Fatal(err)
		}
		runner := NewRunner(g)
		pooled := factory()
		for _, p := range params {
			for seed := uint64(1); seed <= 20; seed++ {
				got := runner.Run(p, pooled, seed)
				want := Run(g, p, factory(), rng.New(seed))
				if got != want {
					t.Fatalf("%s seed %d: pooled run %+v, fresh run %+v", name, seed, got, want)
				}
			}
		}
	}
}

// TestRunKernelZeroAllocs is the regression gate for the kernel's
// headline property: once the pooled buffers have reached the dag's
// high-water mark, a replication performs zero heap allocations — on
// the failure branch too, whose re-assignments run on the wheel's
// reused arena slots, and on the rollover branch. CI runs this on
// every change.
func TestRunKernelZeroAllocs(t *testing.T) {
	g := workloads.AIRSN(15)
	fail := DefaultParams(1, 8)
	fail.FailureProb = 0.15
	roll := DefaultParams(1, 8)
	roll.RolloverWorkers = true
	for _, p := range []Params{DefaultParams(1, 8), fail, roll} {
		for _, name := range []string{"prio", "fifo"} {
			factory, err := PolicyFactory(name, g)
			if err != nil {
				t.Fatal(err)
			}
			runner := NewRunner(g)
			pol := factory()
			seed := uint64(0)
			// Warm the buffers past the high-water mark of the seeds the
			// measurement below will replay.
			for i := 0; i < 64; i++ {
				seed++
				runner.Run(p, pol, seed)
			}
			seed = 0
			allocs := testing.AllocsPerRun(64, func() {
				seed++
				runner.Run(p, pol, seed)
			})
			if allocs != 0 {
				t.Errorf("%s fail=%g rollover=%v: %.2f allocs per steady-state replication, want 0",
					name, p.FailureProb, p.RolloverWorkers, allocs)
			}
		}
	}
}

// wheelOracle checks a wheel against a sorted slice of its pending
// events. Jobs come from a fixed pool, so the arena is never larger
// than the pool and, once the pool has cycled, every insert runs on a
// reused slot. Pops must come out in (at, job) order: equal completion
// times pop in ascending job id.
type wheelOracle struct {
	t       *testing.T
	w       wheel
	live    []wheelEvent // pending events; next is unused
	dirty   bool         // live needs sorting
	idle    []int32      // job ids with no pending completion
	inserts int
}

func newWheelOracle(t *testing.T, p Params, n int) *wheelOracle {
	o := &wheelOracle{t: t}
	o.w.reset(p, n)
	for j := int32(0); j < int32(n); j++ {
		o.idle = append(o.idle, j)
	}
	return o
}

// insert schedules an idle job at time at; it does nothing when every
// job is pending.
func (o *wheelOracle) insert(at float64) {
	if len(o.idle) == 0 {
		return
	}
	job := o.idle[len(o.idle)-1]
	o.idle = o.idle[:len(o.idle)-1]
	o.w.insert(at, job)
	o.live = append(o.live, wheelEvent{at: at, job: job})
	o.dirty = true
	o.inserts++
}

// pop pops the wheel by T (any time when all is set) and checks the
// result is the oracle's earliest due event, or that none is due.
func (o *wheelOracle) pop(T float64, all bool) (float64, bool) {
	o.t.Helper()
	at, job, ok := o.w.popBefore(T, all)
	if o.dirty {
		sort.Slice(o.live, func(a, b int) bool { return o.live[a].before(o.live[b].at, o.live[b].job) })
		o.dirty = false
	}
	if len(o.live) == 0 || !all && o.live[0].at > T {
		if ok {
			o.t.Fatalf("popped (%v, %d) with nothing due by %v", at, job, T)
		}
		return 0, false
	}
	if want := o.live[0]; !ok || at != want.at || job != want.job {
		o.t.Fatalf("popped (%v, %d, %v), want (%v, %d)", at, job, ok, want.at, want.job)
	}
	o.live = o.live[1:]
	o.idle = append(o.idle, job)
	return at, true
}

// drainAll pops every pending event and checks the wheel is empty.
func (o *wheelOracle) drainAll() {
	o.t.Helper()
	for {
		if _, ok := o.pop(0, true); !ok {
			break
		}
	}
	if w := &o.w; len(o.live) != 0 || w.live != 0 || w.heads[wheelBuckets] >= 0 {
		o.t.Fatalf("wheel not empty after the final drain: oracle %d, ring %d, overflow head %d", len(o.live), w.live, w.heads[wheelBuckets])
	}
}

// TestEventQueueOrdering drives the shared calendar wheel through the
// ordered kernel's access pattern against a sorted-slice oracle: a
// burst of inserts at each batch arrival, then pops up to the next
// arrival with mid-drain inserts (the rollover path) that land in the
// bucket being drained. Completion times include exact ties and events
// past the ring horizon. The arena holds 64 events against tens of
// thousands of inserts, so every insert past the first 64 runs on a
// reused slot.
func TestEventQueueOrdering(t *testing.T) {
	const n = 64
	r := rng.New(9)
	o := newWheelOracle(t, DefaultParams(1, 8), n)
	// draw returns a completion time at or after now: mostly a job time,
	// sometimes an exact tie with a pending event, sometimes past the
	// ring horizon (twice the 1.8 span).
	draw := func(now float64) float64 {
		u := r.Float64()
		if u < 0.15 && len(o.live) > 0 {
			if e := o.live[int(r.Float64()*float64(len(o.live)))]; e.at >= now {
				return e.at
			}
		}
		if u < 0.2 {
			return now + 5 + 10*r.Float64()
		}
		return now + 1e-3 + 2*r.Float64()
	}

	now := 0.0
	for step := 0; step < 3000; step++ {
		o.w.advance(now)
		for i := int(r.Float64() * 12); i > 0; i-- {
			o.insert(draw(now))
		}
		next := now + r.Float64()
		for {
			at, ok := o.pop(next, false)
			if !ok {
				break
			}
			if r.Float64() < 0.3 {
				// A rollover assignment: a bucket width is ~3.5ms, so
				// this usually lands in the bucket being drained.
				o.w.advance(at)
				o.insert(at + 1e-4*r.Float64())
			}
		}
		now = next
	}
	o.drainAll()
	if w := &o.w; o.inserts < 100*n || len(w.events) > n || cap(w.events) != n {
		t.Fatalf("%d inserts grew the arena to len %d cap %d, want at most %d", o.inserts, len(w.events), cap(w.events), n)
	}
}

// TestEventHeapOrdering drives the wheel's overflow chain, which holds
// the events past the ring horizon, with a random insert/pop
// interleaving in which most completions land past the horizon, and
// checks every pop yields the minimum across ring and overflow.
func TestEventHeapOrdering(t *testing.T) {
	const n = 5000
	r := rng.New(3)
	o := newWheelOracle(t, DefaultParams(1, 8), n)
	now := 0.0
	sawRing, sawOverflow := false, false
	for step := 0; step < n; step++ {
		if len(o.live) == 0 || r.Float64() < 0.6 {
			// The ring spans ~3.6 time units past the base; most of
			// these land beyond it.
			o.insert(now + 100*r.Float64())
			sawRing = sawRing || o.w.live > 0
			sawOverflow = sawOverflow || o.w.heads[wheelBuckets] >= 0
			continue
		}
		at, _ := o.pop(0, true)
		if r.Float64() < 0.5 {
			// Every pending event is at or after the last pop.
			now = at
			o.w.advance(now)
		}
	}
	if !sawRing || !sawOverflow {
		t.Fatalf("inserts reached ring=%v overflow=%v, want both", sawRing, sawOverflow)
	}
	o.drainAll()
}

// TestSortCompletions checks the per-bucket chain sort against the
// oracle with every event in one bucket, on random data and on the
// patterns sorts get wrong: pre-sorted, reversed, constant, and
// few-distinct inputs, plus every length through the Shell-pass
// cutover. Jobs are handed out in descending id, so ties must be
// reordered to pop in ascending job id; the constant case is a 5000-
// event tied chain, as a zero job-time spread makes it.
func TestSortCompletions(t *testing.T) {
	r := rng.New(11)
	// A bucket is ~2ms wide at this span; offsets stay below 1e-5.
	p := Params{JobTimeMean: 1}
	check := func(name string, n int, gen func(i int) float64) {
		t.Helper()
		o := newWheelOracle(t, p, n)
		for i := 0; i < n; i++ {
			o.insert(1 + 1e-9*gen(i))
		}
		occupied := 0
		for _, word := range o.w.occ {
			occupied += bits.OnesCount64(word)
		}
		if n > 0 && occupied != 1 {
			t.Fatalf("%s: events spread over %d buckets, want 1", name, occupied)
		}
		for i := 0; i < n; i++ {
			if _, ok := o.pop(0, true); !ok {
				t.Fatalf("%s: pop %d of %d found nothing", name, i, n)
			}
		}
		o.drainAll()
	}
	for n := 0; n <= 200; n++ {
		check(fmt.Sprintf("random-%d", n), n, func(int) float64 { return 5000 * r.Float64() })
	}
	const big = 5000
	check("random-big", big, func(int) float64 { return 5000 * r.Float64() })
	check("sorted", big, func(i int) float64 { return float64(i) })
	check("reversed", big, func(i int) float64 { return float64(big - i) })
	check("constant", big, func(int) float64 { return 0 })
	check("few-distinct", big, func(i int) float64 { return float64(i % 3) })
	check("sawtooth", big, func(i int) float64 { return float64(i % 50) })
}

// TestKernelCSRViews checks the shared dag.Frozen CSR arrays the kernel
// borrows (ChildCSR, Sources, the indegrees reset reads) against the
// per-node accessors: the kernel no longer flattens the dag itself, so
// this pins the layout contract it depends on.
func TestKernelCSRViews(t *testing.T) {
	g := workloads.AIRSN(10)
	childStart, children := g.ChildCSR()
	n := g.NumNodes()
	if len(childStart) != n+1 {
		t.Fatalf("childStart length %d, want %d", len(childStart), n+1)
	}
	for v := 0; v < n; v++ {
		kids := g.Children(v)
		lo, hi := childStart[v], childStart[v+1]
		if int(hi-lo) != len(kids) {
			t.Fatalf("node %d: %d children in layout, want %d", v, hi-lo, len(kids))
		}
		for i, c := range kids {
			if children[lo+int32(i)] != c {
				t.Fatalf("node %d child %d: layout %d, want %d", v, i, children[lo+int32(i)], c)
			}
		}
	}
	var sources []int32
	for v := 0; v < n; v++ {
		if g.InDegree(v) == 0 {
			sources = append(sources, int32(v))
		}
	}
	got := g.Sources()
	if len(sources) != len(got) {
		t.Fatalf("sources %v, want %v", got, sources)
	}
	for i := range sources {
		if sources[i] != got[i] {
			t.Fatalf("sources %v, want %v", got, sources)
		}
	}
	// reset fills remaining from the precomputed indegrees.
	var st runState
	st.reset(g, n)
	for v := 0; v < n; v++ {
		if int(st.remaining[v]) != g.InDegree(v) {
			t.Fatalf("node %d remaining %d, want indegree %d", v, st.remaining[v], g.InDegree(v))
		}
	}
}

// TestFIFOCompaction asserts the satellite fix: the FIFO queue no
// longer retains every job ever enqueued. A long enqueue/dequeue churn
// (the failure/rollover pattern that re-enqueues jobs indefinitely)
// must keep the backing slice bounded by the live queue length, not the
// total enqueue count.
func TestFIFOCompaction(t *testing.T) {
	f := NewFIFO()
	f.Start(independentDag(4), rng.New(1))
	const churn = 100000
	maxLen := 0
	for i := 0; i < churn; i++ {
		f.Eligible(i)
		f.Eligible(i + churn)
		if _, ok := f.Next(); !ok {
			t.Fatal("queue unexpectedly empty")
		}
		if len(f.queue) > maxLen {
			maxLen = len(f.queue)
		}
	}
	// The live backlog grows by one per iteration; the backing slice
	// may hold up to ~2x the live entries between compactions but must
	// not hold all 2*churn ever-enqueued jobs.
	live := churn + 1
	if maxLen > 2*live+4 {
		t.Fatalf("queue slice grew to %d for %d live entries: consumed prefix retained", maxLen, live)
	}

	// Steady-state churn on a near-empty queue: the slice must stay
	// tiny even after many cycles. (Fresh policy: Start deliberately
	// keeps grown capacity for reuse across replications.)
	f = NewFIFO()
	f.Start(independentDag(4), rng.New(1))
	for i := 0; i < churn; i++ {
		f.Eligible(i)
		f.Next()
	}
	if len(f.queue) > 4 || cap(f.queue) > 1024 {
		t.Fatalf("steady-state queue len=%d cap=%d, want compacted", len(f.queue), cap(f.queue))
	}
	// Order is preserved across compactions.
	f.Start(independentDag(4), rng.New(1))
	next := 0
	for i := 0; i < 1000; i++ {
		f.Eligible(2 * i)
		f.Eligible(2*i + 1)
		v, ok := f.Next()
		if !ok || v != next {
			t.Fatalf("pop %d = %d,%v want %d", i, v, ok, next)
		}
		next++
	}
}

// TestTwoLevelCompaction covers the same fix on the DAGMan-queue side
// of the two-level policy.
func TestTwoLevelCompaction(t *testing.T) {
	order := make([]int, 4)
	for i := range order {
		order[i] = i
	}
	tl := NewTwoLevel(order, 1)
	tl.Start(independentDag(4), rng.New(1))
	for i := 0; i < 100000; i++ {
		tl.Eligible(i % 4)
		if _, ok := tl.Next(); !ok {
			t.Fatal("two-level queue unexpectedly empty")
		}
	}
	if len(tl.dagman) > 8 || cap(tl.dagman) > 1024 {
		t.Fatalf("dagman queue len=%d cap=%d, want compacted", len(tl.dagman), cap(tl.dagman))
	}
}

// BenchmarkRunKernel is the replication-kernel micro-benchmark: one
// paper-scale replication per iteration through the pooled Runner, the
// unit of work the 11.3M-run evaluation repeats. Each paper dag runs
// with a batch size matched to its width, as in Figures 6-9 (AIRSN is
// narrow, SDSS is ~1e4 jobs wide). Compare BenchmarkRunAIRSN (fresh
// state per run, the pre-engine cost) in sim_test.go; make bench-sim
// records both in BENCH_sim.json.
func BenchmarkRunKernel(b *testing.B) {
	for _, w := range []struct {
		dag  string
		muBS float64
	}{{"airsn", 16}, {"inspiral", 512}, {"sdss", 8192}} {
		g, err := workloads.ByName(w.dag, 1)
		if err != nil {
			b.Fatal(err)
		}
		order := core.Prioritize(g).Order
		heftFactory, err := PolicyFactory("heft", g)
		if err != nil {
			b.Fatal(err)
		}
		p := DefaultParams(1, w.muBS)
		fail := p
		fail.FailureProb = 0.05
		roll := p
		roll.RolloverWorkers = true
		// One ranker-tier family (heft) benches alongside the paper's
		// pair so BENCH_sim.json carries a per-policy row proving the
		// new families run the same zero-alloc fast path — bench-sim's
		// RunKernel/ assertions gate its B/op at exactly 0 like prio's.
		// The fifo-fail and fifo-rollover rows put the ordered kernel's
		// failure and rollover branches under the same gates.
		for _, tc := range []struct {
			name string
			pol  Policy
			p    Params
		}{
			{"prio", NewOblivious("PRIO", order), p},
			{"fifo", NewFIFO(), p},
			{"heft", heftFactory(), p},
			{"fifo-fail", NewFIFO(), fail},
			{"fifo-rollover", NewFIFO(), roll},
		} {
			b.Run(w.dag+"/"+tc.name, func(b *testing.B) {
				runner := NewRunner(g)
				runner.Run(tc.p, tc.pol, 1) // reach steady state before measuring
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					runner.Run(tc.p, tc.pol, uint64(i))
				}
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "reps/s")
			})
		}
	}
}

// BenchmarkEngineGrid runs a small whole-grid experiment through the
// flat scheduler: 4 points × 2 policies × 36 replications per
// iteration on scaled AIRSN — the end-to-end shape of a Figures 6-9
// sweep.
func BenchmarkEngineGrid(b *testing.B) {
	g, err := workloads.ByName("airsn", 4)
	if err != nil {
		b.Fatal(err)
	}
	a, _ := PolicyFactory("prio", g)
	bf, _ := PolicyFactory("fifo", g)
	points := []Params{
		DefaultParams(1, 8), DefaultParams(1, 32),
		DefaultParams(10, 8), DefaultParams(10, 32),
	}
	opts := ExperimentOptions{P: 6, Q: 6, Seed: 1}
	reps := float64(len(points) * 2 * opts.P * opts.Q)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts.Seed = uint64(i + 1)
		out := CompareGrid(g, points, a, bf, opts, nil)
		if !out[0].ExecTime.Valid {
			b.Fatal("invalid CI")
		}
	}
	b.ReportMetric(reps*float64(b.N)/b.Elapsed().Seconds(), "reps/s")
}
