package main

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/dag"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// simgrid-sdss: one op is one grid point of PRIO vs FIFO on the paper
// SDSS dag through the public grid entry, sim.CompareGrid, with
// Workers = 2. The points cycle through μBIT = 1 × μBS ∈ {2^2, 2^7,
// 2^13} and a μBS = 2^7 point with FailureProb = 0.05.
//
// What a point costs depends on its random streams: with one
// experiment seed per point, the run seed moved op_p50_ms by up to 10%
// between runs, while five runs on one seed agreed within 1%. So each
// round of the grid takes the next of simSeeds experiment seeds drawn
// from the run seed, and a run's figures average over all of them.
// simSeeds is odd so that a traced run, which alternates traced and
// untraced rounds, traces every seed.

const (
	simP       = 8 // samples per policy per point
	simQ       = 8 // replications averaged per sample
	simWorkers = 2
	simSeeds   = 7
	simProbes  = 3 // kernel replications timed per policy after a traced op
)

func simPoints() []sim.Params {
	fail := sim.DefaultParams(1, 1<<7)
	fail.FailureProb = 0.05
	return []sim.Params{sim.DefaultParams(1, 1<<2), sim.DefaultParams(1, 1<<7), sim.DefaultParams(1, 1<<13), fail}
}

// fastPath mirrors the kernel's admission rule (fastPathOK): a static
// order policy without failures, rollover or per-job means takes the
// order-free fast kernel; everything else takes the ordered kernel.
func fastPath(policy string, p sim.Params) bool {
	return policy == "prio" && p.FailureProb == 0 && !p.RolloverWorkers && len(p.JobMeans) == 0
}

// cmpKey renders a comparison so that two keys are equal exactly when
// every field is, every float bit for bit.
func cmpKey(c sim.Comparison) string {
	var b strings.Builder
	appendBits(&b, reflect.ValueOf(c))
	return b.String()
}

func appendBits(b *strings.Builder, v reflect.Value) {
	switch v.Kind() {
	case reflect.Float64:
		b.WriteString(strconv.FormatUint(math.Float64bits(v.Float()), 16))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			appendBits(b, v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			appendBits(b, v.Index(i))
		}
	default:
		fmt.Fprint(b, v.Interface())
	}
	b.WriteByte(' ')
}

func runSimgrid(r *run) error {
	g := workloads.PaperSDSS()
	points := simPoints()
	opts := func(round int64) sim.ExperimentOptions {
		return sim.ExperimentOptions{P: simP, Q: simQ, Confidence: 95, Workers: simWorkers,
			Seed: r.seed*simSeeds + uint64(round%simSeeds)}
	}

	// Setup: build both policies (the PRIO order is core.Prioritize on
	// SDSS) and run the cold first grid point.
	var prioF, fifoF func() sim.Policy
	for i := 0; i < setupReps; i++ {
		r.cal.sample()
		t := time.Now()
		s := r.tr.begin("sim.setup.policy", int64(-1-i), -1)
		var err error
		prioF, err = sim.PolicyFactory("prio", g)
		r.tr.end(s)
		if err != nil {
			return err
		}
		if fifoF, err = sim.PolicyFactory("fifo", g); err != nil {
			return err
		}
		sim.CompareGrid(g, points[:1], prioF, fifoF, opts(0), nil)
		r.setup = append(r.setup, r.timed(time.Since(t).Seconds()))
	}

	// References: the run seed picks one point, whose ops on the first
	// experiment seed must be bit-identical to a fresh single-point
	// sim.Compare with one worker; every other op must repeat the first
	// result of its point and experiment seed.
	type combo struct{ point, seed int }
	chosen := int(r.seed % uint64(len(points)))
	one := opts(0)
	one.Workers = 1
	ref := map[combo]string{{chosen, 0}: cmpKey(sim.Compare(g, points[chosen], prioF, fifoF, one))}

	var (
		ms     runtime.MemStats
		runner *sim.Runner
		busy   []float64
	)
	if r.tr != nil {
		runner = sim.NewRunner(g)
	}
	start := r.startTimed()
	for id := int64(0); !r.timeUp(start); id++ {
		r.cal.sample()
		pi, round := int(id)%len(points), id/int64(len(points))
		tr := r.tr
		if round%2 == 0 {
			tr = nil // a traced run alternates traced and untraced rounds of the grid
		}
		runtime.ReadMemStats(&ms)
		a0 := ms.TotalAlloc
		t := time.Now()
		span := tr.begin("op", id, -1)
		c := sim.CompareGrid(g, points[pi:pi+1], prioF, fifoF, opts(round), nil)[0]
		tr.end(span)
		d := time.Since(t).Seconds()
		runtime.ReadMemStats(&ms)
		r.walls = append(r.walls, r.timed(d))
		if tr == nil {
			r.ops = append(r.ops, r.timed(d))
			r.allocB += float64(ms.TotalAlloc - a0)
		} else {
			r.tracedRaw = append(r.tracedRaw, d)
		}
		if r.corrupt == "ratio" {
			c.ExecTime.Median = math.Float64frombits(math.Float64bits(c.ExecTime.Median) ^ 1)
		}
		key, cb := cmpKey(c), combo{pi, int(round % simSeeds)}
		want, seen := ref[cb]
		if !seen {
			ref[cb], want = key, key
		}
		var err error
		if key != want {
			err = fmt.Errorf("point %d (μBS %v, failure %v), experiment seed %d: comparison differs from the reference",
				pi, points[pi].BatchSize, points[pi].FailureProb, cb.seed)
		}
		r.record(err)
		if tr != nil {
			kernel := probeKernels(tr, id, g, runner, points[pi], prioF, fifoF)
			busy = append(busy, kernel*simP*simQ/(d*simWorkers))
		}
	}
	if r.tr != nil {
		simLayers(r, busy)
	}
	return nil
}

// probeKernels times simProbes replications of each policy at p on one
// Runner, after the op and outside it, and returns the mean seconds
// one replication of PRIO plus one of FIFO takes. Each replication is
// its own span, named for the kernel the admission rule picks.
func probeKernels(tr *tracer, op int64, g *dag.Frozen, runner *sim.Runner, p sim.Params, prioF, fifoF func() sim.Policy) float64 {
	var total float64
	for _, pf := range []struct {
		name string
		f    func() sim.Policy
	}{{"prio", prioF}, {"fifo", fifoF}} {
		name := "sim.kernel_ordered"
		if fastPath(pf.name, p) {
			name = "sim.kernel_fast"
		}
		pol := pf.f()
		runner.Run(p, pol, 0) // warm the runner's buffers for this policy
		for k := 0; k < simProbes; k++ {
			t := time.Now()
			s := tr.beginAlloc(name, op, -1)
			runner.Run(p, pol, uint64(op)*simProbes+uint64(k)+1)
			tr.end(s)
			total += time.Since(t).Seconds()
		}
	}
	return total / simProbes
}

func simLayers(r *run, busy []float64) {
	us := func(name string) float64 { return 1e6 * r.cal.scale(median(r.tr.durations(name))) }
	r.layers["sim.kernel_fast.us_per_rep"] = us("sim.kernel_fast")
	r.layers["sim.kernel_ordered.us_per_rep"] = us("sim.kernel_ordered")
	var allocs []float64
	for _, s := range r.tr.spans {
		if s.Name == "sim.kernel_fast" || s.Name == "sim.kernel_ordered" {
			allocs = append(allocs, float64(s.AllocB))
		}
	}
	r.layers["sim.kernel.alloc_b_per_rep"] = median(allocs)
	r.layers["sim.grid.busy_frac"] = median(busy)
	r.layers["ledger.unattributed_frac"] = 1 - median(busy)
	r.layers["sim.setup.policy_ms"] = 1e3 * r.cal.scale(median(r.tr.durations("sim.setup.policy")))
}
