package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dagman"
	"repro/internal/decompose"
	"repro/internal/workloads"
)

// prio-sdss: one op is the in-process cmd/prio path on the paper SDSS
// DAGMan text — Parse, Graph, PrioritizeOpts with the CLI defaults
// (sequential, no cache), Instrument — with one client.

// prioOut is what one op produces.
type prioOut struct {
	g     *dag.Frozen
	sched *core.Schedule
	text  string
}

// prioOp runs the cmd/prio pipeline on text, recording a span around
// each layer when tr is non-nil.
func prioOp(text string, tr *tracer, op int64) (prioOut, error) {
	root := tr.begin("op", op, -1)
	defer tr.end(root)
	s := tr.beginAlloc("dagman.parse", op, root)
	f, err := dagman.Parse(strings.NewReader(text))
	tr.end(s)
	if err != nil {
		return prioOut{}, err
	}
	s = tr.beginAlloc("dag.graph", op, root)
	g, err := f.Graph()
	tr.end(s)
	if err != nil {
		return prioOut{}, err
	}
	s = tr.beginAlloc("core.prioritize", op, root)
	sched := core.PrioritizeOpts(g, core.Options{Parallel: 1})
	tr.end(s)
	priorities := make(map[string]int, g.NumNodes())
	for v := 0; v < g.NumNodes(); v++ {
		priorities[g.Name(v)] = sched.Priority[v]
	}
	s = tr.beginAlloc("dagman.instrument", op, root)
	out := f.Instrument(priorities)
	tr.end(s)
	return prioOut{g, sched, out}, nil
}

// prioRef is the independent reference: core.Prioritize on the graph
// the workloads generator builds, keyed by job name.
type prioRef struct {
	order []string
	prio  map[string]int
}

func newPrioRef(g *dag.Frozen) prioRef {
	s := core.Prioritize(g)
	ref := prioRef{prio: make(map[string]int, g.NumNodes())}
	for _, v := range s.Order {
		ref.order = append(ref.order, g.Name(v))
	}
	for v := 0; v < g.NumNodes(); v++ {
		ref.prio[g.Name(v)] = s.Priority[v]
	}
	return ref
}

// check verifies one op's output: the order respects every dependency
// of the parsed graph, matches the reference by name, and the
// instrumented text carries the reference priority for every job.
func (ref prioRef) check(o prioOut) error {
	if err := core.ValidateExecutionOrder(o.g, o.sched.Order); err != nil {
		return fmt.Errorf("invalid execution order: %v", err)
	}
	if len(o.sched.Order) != len(ref.order) {
		return fmt.Errorf("order has %d jobs, want %d", len(o.sched.Order), len(ref.order))
	}
	for i, v := range o.sched.Order {
		if o.g.Name(v) != ref.order[i] {
			return fmt.Errorf("order[%d] = %s, reference has %s", i, o.g.Name(v), ref.order[i])
		}
	}
	got, err := scanPriorities(o.text)
	if err != nil {
		return err
	}
	if len(got) != len(ref.prio) {
		return fmt.Errorf("text carries %d priorities, want %d", len(got), len(ref.prio))
	}
	for name, p := range ref.prio {
		if got[name] != p {
			return fmt.Errorf("job %s has priority %d in the text, reference %d", name, got[name], p)
		}
	}
	return nil
}

// scanPriorities reads every `VARS <job> jobpriority="<n>"` line of an
// instrumented DAGMan text with its own scanner, independent of the
// dagman parser under test.
func scanPriorities(text string) (map[string]int, error) {
	out := make(map[string]int)
	for len(text) > 0 {
		var line string
		line, text, _ = strings.Cut(text, "\n")
		f := strings.Fields(line)
		if len(f) != 3 || !strings.EqualFold(f[0], "VARS") || !strings.HasPrefix(f[2], `jobpriority="`) {
			continue
		}
		v, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(f[2], `jobpriority="`), `"`))
		if err != nil {
			return nil, fmt.Errorf("bad priority line %q", line)
		}
		if _, dup := out[f[1]]; dup {
			return nil, fmt.Errorf("job %s has two priority lines", f[1])
		}
		out[f[1]] = v
	}
	return out, nil
}

// corruptPrio damages an op's output for the self-test: "swap" swaps
// the first scheduled job that has a child with that child; "priority"
// changes the first job priority written into the text.
func corruptPrio(kind string, o *prioOut) {
	switch kind {
	case "swap":
		o.sched.Order = swapDependent(o.g, o.sched.Order)
	case "priority":
		o.text = bumpFirstPriority(o.text)
	}
}

// swapDependent returns order with the first job that has a child
// swapped against that child.
func swapDependent(g *dag.Frozen, order []int) []int {
	pos := make([]int, g.NumNodes())
	for i, v := range order {
		pos[v] = i
	}
	out := append([]int(nil), order...)
	for i, v := range out {
		if kids := g.Children(v); len(kids) > 0 {
			j := pos[kids[0]]
			out[i], out[j] = out[j], out[i]
			return out
		}
	}
	return out
}

// bumpFirstPriority adds one to the first jobpriority value in text.
func bumpFirstPriority(text string) string {
	const key = `jobpriority="`
	i := strings.Index(text, key)
	if i < 0 {
		return text + "\n"
	}
	i += len(key)
	j := i + strings.IndexByte(text[i:], '"')
	n, _ := strconv.Atoi(text[i:j])
	return text[:i] + strconv.Itoa(n+1) + text[j:]
}

func runPrio(r *run) error {
	g := workloads.PaperSDSS()
	text := dagman.FromGraph(g, nil).String()
	ref := newPrioRef(g)

	// Setup: the cold first op a one-shot prio user pays on every call.
	// Each repetition first hands the heap back to the OS, so the op
	// faults its memory in again as a fresh process would.
	for i := 0; i < setupReps; i++ {
		debug.FreeOSMemory()
		r.cal.sample()
		t := time.Now()
		o, err := prioOp(text, nil, -1)
		r.setup = append(r.setup, r.timed(time.Since(t).Seconds()))
		if err != nil {
			return err
		}
		if err := ref.check(o); err != nil {
			return fmt.Errorf("cold op: %v", err)
		}
	}

	// A traced run alternates traced and untraced ops; the untraced
	// ones give raw.op_p50_ms and, against the traced ones, the
	// tracing overhead.
	start := r.startTimed()
	var ms runtime.MemStats
	for id := int64(0); !r.timeUp(start); id++ {
		r.cal.sample()
		tr := r.tr
		if id%2 == 0 {
			tr = nil
		}
		runtime.ReadMemStats(&ms)
		a0 := ms.TotalAlloc
		t := time.Now()
		o, err := prioOp(text, tr, id)
		d := time.Since(t).Seconds()
		runtime.ReadMemStats(&ms)
		r.walls = append(r.walls, r.timed(d))
		if tr == nil {
			r.ops = append(r.ops, r.timed(d))
			r.allocB += float64(ms.TotalAlloc - a0)
		} else {
			r.tracedRaw = append(r.tracedRaw, d)
		}
		if err == nil {
			if r.corrupt != "" {
				corruptPrio(r.corrupt, &o)
			}
			err = ref.check(o)
		}
		r.record(err)
		if tr != nil && err == nil {
			r.layers["decompose.components"] = float64(probeDivide(tr, id, o.g))
		}
	}
	if r.tr != nil {
		self, _ := pipelineLayers(r)
		r.layers["ledger.unattributed_frac"] = r.tr.unattributed("op", self)
	}
	return nil
}

// probeDivide times the Divide layer on an op's graph, outside the
// op: Frozen.TransitiveReduction alone, then decompose.Decompose
// (which includes the reduction). core.recurse_combine is the op's
// prioritize span minus this divide span.
func probeDivide(tr *tracer, op int64, g *dag.Frozen) int {
	s := tr.begin("dag.reduce", op, -1)
	g.TransitiveReduction()
	tr.end(s)
	s = tr.begin("decompose.divide", op, -1)
	d := decompose.Decompose(g)
	tr.end(s)
	return len(d.Components)
}

// pipelineLayers sets the per-layer metrics of the prio pipeline —
// parse, graph, reduce, divide, prioritize, instrument — from the
// traced spans, and returns the spans' self times and the prioritize
// layer's time in reference-host milliseconds.
func pipelineLayers(r *run) (self []float64, prioT float64) {
	self = r.tr.selfTimes()
	for _, l := range []string{"dagman.parse", "dag.graph", "dagman.instrument"} {
		r.layers[l+".ms"], r.layers[l+".alloc_mb"] = r.layerMs(l, self)
	}
	prioT, r.layers["core.prioritize.alloc_mb"] = r.layerMs("core.prioritize", self)
	r.layers["dag.reduce.ms"], _ = r.layerMs("dag.reduce", self)
	divide, _ := r.layerMs("decompose.divide", self)
	r.layers["decompose.divide.ms"] = divide
	r.layers["core.recurse_combine.ms"] = prioT - divide
	return self, prioT
}
