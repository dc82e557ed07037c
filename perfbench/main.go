// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload against the public functions of dagman, dag, decompose,
// core, sim and serve for a fixed time, checks every output, and
// prints its metrics as the last line of standard output:
//
//	perfbench --workload prio-sdss --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the line holds the end-to-end metrics, host-calibrated
// (see calib.go); with --trace 1 it holds the per-layer metrics from a
// traced run, and every span is written to .bench_build/ as JSON lines.
// --corrupt damages each op's output before its check, to show that
// the checks fail. README.md describes the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// setupReps is how many times a run sets the program up; setup_s is
// the median.
const setupReps = 5

// ledgerLimit is the largest share of a prio-sdss op the layer spans may
// leave unattributed before a traced run fails.
const ledgerLimit = 0.05

// run is one benchmark run: its settings and what it measured.
type run struct {
	seed    uint64
	seconds float64
	corrupt string
	tr      *tracer // nil unless tracing
	cal     *calibrator

	setup     []timed   // one per setup repetition
	ops       []timed   // one per timed op
	walls     []timed   // the timed wall time, in pieces that share a calibration
	tracedRaw []float64 // seconds per traced op (trace runs interleave traced and untraced ops)
	attempted int
	ok        int
	allocB    float64 // bytes allocated by the timed ops
	firstErr  string
	rss       *rssSampler
	peakRSS   float64            // MB, see rssSampler
	layers    map[string]float64 // per-layer metrics a workload computes itself
}

// timed is a raw duration in seconds and the index of the calibration
// sample taken just before it.
type timed struct {
	raw float64
	cal int
}

// timed stamps a raw duration with the latest calibration sample.
func (r *run) timed(raw float64) timed { return timed{raw, len(r.cal.samples) - 1} }

func raws(ts []timed) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = t.raw
	}
	return out
}

// record counts one checked op.
func (r *run) record(err error) {
	r.attempted++
	if err == nil {
		r.ok++
		return
	}
	if r.firstErr == "" {
		r.firstErr = err.Error()
	}
}

// startTimed ends the set-up and starts the timed phase: it hands the
// heap the set-up left behind back to the OS and starts sampling the
// resident set, so that peak_rss_mb follows the timed phase alone.
func (r *run) startTimed() time.Time {
	debug.FreeOSMemory()
	var err error
	if r.rss, err = startRSS(r.seconds); err != nil {
		fatalf("resident set size: %v", err)
	}
	return time.Now()
}

// timeUp reports whether the timed phase that began at start is over,
// and when it is, stops the resident-set sampler.
func (r *run) timeUp(start time.Time) bool {
	if time.Since(start).Seconds() < r.seconds {
		return false
	}
	r.peakRSS = r.rss.stop()
	return true
}

// layerMs is the median over ops of a layer's self time, in
// reference-host milliseconds, and of its allocations, in MB.
func (r *run) layerMs(name string, self []float64) (ms, allocMB float64) {
	secs, alloc := r.tr.perOp(name, self)
	return 1e3 * r.cal.scale(median(secs)), median(alloc) / (1 << 20)
}

type workload struct {
	name    string
	lanes   int // workers the workload keeps busy
	corrupt []string
	run     func(*run) error
}

var benchWorkloads = []workload{
	{"prio-sdss", 1, []string{"swap", "priority"}, runPrio},
	{"serve-inspiral", 2, []string{"swap", "priority"}, runServe},
	{"simgrid-sdss", 2, []string{"ratio"}, runSimgrid},
}

// The metric names, in output order.
var (
	endToEnd = []metricDef{
		{"setup_s", "s"}, {"ok_frac", "fraction"}, {"op_p50_ms", "ms"}, {"op_tail_ms", "ms"},
		{"ops_per_s", "1/s"}, {"alloc_mb_per_op", "MB"}, {"peak_rss_mb", "MB"},
	}
	perLayer = []metricDef{
		{"dagman.parse.ms", "ms"}, {"dagman.parse.alloc_mb", "MB"},
		{"dag.graph.ms", "ms"}, {"dag.graph.alloc_mb", "MB"},
		{"dag.reduce.ms", "ms"}, {"decompose.divide.ms", "ms"}, {"decompose.components", "count"},
		{"core.recurse_combine.ms", "ms"}, {"core.prioritize.alloc_mb", "MB"},
		{"dagman.instrument.ms", "ms"}, {"dagman.instrument.alloc_mb", "MB"},
		{"sim.kernel_fast.us_per_rep", "us"}, {"sim.kernel_ordered.us_per_rep", "us"},
		{"sim.kernel.alloc_b_per_rep", "B"}, {"sim.grid.busy_frac", "fraction"},
		{"sim.setup.policy_ms", "ms"},
		{"serve.handler.ms", "ms"}, {"serve.transport.ms", "ms"},
		{"serve.cache_hit_frac", "fraction"}, {"serve.shed", "count"}, {"serve.gc_per_op", "count"},
		{"ledger.unattributed_frac", "fraction"}, {"trace.overhead_frac", "fraction"},
		{"host.calib_ms", "ms"}, {"raw.op_p50_ms", "ms"}, {"raw.setup_s", "s"},
	}
)

type metricDef struct{ name, unit string }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: prio-sdss, serve-inspiral or simgrid-sdss")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	corrupt := flag.String("corrupt", "", "damage every op's output before its check (self-test)")
	flag.Parse()

	var w *workload
	for i := range benchWorkloads {
		if benchWorkloads[i].name == *name {
			w = &benchWorkloads[i]
		}
	}
	if w == nil {
		fatalf("unknown workload %q", *name)
	}
	if *corrupt != "" && !contains(w.corrupt, *corrupt) {
		fatalf("workload %s has no corruption %q (have %s)", w.name, *corrupt, strings.Join(w.corrupt, ", "))
	}
	if *seconds <= 0 {
		fatalf("--seconds must be positive")
	}

	r := &run{seed: *seed, seconds: *seconds, corrupt: *corrupt, layers: map[string]float64{}}
	if *trace == 1 {
		r.tr = newTracer()
	}
	r.cal = newCalibrator(w.lanes)
	err := w.run(r)
	r.cal.sample() // the last op's calibration sample after it
	r.cal.stop()
	if err != nil {
		fatalf("%s: %v", w.name, err)
	}
	if r.attempted == 0 {
		fatalf("%s: no op completed in %v s", w.name, *seconds)
	}

	res := result{
		Correct:   r.ok == r.attempted,
		Attempted: r.attempted,
		Failed:    r.attempted - r.ok,
		Metrics:   map[string]metric{},
	}
	out := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(out, "# corruptions: %s\n", strings.Join(w.corrupt, " "))
	if r.firstErr != "" {
		fmt.Fprintf(out, "# first failed check: %s\n", r.firstErr)
	}
	opRaw := raws(r.ops)
	windows, size := tailWindows(len(opRaw))
	tailAt := tailIndex(size)
	fmt.Fprintf(out, "# op_tail_ms is p%.1f of %d samples, median over %d consecutive windows of %d ops; calibration median %.3f ms over %d samples\n",
		100*float64(tailAt+1)/float64(size), size, windows, size, r.cal.medianMs(), len(r.cal.samples))

	raw := map[string]float64{
		"setup_s":    median(raws(r.setup)),
		"op_p50_ms":  1e3 * median(opRaw),
		"op_tail_ms": 1e3 * tail(opRaw),
		"ops_per_s":  float64(r.ok) / sum(raws(r.walls)),
		"calib_ms":   r.cal.medianMs(),
	}
	if r.tr == nil {
		ops := r.cal.local(r.ops)
		cal := map[string]float64{
			"setup_s":         median(r.cal.local(r.setup)),
			"ok_frac":         float64(r.ok) / float64(r.attempted),
			"op_p50_ms":       1e3 * median(ops),
			"op_tail_ms":      1e3 * tail(ops),
			"ops_per_s":       float64(r.ok) / sum(r.cal.local(r.walls)),
			"alloc_mb_per_op": r.allocB / float64(r.attempted) / (1 << 20),
			"peak_rss_mb":     r.peakRSS,
		}
		rawJSON, _ := json.Marshal(raw)
		fmt.Fprintf(out, "# raw %s\n", rawJSON)
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{cal[m.name], m.unit}
		}
	} else {
		path := fmt.Sprintf(".bench_build/spans-%s-%d.jsonl", w.name, *seed)
		if err := r.tr.dump(path); err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(out, "# %d spans written to %s\n", len(r.tr.spans), path)
		r.layers["host.calib_ms"] = raw["calib_ms"]
		r.layers["raw.op_p50_ms"] = raw["op_p50_ms"]
		r.layers["raw.setup_s"] = raw["setup_s"]
		if len(r.tracedRaw) > 0 {
			r.layers["trace.overhead_frac"] = median(r.tracedRaw)/median(opRaw) - 1
		}
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{r.layers[m.name], m.unit}
		}
		if u := r.layers["ledger.unattributed_frac"]; w.name == "prio-sdss" && !(u <= ledgerLimit) {
			fmt.Fprintf(out, "# ledger check failed: %.4f of the op is unattributed (limit %.2f)\n", u, ledgerLimit)
			res.Correct = false
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(out, "%s\n", line)
	if err := out.Flush(); err != nil {
		fatalf("%v", err)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if x == y {
			return true
		}
	}
	return false
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// tailWindow is the fewest ops a window of op_tail_ms holds, and
// maxTailWindows the most windows a run is cut into.
const (
	tailWindow     = 200
	maxTailWindows = 5
)

// tailWindows says how many consecutive windows, and of how many ops
// each, op_tail_ms cuts n ops into; ops past the last window are left
// out.
func tailWindows(n int) (windows, size int) {
	windows = max(1, min(maxTailWindows, n/tailWindow))
	return windows, n / windows
}

// tailIndex is the index, among n sorted samples, of the highest one
// with at least ten samples beyond it (the largest when n < 11).
func tailIndex(n int) int {
	if n < 11 {
		return n - 1
	}
	return n - 11
}

// tail is the median, over consecutive windows of ops, of each
// window's sample at tailIndex. One burst of host noise then moves one
// window's tail, not the run's.
func tail(xs []float64) float64 {
	windows, size := tailWindows(len(xs))
	tails := make([]float64, windows)
	for k := range tails {
		s := append([]float64(nil), xs[k*size:(k+1)*size]...)
		sort.Float64s(s)
		tails[k] = s[tailIndex(size)]
	}
	return median(tails)
}
