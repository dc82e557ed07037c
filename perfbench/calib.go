package main

import (
	"runtime"
	"slices"
	"sync"
	"time"
)

// Host calibration. A shared host drifts: the same op, unchanged, read
// 319–451 ms raw over six runs while its ratio to a fixed loop run in
// the same process stayed within 1.73–1.91. So every timing the
// benchmark gates is divided by this loop's time measured around it
// (local) and rescaled by refCalibMs, the loop's median on the
// reference host, which makes the figures read as milliseconds on that
// host; the per-layer figures use the run's median sample (scale).
//
// The loop allocates nothing, so the program's garbage and concurrent
// GC are never charged to it, and it runs only with no op in flight,
// right after a forced GC. It copies a fixed array of random int32s and
// sorts the copy (pattern-defeating quicksort: unpredictable branches
// over a cache-resident working set, like parsing and graph code). Of
// seven loops tried against the prio-sdss op over five 30-s processes
// whose raw op p50 spread 15.2% (IQR / median), this one's op/loop
// ratio spread least, 1.9%; a streaming sum spread 4.4%, a Go map
// 6.0%, token hashing into an 8 MiB table 7.2%, dependent arithmetic
// 9.0% and a pointer chase 15.4%.

// refCalibMs is the loop's median on the reference host (2 vCPUs,
// shared), one entry per lane count.
var refCalibMs = [3]float64{0, 30.0, 32.0}

const (
	calibLen    = 1 << 17 // int32s per lane (512 KiB)
	calibPasses = 2       // copy-and-sort passes per sample
)

// lane is one goroutine's share of the loop.
type lane struct {
	tmpl, work []int32
}

// calibrator runs the loop on `lanes` goroutines at once, one per
// worker the workload keeps busy, so the loop sees the same share of
// the host the ops do.
type calibrator struct {
	lanes   []*lane
	start   []chan struct{}
	done    chan uint64
	wg      sync.WaitGroup
	samples []float64 // seconds
	sink    uint64
}

func newCalibrator(lanes int) *calibrator {
	c := &calibrator{done: make(chan uint64, lanes)}
	x := uint64(0x9E3779B97F4A7C15)
	for l := 0; l < lanes; l++ {
		ln := &lane{tmpl: make([]int32, calibLen), work: make([]int32, calibLen)}
		for i := range ln.tmpl {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			ln.tmpl[i] = int32(x)
		}
		c.lanes = append(c.lanes, ln)
	}
	// Lane 0 runs on the calling goroutine; the others are parked
	// workers, so a sample starts no goroutine and allocates nothing.
	for l := 1; l < lanes; l++ {
		ch := make(chan struct{})
		c.start = append(c.start, ch)
		c.wg.Add(1)
		go func(ln *lane, ch chan struct{}) {
			defer c.wg.Done()
			for range ch {
				c.done <- ln.run()
			}
		}(c.lanes[l], ch)
	}
	return c
}

// sample forces a GC, then times one pass of the loop on every lane.
func (c *calibrator) sample() {
	runtime.GC()
	t := time.Now()
	for _, ch := range c.start {
		ch <- struct{}{}
	}
	s := c.lanes[0].run()
	for range c.start {
		s ^= <-c.done
	}
	c.samples = append(c.samples, time.Since(t).Seconds())
	c.sink ^= s
}

// stop ends the worker goroutines and waits for them.
func (c *calibrator) stop() {
	for _, ch := range c.start {
		close(ch)
	}
	c.wg.Wait()
}

// medianMs is the in-process calibration median in milliseconds.
func (c *calibrator) medianMs() float64 { return 1e3 * median(c.samples) }

// scale converts a raw duration to reference-host units by the run's
// median calibration sample.
func (c *calibrator) scale(raw float64) float64 {
	return raw * refCalibMs[len(c.lanes)] / c.medianMs()
}

// local converts raw durations to reference-host units, each by the
// mean of the calibration samples taken just before and just after
// it, so that host drift within the run cancels as well.
func (c *calibrator) local(ts []timed) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		s := c.samples[t.cal]
		if t.cal+1 < len(c.samples) {
			s = (s + c.samples[t.cal+1]) / 2
		}
		out[i] = t.raw * refCalibMs[len(c.lanes)] / (1e3 * s)
	}
	return out
}

// run is one sample's work on one lane; it returns a value that
// depends on the sorted data, so the work cannot be elided.
func (ln *lane) run() uint64 {
	var sum uint64
	for p := 0; p < calibPasses; p++ {
		copy(ln.work, ln.tmpl)
		slices.Sort(ln.work)
		sum += uint64(ln.work[len(ln.work)/2])
	}
	return sum
}
