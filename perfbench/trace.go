package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// tracer records spans around the benchmark's calls into each layer.
// Spans stay in memory until the run ends; dump writes them out as
// JSON lines. A nil *tracer records nothing, so the untraced path
// pays one nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	// AllocB is the bytes allocated process-wide while the span was
	// open, recorded only for spans opened with beginAlloc, which is
	// used only where nothing else runs concurrently.
	AllocB int64 `json:"alloc_b,omitempty"`
	alloc  bool
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14)}
}

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, op int64, parent int) int {
	return t.open(name, op, parent, false)
}

// beginAlloc is begin, also recording the bytes allocated in the span.
func (t *tracer) beginAlloc(name string, op int64, parent int) int {
	return t.open(name, op, parent, true)
}

func (t *tracer) open(name string, op int64, parent int, alloc bool) int {
	if t == nil {
		return -1
	}
	var a int64
	if alloc {
		a = totalAlloc()
	}
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, AllocB: a, alloc: alloc, Start: int64(time.Since(t.t0))})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	alloc := t.spans[id].alloc
	t.mu.Unlock()
	var a int64
	if alloc {
		a = totalAlloc()
	}
	t.mu.Lock()
	s := &t.spans[id]
	s.End = now
	if alloc {
		s.AllocB = a - s.AllocB
	}
	t.mu.Unlock()
}

// durations returns the length in seconds of every span named name.
func (t *tracer) durations(name string) []float64 {
	var d []float64
	for _, s := range t.spans {
		if s.Name == name {
			d = append(d, float64(s.End-s.Start)/1e9)
		}
	}
	return d
}

func totalAlloc() int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.TotalAlloc)
}

// selfTimes returns each span's duration minus the part of it that
// its children cover, in seconds, indexed by span id.
func (t *tracer) selfTimes() []float64 {
	kids := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]float64, len(t.spans))
	for i, s := range t.spans {
		cs := kids[i]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		covered, reach := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = float64(s.End-s.Start-covered) / 1e9
	}
	return self
}

// perOp sums the self time (seconds) and allocated bytes of every span
// named name within each op, and returns one value per op that has
// such a span, in op order.
func (t *tracer) perOp(name string, self []float64) (secs, allocB []float64) {
	type acc struct {
		s float64
		a int64
	}
	by := make(map[int64]*acc)
	var ops []int64
	for i, s := range t.spans {
		if s.Name != name {
			continue
		}
		a := by[s.Op]
		if a == nil {
			a = &acc{}
			by[s.Op] = a
			ops = append(ops, s.Op)
		}
		a.s += self[i]
		a.a += s.AllocB
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	for _, op := range ops {
		secs = append(secs, by[op].s)
		allocB = append(allocB, float64(by[op].a))
	}
	return secs, allocB
}

// unattributed is the median, over root spans named root, of the share
// of the span no child span covers: 1 − Σ layer self time / op.
func (t *tracer) unattributed(root string, self []float64) float64 {
	var fr []float64
	for i, s := range t.spans {
		if s.Name == root && s.End > s.Start {
			fr = append(fr, self[i]*1e9/float64(s.End-s.Start))
		}
	}
	return median(fr)
}

// dump writes one JSON line per span to path.
func (t *tracer) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
