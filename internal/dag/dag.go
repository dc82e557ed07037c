// Package dag implements the directed-acyclic-graph substrate of the
// scheduler. A graph holds the jobs of a computation and their
// dependencies: an arc u -> v means job v cannot start until job u has
// completed (u is a parent of v, v a child of u), exactly the model of
// Section 2.1 of the paper.
//
// The package splits construction from analysis. A Builder is mutable
// and grows incrementally with AddNode/AddArc; Freeze validates
// acyclicity once and produces a Frozen — an immutable compressed-
// sparse-row view with forward and backward adjacency packed into one
// shared arc arena, interned job names, and precomputed indegrees and
// topological order. Every Frozen built from an arc list, by Freeze or
// by a parser holding its own name table, goes through FromArcs, which
// keeps a repeated arc once. Every analysis pass (transitive reduction,
// decomposition, scheduling, simulation) consumes the Frozen form, so
// the whole pipeline shares a single allocation-lean representation.
// Nodes are dense integer indices in insertion order; every node also
// carries a name so that DAGMan files round-trip.
package dag

import "fmt"

// Arc is a directed edge of the graph.
type Arc struct{ From, To int }

// Builder accumulates nodes and arcs for a graph under construction.
// It is the only mutable graph form; call Freeze (or MustFreeze) to
// obtain the immutable Frozen view the analysis passes consume.
type Builder struct {
	names   []string
	index   map[string]int
	arcFrom []int32 // arc i runs arcFrom[i] -> arcTo[i], insertion order
	arcTo   []int32
	outdeg  []int32
}

// New returns an empty builder.
func New() *Builder {
	return &Builder{index: make(map[string]int)}
}

// NewWithCapacity returns an empty builder with room preallocated for n
// nodes.
func NewWithCapacity(n int) *Builder {
	return &Builder{
		names:  make([]string, 0, n),
		index:  make(map[string]int, n),
		outdeg: make([]int32, 0, n),
	}
}

// AddNode adds a node with the given name and returns its index. Names
// must be unique; adding a duplicate name returns the existing index.
func (b *Builder) AddNode(name string) int {
	if i, ok := b.index[name]; ok {
		return i
	}
	i := len(b.names)
	b.names = append(b.names, name)
	b.index[name] = i
	b.outdeg = append(b.outdeg, 0)
	return i
}

// AddArc adds the dependency u -> v. It panics on out-of-range indices and
// returns an error for self-loops. Adding an arc again is harmless: Freeze
// keeps its first occurrence.
func (b *Builder) AddArc(u, v int) error {
	b.checkNode(u)
	b.checkNode(v)
	if u == v {
		return fmt.Errorf("dag: self-loop on node %d (%s)", u, b.names[u])
	}
	b.arcFrom = append(b.arcFrom, int32(u))
	b.arcTo = append(b.arcTo, int32(v))
	b.outdeg[u]++
	return nil
}

// MustAddArc is AddArc for construction code where a self-loop is a bug.
func (b *Builder) MustAddArc(u, v int) {
	if err := b.AddArc(u, v); err != nil {
		panic(err)
	}
}

func (b *Builder) checkNode(v int) {
	if v < 0 || v >= len(b.names) {
		panic(fmt.Sprintf("dag: node %d out of range [0,%d)", v, len(b.names)))
	}
}

// NumNodes returns the number of nodes added so far.
func (b *Builder) NumNodes() int { return len(b.names) }

// Name returns the name of node v.
func (b *Builder) Name(v int) string {
	b.checkNode(v)
	return b.names[v]
}

// IndexOf returns the index of the node with the given name, or -1.
func (b *Builder) IndexOf(name string) int {
	if i, ok := b.index[name]; ok {
		return i
	}
	return -1
}

// Sinks returns the nodes with no outgoing arcs so far, in index order.
// Composition generators use this to attach the next block mid-build.
func (b *Builder) Sinks() []int {
	var out []int
	for v, d := range b.outdeg {
		if d == 0 {
			out = append(out, v)
		}
	}
	return out
}

// Freeze validates acyclicity and converts the accumulated nodes and
// arcs into the immutable CSR form (see FromArcs): Children(u) lists v
// in the order AddArc(u, v) was first called, a repeated arc is kept
// once, and Parents(v) lists its parents in ascending index order. The
// builder may be discarded (or kept growing toward a later, separate
// Freeze) afterwards; the Frozen shares nothing mutable with it.
func (b *Builder) Freeze() (*Frozen, error) {
	n := len(b.names)
	return FromArcs(b.names[:n:n], b.index, b.arcFrom, b.arcTo)
}

// MustFreeze is Freeze for construction code where a cycle is a bug.
func (b *Builder) MustFreeze() *Frozen {
	f, err := b.Freeze()
	if err != nil {
		panic(err)
	}
	return f
}
