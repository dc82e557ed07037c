package bipartite

import (
	"fmt"

	"repro/internal/dag"
	"repro/internal/rng"
)

// Compose implements the theory's dag-composition operation: blocks are
// stacked so that sinks of earlier blocks are identified with sources of
// later ones. The resulting dags are exactly the "assembled in a
// uniform way" class the theoretical algorithm targets, which makes this
// the natural generator for exercising TheoreticalSchedule and the
// heuristic's gracefulness on meaningful inputs.
//
// blocks are composed in order: for consecutive blocks, min(#sinks of
// the accumulated dag, #sources of the next block) nodes are identified
// pairwise (sinks and sources taken in index order). Node names are
// made unique with a per-block prefix; an identified node keeps the
// earlier block's name.
func Compose(blocks []*dag.Frozen) (*dag.Frozen, error) {
	if len(blocks) == 0 {
		return dag.New().MustFreeze(), nil
	}
	out := dag.New()
	// copy the first block
	prefix := func(i int, name string) string { return fmt.Sprintf("b%d.%s", i, name) }
	ids := make(map[string]int)
	for v := 0; v < blocks[0].NumNodes(); v++ {
		ids[prefix(0, blocks[0].Name(v))] = out.AddNode(prefix(0, blocks[0].Name(v)))
	}
	for _, a := range blocks[0].Arcs() {
		out.MustAddArc(ids[prefix(0, blocks[0].Name(a.From))], ids[prefix(0, blocks[0].Name(a.To))])
	}
	for i := 1; i < len(blocks); i++ {
		b := blocks[i]
		sinks := out.Sinks()
		sources := b.Sources()
		k := len(sinks)
		if len(sources) < k {
			k = len(sources)
		}
		if k == 0 {
			return nil, fmt.Errorf("bipartite: block %d cannot attach (no sinks or no sources)", i)
		}
		// map the identified sources onto existing sinks; everything
		// else gets fresh nodes
		local := make([]int, b.NumNodes())
		for v := range local {
			local[v] = -1
		}
		for j := 0; j < k; j++ {
			local[sources[j]] = sinks[j]
		}
		for v := 0; v < b.NumNodes(); v++ {
			if local[v] == -1 {
				local[v] = out.AddNode(prefix(i, b.Name(v)))
			}
		}
		for _, a := range b.Arcs() {
			out.MustAddArc(local[a.From], local[a.To])
		}
	}
	f, err := out.Freeze()
	if err != nil {
		return nil, fmt.Errorf("bipartite: composition produced an invalid dag: %w", err)
	}
	return f, nil
}

// RandomBlock draws a random Fig. 2 building block with small
// parameters, for composition-based test generation.
func RandomBlock(r *rng.Source) *dag.Frozen {
	switch r.Intn(5) {
	case 0:
		return NewW(1+r.Intn(3), 2+r.Intn(3))
	case 1:
		return NewM(1+r.Intn(3), 2+r.Intn(3))
	case 2:
		return NewN(2 + r.Intn(4))
	case 3:
		return NewCycle(3 + r.Intn(3))
	default:
		return NewClique(1+r.Intn(3), 1+r.Intn(3))
	}
}

// RandomComposite builds a random composite dag from n random blocks.
func RandomComposite(r *rng.Source, n int) (*dag.Frozen, error) {
	blocks := make([]*dag.Frozen, n)
	for i := range blocks {
		blocks[i] = RandomBlock(r)
	}
	return Compose(blocks)
}
