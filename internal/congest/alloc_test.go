//go:build !race

// Allocation-regression guards for the engine's pooled hot paths. The race
// runtime changes allocation behaviour, so these run only in the plain
// test pass (`make alloc-check`); the race pass covers the same code for
// correctness.
package congest

import (
	"testing"

	"distlap/internal/graph"
)

// TestExchangeSteadyStateAllocs pins the Exchange fast path at zero
// steady-state allocations: after the first round warms the pooled delivery
// buffer, every further round runs entirely on reused scratch.
func TestExchangeSteadyStateAllocs(t *testing.T) {
	g := graph.Grid(12, 12)
	nw := NewNetwork(g, Options{Supported: true, Seed: 3})
	round := func() {
		nw.Exchange(
			func(v graph.NodeID, h graph.Half) (Word, bool) { return Word(v), true },
			func(v graph.NodeID, h graph.Half, w Word) {},
		)
	}
	round() // warm the pooled delivery buffer
	if a := testing.AllocsPerRun(10, round); a > 0 {
		t.Fatalf("steady-state Exchange allocates %.1f per round, want 0", a)
	}
}

// TestAggregateManySteadyStateAllocs pins the tree-aggregation pipeline
// (convergecast + broadcast over shared scheduler/state pools) at its
// documented steady-state budget: exactly the returned per-tree result
// slice, nothing per round or per member.
func TestAggregateManySteadyStateAllocs(t *testing.T) {
	g := graph.Grid(12, 12)
	nw := NewNetwork(g, Options{Supported: true, Seed: 3})
	tr := graph.BFSTree(g, 0)
	trees := []*graph.Tree{tr, tr, tr}
	val := func(t int, v graph.NodeID) Word { return Word(v % 5) }
	agg := func() {
		if _, err := nw.AggregateMany(trees, val, AggSum); err != nil {
			t.Fatal(err)
		}
	}
	agg() // warm scheduler queues, dense state, child index
	agg()
	const budget = 1 // the returned []Word only
	if a := testing.AllocsPerRun(10, agg); a > budget {
		t.Fatalf("steady-state AggregateMany allocates %.1f per call, budget %d", a, budget)
	}
}

// TestTreeSweepPairSteadyStateAllocs pins the sweep pair under a tree solve
// (core's TreeUpDown): ConvergecastAll, then a DownSweepMany whose
// transform reads the subtree aggregates. Steady state allocates exactly
// the returned roots slice; the subtree rows, their row list, the receipt
// stamps and the scheduler all run on pooled scratch, and children come
// from the trees' stored child indexes.
func TestTreeSweepPairSteadyStateAllocs(t *testing.T) {
	g := graph.Grid(12, 12)
	nw := NewNetwork(g, Options{Supported: true, Seed: 3})
	trees := []*graph.Tree{graph.BFSTree(g, 0), graph.BFSTree(g, 77), graph.BFSTreeOfSubgraph(g, []graph.NodeID{0, 1, 12, 13}, 13)}
	val := func(t int, v graph.NodeID) Word { return Word(v % 5) }
	var sink Word
	sweep := func() {
		roots, sub, err := nw.ConvergecastAll(trees, val, AggSum)
		if err != nil {
			t.Fatal(err)
		}
		err = nw.DownSweepMany(trees, roots,
			func(t int, _, child graph.NodeID, w Word) Word { return w - sub[t][child] },
			func(_ int, _ graph.NodeID, w Word) { sink += w })
		if err != nil {
			t.Fatal(err)
		}
	}
	sweep() // warm scheduler queues, dense state, row list
	sweep()
	const budget = 1 // the returned roots only
	if a := testing.AllocsPerRun(10, sweep); a > budget {
		t.Fatalf("steady-state ConvergecastAll+DownSweepMany allocates %.1f per call, budget %d", a, budget)
	}
}
