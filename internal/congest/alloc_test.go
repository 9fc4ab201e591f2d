//go:build !race

// Allocation-regression guards for the engine's pooled hot paths. The race
// runtime changes allocation behaviour, so these run only in the plain
// test pass (`make alloc-check`); the race pass covers the same code for
// correctness.
package congest

import (
	"math"
	"runtime"
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
	agg() // warm scheduler queues, member-sized state
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
// marks and the scheduler all run on pooled scratch, and children come
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
			func(t int, _, child int32, w Word) Word { return w - sub[t][child] },
			func(_ int, _ int32, w Word) { sink += w })
		if err != nil {
			t.Fatal(err)
		}
	}
	sweep() // warm scheduler queues, member-sized state, row list
	sweep()
	const budget = 1 // the returned roots only
	if a := testing.AllocsPerRun(10, sweep); a > budget {
		t.Fatalf("steady-state ConvergecastAll+DownSweepMany allocates %.1f per call, budget %d", a, budget)
	}
}

// TestTreeSweepAllocsIndependentOfN runs one ConvergecastAll + DownSweepMany
// pair over eight fixed overlapping two-row trees on a 10-wide grid of 100
// and of 1000 rows (n = 10³ and 10⁴). A sweep over a one-member tree first
// warms the network, which allocates the scheduler's per-directed-edge
// queues and counts; after that the pair may allocate only member-sized
// state, so its bytes must be equal on both hosts. The least of three
// fresh networks is taken, since the runtime's own allocations can only
// add to a measurement.
func TestTreeSweepAllocsIndependentOfN(t *testing.T) {
	pairBytes := func(rows int) float64 {
		g := graph.Grid(rows, 10)
		trees := make([]*graph.Tree, 8)
		for i := range trees {
			band := make([]graph.NodeID, 0, 20)
			for v := graph.GridID(10, i, 0); v < graph.GridID(10, i+2, 0); v++ {
				band = append(band, v)
			}
			trees[i] = graph.BFSTreeOfSubgraph(g, band, band[i])
		}
		val := func(t int, v graph.NodeID) Word { return Word(v % 5) }
		least := math.Inf(1)
		for trial := 0; trial < 3; trial++ {
			nw := NewNetwork(g, Options{Supported: true, Seed: 3})
			if _, err := nw.AggregateMany([]*graph.Tree{graph.BFSTreeOfSubgraph(g, []graph.NodeID{0}, 0)}, val, AggSum); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			roots, sub, err := nw.ConvergecastAll(trees, val, AggSum)
			if err != nil {
				t.Fatal(err)
			}
			err = nw.DownSweepMany(trees, roots,
				func(t int, _, child int32, w Word) Word { return w - sub[t][child] },
				func(int, int32, Word) {})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			least = min(least, float64(after.TotalAlloc-before.TotalAlloc))
		}
		return least
	}
	small, large := pairBytes(100), pairBytes(1000)
	t.Logf("sweep pair: %.0f bytes at n=1000, %.0f at n=10000", small, large)
	if small != large {
		t.Fatalf("sweep pair allocates %.0f bytes at n=1000 but %.0f at n=10000: some sweep state scales with the host",
			small, large)
	}
}
