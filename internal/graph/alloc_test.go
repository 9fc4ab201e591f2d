//go:build !race

// Allocation budgets for BFS over a part. The race runtime changes
// allocation behaviour, so these run only in the plain test pass (`make
// alloc-check`).
package graph

import (
	"math"
	"runtime"
	"testing"
)

// allocBytes returns the heap bytes one call of f allocates: the mean over
// runs calls after one warm-up call, the least of three such batches, since
// the runtime's own allocations can only add to a batch.
func allocBytes(runs int, f func()) float64 {
	f()
	least := math.Inf(1)
	for batch := 0; batch < 3; batch++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		least = min(least, float64(after.TotalAlloc-before.TotalAlloc)/float64(runs))
	}
	return least
}

// TestBFSTreeOfSubgraphAllocs holds the BFS tree of a 16-node part of a
// 10⁴-node host to the returned tree's three n-long arrays plus
// member-sized storage: no n- or m-sized scratch.
func TestBFSTreeOfSubgraphAllocs(t *testing.T) {
	g, part := Grid(100, 100), blockPart()
	treeArrays := allocBytes(20, func() { unrootedArrays(g.N()) })
	got := allocBytes(20, func() { BFSTreeOfSubgraph(g, part, part[5]) })
	const perMember = 128
	budget := treeArrays + perMember*float64(len(part))
	t.Logf("BFSTreeOfSubgraph: %.0f bytes; tree arrays %.0f, budget %.0f", got, treeArrays, budget)
	if got > budget {
		t.Fatalf("BFSTreeOfSubgraph of a %d-node part on n=%d allocates %.0f bytes, budget %.0f (tree arrays %.0f + %d/member)",
			len(part), g.N(), got, budget, treeArrays, perMember)
	}
}
