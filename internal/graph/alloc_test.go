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

// TestBFSTreeOfSubgraphAllocs holds the BFS tree of a 16-node part to
// member-sized storage: the same bytes on a 10³-node and a 10⁴-node host,
// within a per-member budget, so no allocation scales with the host.
func TestBFSTreeOfSubgraphAllocs(t *testing.T) {
	part := blockPart()
	treeBytes := func(rows int) float64 {
		g := Grid(rows, 100)
		return allocBytes(20, func() { BFSTreeOfSubgraph(g, part, part[5]) })
	}
	small, large := treeBytes(10), treeBytes(100)
	const perMember = 128
	budget := float64(perMember * len(part))
	t.Logf("BFSTreeOfSubgraph: %.0f bytes at n=1000, %.0f at n=10000; budget %.0f", small, large, budget)
	if small != large {
		t.Fatalf("BFSTreeOfSubgraph allocates %.0f bytes at n=1000 but %.0f at n=10000: some storage scales with the host",
			small, large)
	}
	if large > budget {
		t.Fatalf("BFSTreeOfSubgraph of a %d-node part allocates %.0f bytes, budget %.0f (%d/member)",
			len(part), large, budget, perMember)
	}
}
