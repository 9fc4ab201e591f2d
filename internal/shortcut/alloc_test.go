//go:build !race

// Allocation budget for certificate checking. The race runtime changes
// allocation behaviour, so this runs only in the plain test pass (`make
// alloc-check`).
package shortcut

import (
	"math"
	"runtime"
	"testing"

	"distlap/internal/graph"
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

// TestVerifyAllocsIndependentOfN verifies one fixed shortcut on a 10-wide
// grid of 100 and of 1000 rows (n = 10³ and 10⁴): four row parts, each
// with one vertical extra edge into the next row. The parts and their
// neighborhoods are identical on both hosts, so every byte Verify
// allocates must be too; only part-sized work is allowed.
func TestVerifyAllocsIndependentOfN(t *testing.T) {
	verifyBytes := func(rows int) float64 {
		g := graph.Grid(rows, 10)
		s := &Shortcut{Parts: gridRows(4, 10), Extra: make([][]graph.EdgeID, 4)}
		for r := range s.Extra {
			u, v := graph.GridID(10, r, 3), graph.GridID(10, r+1, 3)
			for _, h := range g.Neighbors(u) {
				if h.To == v {
					s.Extra[r] = []graph.EdgeID{h.Edge}
				}
			}
		}
		return allocBytes(20, func() {
			if err := Verify(g, s); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := verifyBytes(100), verifyBytes(1000)
	t.Logf("Verify: %.0f bytes at n=1000, %.0f at n=10000", small, large)
	if small != large {
		t.Fatalf("Verify allocates %.0f bytes at n=1000 but %.0f at n=10000: some scratch scales with the host",
			small, large)
	}
}
