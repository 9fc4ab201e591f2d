//go:build !race

// Allocation-regression guard for the steady-state PCG iteration. The race
// runtime changes allocation behaviour, so this runs only in the plain test
// pass (`make alloc-check`); the race pass covers the same code for
// correctness.
package core

import (
	"context"
	"runtime"
	"runtime/metrics"
	"slices"
	"testing"

	"distlap/internal/graph"
)

// iterAllocBudget bounds the marginal heap allocations of one steady-state
// PCG iteration on a prepared instance. The iteration's vectors (residual,
// search direction, reduction operands) and the engines' delivery/scheduler
// state are pooled, so what remains is the documented small fixed set: the
// preconditioner's output vector, the per-call result slices of the global
// reductions and tree primitives, and the variadic argument slices. ~18 on
// go1.x today; the budget leaves slack for toolchain drift, not for new
// per-iteration vectors — those belong in a pool.
const iterAllocBudget = 24

// TestPCGIterationAllocs measures the marginal allocations per PCG
// iteration by differencing two deterministic solves of different depths on
// one prepared instance (the fixed per-request cost — fresh engine, pools,
// result — cancels out).
func TestPCGIterationAllocs(t *testing.T) {
	g := graph.Grid(16, 16)
	in, err := PrepareInstance(context.Background(), g, PrepareConfig{Mode: ModeUniversal, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, g.N())
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	mean := 0.0
	for _, v := range b {
		mean += v
	}
	mean /= float64(len(b))
	for i := range b {
		b[i] -= mean
	}

	solve := func(tol float64) (float64, int) {
		var iters int
		allocs := testing.AllocsPerRun(3, func() {
			res, err := in.Solve(b, Request{Tol: tol, Seed: 99})
			if err != nil {
				t.Fatal(err)
			}
			iters = res.Iterations
		})
		return allocs, iters
	}
	shallowAllocs, shallowIters := solve(1e-4)
	deepAllocs, deepIters := solve(1e-10)
	if deepIters <= shallowIters {
		t.Fatalf("tolerance sweep did not separate iteration counts: %d vs %d", shallowIters, deepIters)
	}
	perIter := (deepAllocs - shallowAllocs) / float64(deepIters-shallowIters)
	t.Logf("allocs: %d iters -> %.0f, %d iters -> %.0f; marginal %.2f/iteration (budget %d)",
		shallowIters, shallowAllocs, deepIters, deepAllocs, perIter, iterAllocBudget)
	if perIter > iterAllocBudget {
		t.Fatalf("steady-state PCG iteration allocates %.2f, budget %d — new per-iteration state belongs in a pool",
			perIter, iterAllocBudget)
	}
}

// liveHeap forces a GC and returns the live heap it marked.
func liveHeap() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// TestSizeBytesTracksRetainedHeap holds the cache-budget estimate to the
// heap a prepared instance really retains: the live heap that building the
// graph and preparing it adds, around forced GCs, median of three runs.
func TestSizeBytesTracksRetainedHeap(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() *graph.Graph
	}{
		{"grid-50x50", func() *graph.Graph { return graph.Grid(50, 50) }},
		{"regular-1024", func() *graph.Graph { return graph.RandomRegular(1024, 4, 5) }},
	} {
		var estimate int64
		measured := make([]float64, 3)
		for i := range measured {
			before := liveHeap()
			in, err := PrepareInstance(context.Background(), tc.build(), PrepareConfig{Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			measured[i] = liveHeap() - before
			estimate = in.SizeBytes()
			runtime.KeepAlive(in)
		}
		slices.Sort(measured)
		ratio := float64(estimate) / measured[1]
		t.Logf("%s: SizeBytes %d, retained %.0f, ratio %.3f", tc.name, estimate, measured[1], ratio)
		if ratio < 0.95 || ratio > 1.05 {
			t.Errorf("%s: SizeBytes %d is off the retained heap %.0f by more than 5%% (ratio %.3f)",
				tc.name, estimate, measured[1], ratio)
		}
	}
}
