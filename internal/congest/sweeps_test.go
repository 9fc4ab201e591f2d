package congest

import (
	"math"
	"testing"
	"testing/quick"

	"distlap/internal/graph"
)

func TestFloatWordRoundtrip(t *testing.T) {
	for _, f := range []float64{0, -0.0, 1.5, -math.Pi, 1e-308, 1e308, math.Inf(1)} {
		got := WordFloat(FloatWord(f))
		if got != f && !(math.IsNaN(got) && math.IsNaN(f)) {
			t.Fatalf("%v -> %v", f, got)
		}
	}
	if !math.IsNaN(WordFloat(FloatWord(math.NaN()))) {
		t.Fatal("NaN roundtrip")
	}
}

func TestConvergecastAllSubtreeSums(t *testing.T) {
	// Path rooted at 0: subtree of node v is {v, ..., n-1}.
	g := graph.Path(6)
	nw := newNet(g)
	tr := graph.BFSTree(g, 0)
	roots, sub, err := nw.ConvergecastAll([]*graph.Tree{tr},
		func(_ int, v graph.NodeID) Word { return 1 }, AggSum)
	if err != nil {
		t.Fatal(err)
	}
	if roots[0] != 6 {
		t.Fatalf("root sum=%d", roots[0])
	}
	if len(sub[0]) != 6 {
		t.Fatalf("subtree row has %d entries, want 6", len(sub[0]))
	}
	for i, v := range tr.Members {
		if sub[0][i] != Word(6-v) {
			t.Fatalf("subtree of node %d=%d, want %d", v, sub[0][i], 6-v)
		}
	}
}

func TestConvergecastAllMultipleOverlappingTrees(t *testing.T) {
	g := graph.Grid(3, 3)
	nw := newNet(g)
	trees := []*graph.Tree{graph.BFSTree(g, 0), graph.BFSTree(g, 8)}
	roots, sub, err := nw.ConvergecastAll(trees,
		func(t int, v graph.NodeID) Word { return Word(v) }, AggSum)
	if err != nil {
		t.Fatal(err)
	}
	if roots[0] != 36 || roots[1] != 36 {
		t.Fatalf("roots=%v", roots)
	}
	if len(sub[0]) != 9 || len(sub[1]) != 9 {
		t.Fatal("incomplete subtree maps")
	}
}

func TestDownSweepManyPrefixTransform(t *testing.T) {
	// Depth computation via transform: child value = parent value + 1.
	g := graph.Grid(3, 4)
	nw := newNet(g)
	tr := graph.BFSTree(g, 0)
	depths := make(map[graph.NodeID]Word)
	err := nw.DownSweepMany([]*graph.Tree{tr}, []Word{0},
		func(_ int, _, _ int32, parentVal Word) Word { return parentVal + 1 },
		func(_ int, i int32, w Word) { depths[tr.Members[i]] = w })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range tr.Members {
		if depths[v] != Word(tr.Depth[i]) {
			t.Fatalf("depth[%d]=%d, want %d", v, depths[v], tr.Depth[i])
		}
	}
	if nw.Rounds() != tr.Height() {
		t.Fatalf("rounds=%d, want height %d", nw.Rounds(), tr.Height())
	}
}

func TestDownSweepManyErrors(t *testing.T) {
	nw := newNet(graph.Path(2))
	if err := nw.DownSweepMany(nil, nil, nil, nil); err == nil {
		t.Fatal("want no-trees error")
	}
	tr := graph.BFSTree(nw.Graph(), 0)
	if err := nw.DownSweepMany([]*graph.Tree{tr}, nil,
		func(int, int32, int32, Word) Word { return 0 },
		func(int, int32, Word) {}); err == nil {
		t.Fatal("want root-value mismatch error")
	}
}

func TestConvergecastAllNoTrees(t *testing.T) {
	nw := newNet(graph.Path(2))
	if _, _, err := nw.ConvergecastAll(nil, nil, AggSum); err == nil {
		t.Fatal("want no-trees error")
	}
}

// Property: tree-Laplacian solve via ConvergecastAll + DownSweepMany
// satisfies L_T y = r on random trees (the preconditioner identity used by
// internal/core).
func TestTreeSolveIdentityProperty(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		n := int(nn%20) + 3
		g := graph.RandomConnected(n, 0, 5, seed) // a random weighted tree
		nw := NewNetwork(g, Options{Seed: seed})
		tr := graph.BFSTree(g, 0)
		// Mean-zero residual.
		r := make([]float64, n)
		for v := range r {
			r[v] = float64((v*7)%5) - 2
		}
		mean := 0.0
		for _, x := range r {
			mean += x
		}
		mean /= float64(n)
		for v := range r {
			r[v] -= mean
		}
		fsum := func(a, b Word) Word { return FloatWord(WordFloat(a) + WordFloat(b)) }
		_, sub, err := nw.ConvergecastAll([]*graph.Tree{tr},
			func(_ int, v graph.NodeID) Word { return FloatWord(r[v]) }, fsum)
		if err != nil {
			return false
		}
		y := make([]float64, n)
		err = nw.DownSweepMany([]*graph.Tree{tr}, []Word{FloatWord(0)},
			func(_ int, _, child int32, parentVal Word) Word {
				w := float64(g.Edge(tr.ParentEdge[child]).Weight)
				return FloatWord(WordFloat(parentVal) + WordFloat(sub[0][child])/w)
			},
			func(_ int, i int32, w Word) { y[tr.Members[i]] = WordFloat(w) })
		if err != nil {
			return false
		}
		// Check L_T y == r.
		ly := make([]float64, n)
		for _, e := range g.Edges() {
			w := float64(e.Weight)
			d := y[e.U] - y[e.V]
			ly[e.U] += w * d
			ly[e.V] -= w * d
		}
		for v := range r {
			if math.Abs(ly[v]-r[v]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
