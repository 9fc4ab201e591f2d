package shortcut

import (
	"errors"
	"slices"
	"testing"

	"distlap/internal/graph"
)

// augmentedNodes returns the sorted node set of G[P] ∪ H.
func augmentedNodes(g *graph.Graph, part []graph.NodeID, extra []graph.EdgeID) []graph.NodeID {
	nodes := slices.Clone(part)
	for _, id := range extra {
		e := g.Edge(id)
		nodes = append(nodes, e.U, e.V)
	}
	slices.Sort(nodes)
	return slices.Compact(nodes)
}

// TestAugmentedDiameterOracle checks the dilation certificate against a
// brute-force diameter of the same induced subgraph, for every builder of
// the wide portfolio (a superset of the default one) over the candidate
// partitions: exact up to 192 nodes, within [true, 2·true] above.
func TestAugmentedDiameterOracle(t *testing.T) {
	hosts := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid-12x20", graph.Grid(12, 20)},
		{"expander-256", graph.RandomRegular(256, 4, 3)},
		{"random-300", graph.RandomConnected(300, 150, 1, 5)},
	}
	large := 0
	for _, h := range hosts {
		for _, gen := range CandidatePartitions(h.g, 1) {
			for _, b := range WidePortfolio().Builders {
				s, err := b.Build(h.g, gen.Parts)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", h.name, gen.Name, b.Name(), err)
				}
				dil := 0
				for i, p := range s.Parts {
					got, err := augmentedDiameter(h.g, p, s.Extra[i])
					if err != nil {
						t.Fatalf("%s/%s/%s part %d: %v", h.name, gen.Name, b.Name(), i, err)
					}
					nodes := augmentedNodes(h.g, p, s.Extra[i])
					sub, _ := h.g.Subgraph(nodes)
					truth := graph.Diameter(sub)
					exact := len(nodes) <= 192
					if exact && got != truth || !exact && (got < truth || got > 2*truth) {
						t.Fatalf("%s/%s/%s part %d (%d nodes): certificate %d, true diameter %d",
							h.name, gen.Name, b.Name(), i, len(nodes), got, truth)
					}
					if !exact {
						large++
					}
					dil = max(dil, got)
				}
				if s.Dilation != dil {
					t.Fatalf("%s/%s/%s: Dilation %d, max part certificate %d", h.name, gen.Name, b.Name(), s.Dilation, dil)
				}
			}
		}
	}
	if large == 0 {
		t.Fatal("no augmented part above 192 nodes: the double-sweep branch went untested")
	}
}

// TestVerifyAugmentedPartDisconnected: a part whose extra edge lies in
// another component is rejected on both sides of the exact cutoff.
func TestVerifyAugmentedPartDisconnected(t *testing.T) {
	for _, rows := range []int{4, 15} { // 56 and 210 part nodes
		g := graph.Grid(rows, 14)
		a, b := g.AddNode(), g.AddNode()
		far := g.MustAddEdge(a, b, 1)
		part := make([]graph.NodeID, rows*14)
		for i := range part {
			part[i] = i
		}
		s := &Shortcut{Parts: [][]graph.NodeID{part}, Extra: [][]graph.EdgeID{{far}}}
		if err := Verify(g, s); !errors.Is(err, ErrPartDisconnected) {
			t.Fatalf("%d part nodes: err=%v, want ErrPartDisconnected", len(part), err)
		}
	}
}

// mstServeGraph is the host of distbench's mst-serve workload: a weighted
// random graph of 500 nodes with 500 edges beyond a spanning tree.
func mstServeGraph() *graph.Graph { return graph.RandomConnected(500, 500, 100, 1) }

// BenchmarkShortcutVerify re-certifies the default portfolio's shortcut for
// a √n-part tree partition of the mst-serve host: one all-pairs or
// double-sweep certificate per part.
func BenchmarkShortcutVerify(b *testing.B) {
	g := mstServeGraph()
	s, err := DefaultPortfolio().Build(g, TreePartition(g, 22))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Verify(g, s); err != nil {
			b.Fatal(err)
		}
	}
}
