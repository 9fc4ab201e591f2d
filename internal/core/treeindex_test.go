package core

import (
	"slices"
	"testing"

	"distlap/internal/congest"
	"distlap/internal/graph"
)

// checkChildIndex verifies a tree's stored child index against its parent
// edges: Members[0] is the root, ParentPos(i) is the position of the other
// endpoint of ParentEdge[i] (-1 at the root), that parent precedes its
// child and sits one level higher, and Kids(i) lists exactly the members
// whose parent is Members[i], in Members order.
func checkChildIndex(t *testing.T, name string, g *graph.Graph, tr *graph.Tree) {
	t.Helper()
	if len(tr.Members) < 2 || tr.Members[0] != tr.Root {
		t.Fatalf("%s: %d members not starting at root %d", name, len(tr.Members), tr.Root)
	}
	for i, v := range tr.Members {
		var want []int32
		for j := range tr.Members {
			if tr.ParentPos(j) == i {
				want = append(want, int32(j))
			}
		}
		p := tr.ParentPos(i)
		if (i == 0 && (p != -1 || tr.ParentEdge[0] != -1 || tr.Depth[0] != 0)) ||
			(i > 0 && (p < 0 || p >= i || tr.Members[p] != g.Other(tr.ParentEdge[i], v) || tr.Depth[i] != tr.Depth[p]+1)) {
			t.Fatalf("%s: member %d has parent position %d", name, v, p)
		}
		got := tr.Kids(i)
		if len(got) != len(want) {
			t.Fatalf("%s: member %d has kids %v, want %v", name, v, got, want)
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("%s: member %d has kids %v, want %v", name, v, got, want)
			}
		}
	}
}

// TestTreeChildIndexEveryConstructor checks the child index of every tree
// constructor on random connected graphs over several seeds.
func TestTreeChildIndexEveryConstructor(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		g := graph.RandomConnected(60, 40, 5, seed)
		n := g.N()
		bfs := graph.BFSTree(g, int(seed)%n)
		checkChildIndex(t, "BFSTree", g, bfs)

		// A member set that is not induced-connected, joined through the
		// endpoints of every other edge, added as relays (as partwise does).
		var members []graph.NodeID
		for v := 0; v < n; v += 3 {
			members = append(members, v)
		}
		seen := make([]bool, n)
		for _, v := range members {
			seen[v] = true
		}
		for id := 0; id < g.M(); id += 2 {
			e := g.Edge(id)
			for _, x := range []graph.NodeID{e.U, e.V} {
				if !seen[x] {
					seen[x] = true
					members = append(members, x)
				}
			}
		}
		checkChildIndex(t, "BFSTreeOfSubgraph", g, graph.BFSTreeOfSubgraph(g, members, members[0]))

		mst, _ := graph.MST(g)
		checkChildIndex(t, "TreeFromEdges", g, graph.TreeFromEdges(g, mst, n-1))
		checkChildIndex(t, "LowStretchTree", g, graph.LowStretchTree(g, seed))

		nw := congest.NewNetwork(g, congest.Options{Seed: seed})
		engine := nw.BFS(0)
		if nw.Rounds() == 0 {
			t.Fatalf("engine BFS charged no rounds")
		}
		checkChildIndex(t, "engine BFS", g, engine)

		// One cutter serves every cluster of a call: a tree cut after
		// another must equal the same tree cut first.
		terminals := []graph.NodeID{n - 1, n / 2, 7, n / 3}
		cut := newSteinerCutter(engine, n)
		cut.tree([]graph.NodeID{1, n - 2})
		steiner := cut.tree(terminals)
		checkChildIndex(t, "naive Steiner tree", g, steiner)
		fresh := newSteinerCutter(engine, n).tree(terminals)
		if !slices.Equal(steiner.Members, fresh.Members) || !slices.Equal(steiner.ParentEdge, fresh.ParentEdge) {
			t.Fatalf("Steiner tree cut second %v differs from the same tree cut first %v", steiner.Members, fresh.Members)
		}
	}
}
