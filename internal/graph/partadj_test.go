package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// refBFSTreeOfSubgraph is the previous flat BFSTreeOfSubgraph, kept as the
// reference the PartAdj-based one must match bit for bit. It clears n- and
// m-sized scratch on every call and takes the part's extra edges, which it
// dedupes against the induced edges; an extra edge joining two members is
// already an induced edge, so they never change the tree.
func refBFSTreeOfSubgraph(g *Graph, members []NodeID, extraEdges []EdgeID, root NodeID) *Tree {
	n := g.N()
	in := make([]bool, n)
	for _, v := range members {
		in[v] = true
	}
	seen := make([]bool, g.M())
	edges := make([]EdgeID, 0, len(members)*2)
	for _, v := range members {
		for _, h := range g.Neighbors(v) {
			if in[h.To] && !seen[h.Edge] {
				seen[h.Edge] = true
				edges = append(edges, h.Edge)
			}
		}
	}
	for _, id := range extraEdges {
		if !seen[id] {
			seen[id] = true
			e := g.Edge(id)
			if in[e.U] && in[e.V] {
				edges = append(edges, id)
			}
		}
	}
	start := make([]int32, n+1)
	for _, id := range edges {
		e := g.Edge(id)
		start[e.U+1]++
		start[e.V+1]++
	}
	for v := 0; v < n; v++ {
		start[v+1] += start[v]
	}
	next := make([]int32, n)
	copy(next, start[:n])
	halfTo := make([]int32, 2*len(edges))
	halfEdge := make([]int32, 2*len(edges))
	for _, id := range edges {
		e := g.Edge(id)
		halfTo[next[e.U]], halfEdge[next[e.U]] = int32(e.V), int32(id)
		next[e.U]++
		halfTo[next[e.V]], halfEdge[next[e.V]] = int32(e.U), int32(id)
		next[e.V]++
	}
	// The reference keeps n-long state and converts to member positions
	// only at the end.
	pos := make([]int32, n)
	for v := range pos {
		pos[v] = -1
	}
	pos[root] = 0
	queue := make([]NodeID, 0, len(members))
	queue = append(queue, root)
	up, parentEdge := []int32{-1}, []EdgeID{-1}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for i := start[v]; i < start[v+1]; i++ {
			to := NodeID(halfTo[i])
			if pos[to] == -1 {
				pos[to] = int32(len(queue))
				up, parentEdge = append(up, int32(head)), append(parentEdge, EdgeID(halfEdge[i]))
				queue = append(queue, to)
			}
		}
	}
	return NewTree(slices.Clip(queue), slices.Clip(up), slices.Clip(parentEdge))
}

// sameTree fails t unless got and want agree on every field a caller can
// read, the child index and the bytes they hold.
func sameTree(t *testing.T, got, want *Tree) {
	t.Helper()
	if got.Root != want.Root || !slices.Equal(got.Members, want.Members) ||
		!slices.Equal(got.ParentEdge, want.ParentEdge) || !slices.Equal(got.Depth, want.Depth) ||
		got.SizeBytes() != want.SizeBytes() {
		t.Fatalf("tree differs from reference:\n got  root=%d members=%v\n want root=%d members=%v",
			got.Root, got.Members, want.Root, want.Members)
	}
	for i := range want.Members {
		if got.ParentPos(i) != want.ParentPos(i) {
			t.Fatalf("ParentPos(%d) = %d, reference %d", i, got.ParentPos(i), want.ParentPos(i))
		}
		if !slices.Equal(got.Kids(i), want.Kids(i)) {
			t.Fatalf("Kids(%d) = %v, reference %v", i, got.Kids(i), want.Kids(i))
		}
	}
}

// subgraphCase is one random BFSTreeOfSubgraph input: a host with parallel
// edges, k distinct members in shuffled order, a root at position rootPos
// of the member list and extra edges drawn from the whole host, so some
// join two members and some leave the member set.
func subgraphCase(seed int64, n, extra, parallel, k, rootPos, extras int) (*Graph, []NodeID, []EdgeID, NodeID) {
	rng := rand.New(rand.NewSource(seed))
	g := RandomConnected(n, extra, 1, seed)
	for i := 0; i < parallel; i++ {
		e := g.Edge(rng.Intn(g.M()))
		g.MustAddEdge(e.V, e.U, 1)
	}
	members := rng.Perm(n)[:k]
	var ids []EdgeID
	for i := 0; i < extras; i++ {
		ids = append(ids, rng.Intn(g.M()))
	}
	return g, members, ids, members[rootPos]
}

func checkSubgraphCase(t *testing.T, g *Graph, members []NodeID, extras []EdgeID, root NodeID) {
	t.Helper()
	want := refBFSTreeOfSubgraph(g, members, extras, root)
	sameTree(t, BFSTreeOfSubgraph(g, members, root), want)
	if got := InducedConnected(g, members); got != (len(want.Members) == len(members)) {
		t.Fatalf("InducedConnected = %v, reference tree reaches %d of %d members", got, len(want.Members), len(members))
	}
}

func TestBFSTreeOfSubgraphMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		n := 2 + int(seed%40)
		k := 1 + int(seed*7)%n
		g, members, extras, root := subgraphCase(seed, n, int(seed%3)*n/2, int(seed%5), k, int(seed)%k, int(seed%7))
		checkSubgraphCase(t, g, members, extras, root)
	}
}

// FuzzBFSTreeOfSubgraph compares BFSTreeOfSubgraph with the reference
// builder on random inputs; plain `go test` runs the seed corpus.
func FuzzBFSTreeOfSubgraph(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(5), uint8(0), uint8(4), uint8(0), uint8(0))
	f.Add(int64(2), uint8(30), uint8(30), uint8(6), uint8(12), uint8(5), uint8(4))
	f.Add(int64(3), uint8(64), uint8(0), uint8(3), uint8(64), uint8(63), uint8(9))
	f.Add(int64(4), uint8(2), uint8(0), uint8(2), uint8(2), uint8(1), uint8(1))
	f.Add(int64(5), uint8(100), uint8(200), uint8(20), uint8(40), uint8(17), uint8(30))
	f.Fuzz(func(t *testing.T, seed int64, n, extra, parallel, k, rootPos, extras uint8) {
		nn := 2 + int(n)
		kk := 1 + int(k)%nn
		g, members, ids, root := subgraphCase(seed, nn, int(extra), int(parallel), kk, int(rootPos)%kk, int(extras))
		checkSubgraphCase(t, g, members, ids, root)
	})
}

// A root outside the member list yields the one-node tree {root}, as it
// always has.
func TestBFSTreeOfSubgraphRootOutsideMembers(t *testing.T) {
	g := Grid(3, 3)
	for _, members := range [][]NodeID{{0, 1, 2}, nil} {
		tr := BFSTreeOfSubgraph(g, members, 4)
		if !slices.Equal(tr.Members, []NodeID{4}) || tr.Depth[0] != 0 || slices.Contains(tr.Members, 0) || len(tr.Kids(0)) != 0 {
			t.Fatalf("members %v, root 4: got tree %v", members, tr.Members)
		}
		sameTree(t, tr, refBFSTreeOfSubgraph(g, members, nil, 4))
	}
}

// blockPart returns the 4×4 block of rows 4–7, columns 60–63 of a grid
// 100 wide: a 16-node part inside a 10³- or a 10⁴-node host.
func blockPart() []NodeID {
	var part []NodeID
	for r := 4; r < 8; r++ {
		for c := 60; c < 64; c++ {
			part = append(part, GridID(100, r, c))
		}
	}
	return part
}

var treeSink *Tree

// BenchmarkBFSTreeOfSubgraph builds the BFS tree of a 16-node part of a
// 10⁴-node grid: part-sized work and a part-sized tree.
func BenchmarkBFSTreeOfSubgraph(b *testing.B) {
	g, part := Grid(100, 100), blockPart()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		treeSink = BFSTreeOfSubgraph(g, part, part[5])
	}
}
