package graph

import "sort"

// Tree is a rooted tree of a graph, stored as parent pointers in the host
// graph's node ID space plus a member-sized child index. Nodes outside the
// tree have Parent == -1 and Depth == -1. Trees come from this package's
// constructors (NewTree, BFSTree, BFSTreeOfSubgraph, TreeFromEdges,
// LowStretchTree), each of which builds the child index exactly once.
type Tree struct {
	Root       NodeID
	Parent     []NodeID // -1 for root and non-members
	ParentEdge []EdgeID // host-graph edge to parent; -1 where Parent == -1
	Depth      []int    // hop depth from root; -1 for non-members
	Members    []NodeID // member nodes, Root first, every parent before its children

	// The children of Members[i] sit at positions kids[kidStart[i]:kidStart[i+1]]
	// of Members, in Members order.
	kidStart []int32
	kids     []int32
}

// Height returns the maximum depth of any member.
func (t *Tree) Height() int {
	h := 0
	for _, v := range t.Members {
		if t.Depth[v] > h {
			h = t.Depth[v]
		}
	}
	return h
}

// Contains reports whether v is a member of the tree.
func (t *Tree) Contains(v NodeID) bool {
	return v >= 0 && v < len(t.Depth) && t.Depth[v] >= 0
}

// Kids returns the positions in Members of the children of Members[i], in
// Members order. The slice aliases the tree's index and must not be
// modified.
func (t *Tree) Kids(i int) []int32 { return t.kids[t.kidStart[i]:t.kidStart[i+1]] }

// SizeBytes returns the bytes held by the tree: its header and the
// capacities of its arrays.
func (t *Tree) SizeBytes() int64 {
	const header = 8 + 6*24 // Root and six slice headers
	return header + int64(8*(cap(t.Parent)+cap(t.ParentEdge)+cap(t.Depth)+cap(t.Members))+
		4*(cap(t.kidStart)+cap(t.kids)))
}

// NewTree returns the tree whose members are members, rooted at
// members[0], adopting the host-indexed parent pointers parent and
// parentEdge (-1 at the root and at non-members). Every member's parent
// must precede it in members. Depth and the child index are computed here.
func NewTree(members []NodeID, parent []NodeID, parentEdge []EdgeID) *Tree {
	depth := make([]int, len(parent))
	for i := range depth {
		depth[i] = -1
	}
	return newTree(members, parent, parentEdge, depth)
}

// newTree is NewTree over a caller-supplied depth array, which must be -1
// at non-members. Its member slots are overwritten: first with each
// member's position, so the child index is built from member-sized storage
// alone, then with the member's depth.
func newTree(members []NodeID, parent []NodeID, parentEdge []EdgeID, depth []int) *Tree {
	t := &Tree{Root: members[0], Parent: parent, ParentEdge: parentEdge, Depth: depth, Members: members}
	pos := depth
	for i, v := range members {
		pos[v] = i
	}
	// Count each member's children at its own slot, prefix-sum to range
	// ends, then fill backwards so each range ends up in Members order and
	// its slot holds the range start.
	m := len(members)
	t.kidStart = make([]int32, m+1)
	t.kids = make([]int32, max(m-1, 0))
	for _, v := range members[1:] {
		t.kidStart[pos[parent[v]]]++
	}
	for i := 1; i <= m; i++ {
		t.kidStart[i] += t.kidStart[i-1]
	}
	for j := m - 1; j > 0; j-- {
		p := pos[parent[members[j]]]
		t.kidStart[p]--
		t.kids[t.kidStart[p]] = int32(j)
	}
	depth[members[0]] = 0
	for _, v := range members[1:] {
		depth[v] = depth[parent[v]] + 1
	}
	return t
}

// BFSTree returns the BFS spanning tree of root's component.
func BFSTree(g *Graph, root NodeID) *Tree {
	res := BFS(g, root)
	return newTree(res.Order, res.Parent, res.ParentEdge, res.Dist)
}

// BFSTreeOfSubgraph returns the BFS tree of the subgraph of g induced by
// member nodes and the extra edges listed in extraEdges (which may leave the
// induced subgraph's edge set but must join member nodes), rooted at root.
// This is exactly the structure Proposition 6 aggregates over: G[P_i] ∪ H_i.
//
// The construction is entirely flat (stamp arrays and a count-then-fill
// restricted adjacency, no maps), Θ(n + m + Σ deg(member)) time; the BFS
// visits half-edges in edge-first-seen order — the order the historical
// map-based builder appended them in — so the returned tree is
// bit-identical to what that builder produced for every input.
func BFSTreeOfSubgraph(g *Graph, members []NodeID, extraEdges []EdgeID, root NodeID) *Tree {
	n := g.N()
	in := make([]bool, n)
	for _, v := range members {
		in[v] = true
	}
	// Collect the restricted edge set in first-seen order: induced edges in
	// (member-scan, neighbor-scan) order, then the extra edges. The order
	// matters — it fixes which parent a BFS tie resolves to.
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
	// Restricted adjacency as a CSR: count, prefix-sum, fill. Filling in
	// edge order keeps each node's half-edges in the same relative order a
	// per-edge append would have produced.
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
	parent, parentEdge, depth := unrootedArrays(n)
	depth[root] = 0
	queue := make([]NodeID, 0, len(members))
	queue = append(queue, root)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for i := start[v]; i < start[v+1]; i++ {
			to := NodeID(halfTo[i])
			if depth[to] == -1 {
				depth[to] = depth[v] + 1
				parent[to] = v
				parentEdge[to] = EdgeID(halfEdge[i])
				queue = append(queue, to)
			}
		}
	}
	return newTree(queue, parent, parentEdge, depth)
}

// unrootedArrays returns n-long parent, parent-edge and depth arrays with
// every slot -1.
func unrootedArrays(n int) ([]NodeID, []EdgeID, []int) {
	parent, parentEdge, depth := make([]NodeID, n), make([]EdgeID, n), make([]int, n)
	for i := 0; i < n; i++ {
		parent[i], parentEdge[i], depth[i] = -1, -1, -1
	}
	return parent, parentEdge, depth
}

// UnionFind is a disjoint-set forest with union by rank and path halving.
type UnionFind struct {
	parent []int
	rank   []byte
	count  int
}

// NewUnionFind returns a union-find over n singleton sets.
func NewUnionFind(n int) *UnionFind {
	uf := &UnionFind{
		parent: make([]int, n),
		rank:   make([]byte, n),
		count:  n,
	}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

// Find returns the representative of x's set.
func (uf *UnionFind) Find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

// Union merges the sets of x and y; it returns false if already joined.
func (uf *UnionFind) Union(x, y int) bool {
	rx, ry := uf.Find(x), uf.Find(y)
	if rx == ry {
		return false
	}
	if uf.rank[rx] < uf.rank[ry] {
		rx, ry = ry, rx
	}
	uf.parent[ry] = rx
	if uf.rank[rx] == uf.rank[ry] {
		uf.rank[rx]++
	}
	uf.count--
	return true
}

// Count returns the number of disjoint sets.
func (uf *UnionFind) Count() int { return uf.count }

// MST returns the edge IDs of a minimum spanning forest of g (Kruskal),
// breaking weight ties by edge ID for determinism, together with its total
// weight.
func MST(g *Graph) ([]EdgeID, int64) {
	ids := make([]EdgeID, g.M())
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool {
		ea, eb := g.Edge(ids[a]), g.Edge(ids[b])
		if ea.Weight != eb.Weight {
			return ea.Weight < eb.Weight
		}
		return ids[a] < ids[b]
	})
	uf := NewUnionFind(g.N())
	var picked []EdgeID
	var total int64
	for _, id := range ids {
		e := g.Edge(id)
		if uf.Union(e.U, e.V) {
			picked = append(picked, id)
			total += e.Weight
		}
	}
	return picked, total
}

// TreeFromEdges builds a rooted Tree from a set of forest edge IDs of g,
// rooted at root (only root's component becomes the tree).
func TreeFromEdges(g *Graph, edgeIDs []EdgeID, root NodeID) *Tree {
	adj := make(map[NodeID][]Half)
	for _, id := range edgeIDs {
		e := g.Edge(id)
		adj[e.U] = append(adj[e.U], Half{To: e.V, Edge: id})
		adj[e.V] = append(adj[e.V], Half{To: e.U, Edge: id})
	}
	parent, parentEdge, depth := unrootedArrays(g.N())
	depth[root] = 0
	queue := []NodeID{root}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, h := range adj[v] {
			if depth[h.To] == -1 {
				depth[h.To] = depth[v] + 1
				parent[h.To] = v
				parentEdge[h.To] = h.Edge
				queue = append(queue, h.To)
			}
		}
	}
	return newTree(queue, parent, parentEdge, depth)
}

// PathInTree returns the node sequence from u up to the lowest common
// ancestor of u and v and down to v along tree t (inclusive of endpoints).
func PathInTree(t *Tree, u, v NodeID) []NodeID {
	if !t.Contains(u) || !t.Contains(v) {
		return nil
	}
	var up, down []NodeID
	a, b := u, v
	for t.Depth[a] > t.Depth[b] {
		up = append(up, a)
		a = t.Parent[a]
	}
	for t.Depth[b] > t.Depth[a] {
		down = append(down, b)
		b = t.Parent[b]
	}
	for a != b {
		up = append(up, a)
		down = append(down, b)
		a = t.Parent[a]
		b = t.Parent[b]
	}
	up = append(up, a) // LCA
	for i := len(down) - 1; i >= 0; i-- {
		up = append(up, down[i])
	}
	return up
}
