package graph

import "sort"

// Tree is a rooted tree of a graph, stored as parent pointers in the host
// graph's node ID space plus a member-sized child index and parent
// positions. Nodes outside the tree have Parent == -1 and Depth == -1.
// Trees come from this package's constructors (NewTree, BFSTree,
// BFSTreeOfSubgraph, TreeFromEdges, LowStretchTree), each of which builds
// the member-sized index exactly once.
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
	up       []int32 // up[i] is the position of Members[i]'s parent (root: -1)
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

// ParentPos returns the position in Members of the parent of Members[i]
// (-1 for the root).
func (t *Tree) ParentPos(i int) int { return int(t.up[i]) }

// SizeBytes returns the bytes held by the tree: its header and the
// capacities of its arrays.
func (t *Tree) SizeBytes() int64 {
	const header = 8 + 7*24 // Root and seven slice headers
	return header + int64(8*(cap(t.Parent)+cap(t.ParentEdge)+cap(t.Depth)+cap(t.Members))+
		4*(cap(t.kidStart)+cap(t.kids)+cap(t.up)))
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
	idx := make([]int32, 3*m) // kidStart, kids and up in one allocation
	t.kidStart, t.kids, t.up = idx[:m+1:m+1], idx[m+1:2*m:2*m], idx[2*m:]
	t.up[0] = -1
	for _, v := range members[1:] {
		t.kidStart[pos[parent[v]]]++
	}
	for i := 1; i <= m; i++ {
		t.kidStart[i] += t.kidStart[i-1]
	}
	for j := m - 1; j > 0; j-- {
		p := pos[parent[members[j]]]
		t.up[j] = int32(p)
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

// BFSTreeOfSubgraph returns the BFS tree, rooted at root, of the subgraph
// of g induced by members. This is exactly the structure Proposition 6
// aggregates over, G[P_i] ∪ H_i, once the endpoints of H_i are listed as
// members: every edge joining two members is an edge of the induced
// subgraph. Members must be distinct and root must be one of them (a root
// outside members yields the one-node tree {root}); members unreachable
// from root are left out of the tree.
//
// The BFS runs on a PartAdj of members, with member-sized scratch, in
// Θ(Σ deg(member)) time; only the returned tree's Parent, ParentEdge and
// Depth arrays are n long, which makes the total Θ(n + Σ deg(member)).
// Half-edges are visited in edge-first-seen order (see NewPartAdj), which
// fixes the parent every BFS tie resolves to.
func BFSTreeOfSubgraph(g *Graph, members []NodeID, root NodeID) *Tree {
	parent, parentEdge, depth := unrootedArrays(g.N())
	// The depth slots hold each member's position until the BFS is done.
	for i, v := range members {
		depth[v] = i
	}
	var order, via []int32
	if r := depth[root]; r >= 0 {
		adj := NewPartAdj(g, members, func(v NodeID) int { return depth[v] })
		via = make([]int32, len(members))
		order = adj.BFS(r, make([]int32, len(members)), via, make([]int32, 0, len(members)))
	}
	for _, v := range members {
		depth[v] = -1
	}
	tree := append(make([]NodeID, 0, len(members)), root)
	for j := 1; j < len(order); j++ {
		v, e := members[order[j]], EdgeID(via[order[j]])
		parent[v], parentEdge[v] = g.Other(e, v), e
		tree = append(tree, v)
	}
	return newTree(tree, parent, parentEdge, depth)
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
