package graph

import "sort"

// Tree is a rooted tree of a graph. Every array is indexed by position in
// Members, so a tree holds Θ(|Members|) words whatever the host's size:
// ParentEdge[i] and Depth[i] belong to Members[i], and the parent of
// Members[i] is Members[ParentPos(i)]. Trees come from this package's
// constructors (NewTree, BFSTree, BFSTreeOfSubgraph, TreeFromEdges,
// LowStretchTree), each of which builds the child index exactly once.
type Tree struct {
	Root       NodeID
	Members    []NodeID // member nodes, Root first, every parent before its children
	ParentEdge []EdgeID // host-graph edge to the parent; -1 at the root
	Depth      []int    // hop depth from the root

	// The children of Members[i] sit at positions kids[kidStart[i]:kidStart[i+1]]
	// of Members, in Members order.
	kidStart []int32
	kids     []int32
	up       []int32 // up[i] is the position of Members[i]'s parent (root: -1)
}

// Height returns the maximum depth of any member.
func (t *Tree) Height() int {
	h := 0
	for _, d := range t.Depth {
		h = max(h, d)
	}
	return h
}

// Kids returns the positions in Members of the children of Members[i], in
// Members order. The slice aliases the tree's index and must not be
// modified.
func (t *Tree) Kids(i int) []int32 { return t.kids[t.kidStart[i]:t.kidStart[i+1]] }

// ParentPos returns the position in Members of the parent of Members[i]
// (-1 for the root).
func (t *Tree) ParentPos(i int) int { return int(t.up[i]) }

// SizeBytes returns the heap bytes held by the tree: its header (Root and
// six slice headers) and its arrays, the child index being one of them.
func (t *Tree) SizeBytes() int64 {
	return ArrayBytes(1, 8+6*24) + ArrayBytes(cap(t.Members), 8) + ArrayBytes(cap(t.ParentEdge), 8) +
		ArrayBytes(cap(t.Depth), 8) + ArrayBytes(cap(t.kidStart)+cap(t.kids), 4) + ArrayBytes(cap(t.up), 4)
}

// NewTree returns the tree whose members are members, rooted at
// members[0], adopting the member-indexed arrays up and parentEdge: up[i]
// is the position in members of members[i]'s parent and parentEdge[i] the
// host edge joining them (both -1 at the root). Every member's parent must
// precede it in members. Depth and the child index are computed here.
func NewTree(members []NodeID, up []int32, parentEdge []EdgeID) *Tree {
	m := len(members)
	t := &Tree{Root: members[0], Members: members, ParentEdge: parentEdge, Depth: make([]int, m), up: up}
	// Count each member's children at its own slot, prefix-sum to range
	// ends, then fill backwards so each range ends up in Members order and
	// its slot holds the range start.
	idx := make([]int32, 2*m) // kidStart and kids in one allocation
	t.kidStart, t.kids = idx[:m+1:m+1], idx[m+1:]
	for _, p := range up[1:] {
		t.kidStart[p]++
	}
	for i := 1; i <= m; i++ {
		t.kidStart[i] += t.kidStart[i-1]
	}
	for j := m - 1; j > 0; j-- {
		p := up[j]
		t.kidStart[p]--
		t.kids[t.kidStart[p]] = int32(j)
	}
	for j := 1; j < m; j++ {
		t.Depth[j] = t.Depth[up[j]] + 1
	}
	return t
}

// BFSTree returns the BFS spanning tree of root's component.
func BFSTree(g *Graph, root NodeID) *Tree {
	res := BFS(g, root)
	pos := res.Dist // reused: each member's slot now holds its position
	for i, v := range res.Order {
		pos[v] = i
	}
	up, parentEdge := rootArrays(len(res.Order))
	for i, v := range res.Order[1:] {
		up[i+1], parentEdge[i+1] = int32(pos[res.Parent[v]]), res.ParentEdge[v]
	}
	return NewTree(res.Order, up, parentEdge)
}

// rootArrays returns member-indexed up and parent-edge arrays for an
// m-member tree, with the root's entries set to -1.
func rootArrays(m int) ([]int32, []EdgeID) {
	up, parentEdge := make([]int32, m), make([]EdgeID, m)
	up[0], parentEdge[0] = -1, -1
	return up, parentEdge
}

// BFSTreeOfSubgraph returns the BFS tree, rooted at root, of the subgraph
// of g induced by members. This is exactly the structure Proposition 6
// aggregates over, G[P_i] ∪ H_i, once the endpoints of H_i are listed as
// members: every edge joining two members is an edge of the induced
// subgraph. Members must be distinct and root must be one of them (a root
// outside members yields the one-node tree {root}); members unreachable
// from root are left out of the tree.
//
// The BFS runs on a PartAdj of members, which finds a member by binary
// search over a sorted index (ListPos); the scratch and the returned tree
// are member-sized, so a call takes Θ(Σ deg(member) · log |members|) time
// and Θ(Σ deg(member)) memory, never anything proportional to the host's
// n. Half-edges are visited in edge-first-seen order (see NewPartAdj),
// which fixes the parent every BFS tie resolves to.
func BFSTreeOfSubgraph(g *Graph, members []NodeID, root NodeID) *Tree {
	pos := ListPos(members)
	r := pos(root)
	if r < 0 {
		up, parentEdge := rootArrays(1)
		return NewTree([]NodeID{root}, up, parentEdge)
	}
	k := len(members)
	scratch := make([]int32, 3*k)
	dist, via := scratch[:k], scratch[k:2*k]
	order := NewPartAdj(g, members, pos).BFS(r, dist, via, scratch[2*k:2*k])
	// dist is spent: its slot for each reached member now holds the
	// member's position in the tree.
	treePos := dist
	tree := make([]NodeID, len(order))
	up, parentEdge := rootArrays(len(order))
	for j, i := range order {
		treePos[i], tree[j] = int32(j), members[i]
		if j > 0 {
			e := EdgeID(via[i])
			up[j], parentEdge[j] = treePos[pos(g.Other(e, members[i]))], e
		}
	}
	return NewTree(tree, up, parentEdge)
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
	seen := map[NodeID]bool{root: true}
	queue := []NodeID{root}
	up, parentEdge := []int32{-1}, []EdgeID{-1}
	for head := 0; head < len(queue); head++ {
		for _, h := range adj[queue[head]] {
			if !seen[h.To] {
				seen[h.To] = true
				queue = append(queue, h.To)
				up, parentEdge = append(up, int32(head)), append(parentEdge, h.Edge)
			}
		}
	}
	return NewTree(queue, up, parentEdge)
}

// PathInTree returns the positions in t.Members on the tree path from
// Members[i] up to the lowest common ancestor of Members[i] and Members[j]
// and down to Members[j] (inclusive of endpoints).
func PathInTree(t *Tree, i, j int) []int {
	var up, down []int
	a, b := i, j
	for t.Depth[a] > t.Depth[b] {
		up = append(up, a)
		a = t.ParentPos(a)
	}
	for t.Depth[b] > t.Depth[a] {
		down = append(down, b)
		b = t.ParentPos(b)
	}
	for a != b {
		up = append(up, a)
		down = append(down, b)
		a, b = t.ParentPos(a), t.ParentPos(b)
	}
	up = append(up, a) // LCA
	for k := len(down) - 1; k >= 0; k-- {
		up = append(up, down[k])
	}
	return up
}
