package graph

import "slices"

// PartAdj is the adjacency of the subgraph of a host graph induced by a list
// of distinct nodes, indexed by position in that list. Parallel edges are
// kept. It takes Θ(k + Σ deg(member)) time and memory to build, for a list
// of k nodes, and never anything proportional to the host's n or m, so
// every BFS over a part (Proposition 6's G[P_i] ∪ H_i) is part-sized.
type PartAdj struct {
	start []int32 // the half-edges of position i are start[i]:start[i+1]
	to    []int32 // position of the half-edge's other endpoint
	edge  []int32 // host EdgeID of the half-edge
}

// NewPartAdj builds the adjacency of the subgraph of g induced by nodes,
// which must be distinct. pos maps a host node to its position in nodes,
// or to -1 for a node outside the list; ListPos builds such a lookup in
// member-sized memory, at Θ(log k) per probe.
//
// Each position lists its half-edges in edge-first-seen order: an edge
// joining two members enters the order when the member earlier in nodes is
// scanned, at its place in that member's neighbor list. So no per-edge
// dedupe state is needed, and a BFS breaks ties exactly as one over the
// induced subgraph's edges taken in (member, neighbor) scan order.
func NewPartAdj(g *Graph, nodes []NodeID, pos func(NodeID) int) *PartAdj {
	k := len(nodes)
	a := &PartAdj{start: make([]int32, k+1)}
	// First pass: look every neighbor up once, keeping for each scanned
	// half-edge the other endpoint's position if it is a later member
	// (else -1), and count the halves of both endpoints.
	halves := 0
	for _, v := range nodes {
		halves += g.Degree(v)
	}
	later := make([]int32, 0, halves)
	for i, v := range nodes {
		for _, h := range g.Neighbors(v) {
			j := pos(h.To)
			if j <= i {
				j = -1
			} else {
				a.start[i+1]++
				a.start[j+1]++
			}
			later = append(later, int32(j))
		}
	}
	for i := 0; i < k; i++ {
		a.start[i+1] += a.start[i]
	}
	// Second pass: fill both halves of each kept edge in scan order.
	next := slices.Clone(a.start[:k])
	a.to = make([]int32, a.start[k])
	a.edge = make([]int32, a.start[k])
	x := 0
	for i, v := range nodes {
		for _, h := range g.Neighbors(v) {
			if j := later[x]; j >= 0 {
				a.to[next[i]], a.edge[next[i]] = j, int32(h.Edge)
				next[i]++
				a.to[next[j]], a.edge[next[j]] = int32(i), int32(h.Edge)
				next[j]++
			}
			x++
		}
	}
	return a
}

// ListPos returns a lookup from a node to its index in nodes, which must be
// distinct, or -1 for a node outside the list: a binary search over the
// keys node<<32 | index, sorted. It takes Θ(k log k) time and k words to
// build for a list of k nodes, and Θ(log k) per probe.
func ListPos(nodes []NodeID) func(NodeID) int {
	keys := make([]int64, len(nodes))
	for i, v := range nodes {
		keys[i] = int64(v)<<32 | int64(i)
	}
	slices.Sort(keys)
	return func(v NodeID) int {
		if i, _ := slices.BinarySearch(keys, int64(v)<<32); i < len(keys) && keys[i]>>32 == int64(v) {
			return int(uint32(keys[i]))
		}
		return -1
	}
}

// BFS runs a breadth-first search of a from position root. dist must have
// one entry per position; BFS overwrites it with hop distances, -1 where
// unreached. The visit order, root first, is written over order (reusing
// its capacity) and returned. If via is non-nil, via[i] receives the host
// edge over which each reached position i other than root was first
// reached.
func (a *PartAdj) BFS(root int, dist, via, order []int32) []int32 {
	for i := range dist {
		dist[i] = -1
	}
	dist[root] = 0
	order = append(order[:0], int32(root))
	for head := 0; head < len(order); head++ {
		v := order[head]
		for h := a.start[v]; h < a.start[v+1]; h++ {
			if to := a.to[h]; dist[to] == -1 {
				dist[to] = dist[v] + 1
				if via != nil {
					via[to] = a.edge[h]
				}
				order = append(order, to)
			}
		}
	}
	return order
}
