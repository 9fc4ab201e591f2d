package graph

// CSR is a flat, index-based (compressed sparse row) view of a Graph,
// built once and shared read-only by every hot-path kernel: Laplacian
// apply, weighted-degree walks, residual evaluation, and the engines'
// charge accounting. It carries two complementary layouts:
//
//   - an adjacency-order view (RowStart/HalfTo/HalfEdge/HalfW), the CSR
//     proper: node v's incident half-edges occupy
//     HalfTo[RowStart[v]:RowStart[v+1]] in exactly the order of
//     Graph.Neighbors(v), so kernels that walk neighborhoods touch one
//     contiguous cache-friendly block per node;
//   - an edge-order view (EdgeU/EdgeV/EdgeW), the edge list as parallel
//     scalar arrays in EdgeID order, for kernels that stream over edges
//     (Laplacian MatVec, quadratic forms, spectral-bound scans).
//
// Both views preserve the source graph's iteration orders bit-for-bit,
// which is what lets flat kernels replace map- and struct-walking ones
// without perturbing any floating-point summation order — and therefore
// without moving a single measured round (DESIGN.md §7). WDeg is the
// weighted-degree vector accumulated in EdgeID order, the same order
// linalg's Degrees used, so cached degrees are bit-identical to freshly
// computed ones.
//
// A CSR is immutable after BuildCSR returns and safe for concurrent
// readers; it holds no reference that would let a caller mutate the
// source graph through it. Building costs Θ(n + m) time and space.
type CSR struct {
	// Adjacency-order view: half-edges of node v are the index range
	// [RowStart[v], RowStart[v+1]).
	RowStart []int32   // length n+1
	HalfTo   []int32   // length 2m: neighbor endpoint
	HalfEdge []int32   // length 2m: EdgeID of the half-edge
	HalfW    []float64 // length 2m: weight of the half-edge

	// Edge-order view: edge e is (EdgeU[e], EdgeV[e]) with weight EdgeW[e].
	EdgeU []int32   // length m
	EdgeV []int32   // length m
	EdgeW []float64 // length m

	// WDeg[v] is the weighted degree of v, accumulated in EdgeID order.
	WDeg []float64 // length n
}

// SizeBytes returns the heap bytes held by the CSR's arrays.
func (c *CSR) SizeBytes() int64 {
	return ArrayBytes(cap(c.RowStart), 4) + ArrayBytes(cap(c.HalfTo), 4) + ArrayBytes(cap(c.HalfEdge), 4) +
		ArrayBytes(cap(c.EdgeU), 4) + ArrayBytes(cap(c.EdgeV), 4) +
		ArrayBytes(cap(c.HalfW), 8) + ArrayBytes(cap(c.EdgeW), 8) + ArrayBytes(cap(c.WDeg), 8)
}

// N returns the number of nodes.
func (c *CSR) N() int { return len(c.RowStart) - 1 }

// M returns the number of undirected edges.
func (c *CSR) M() int { return len(c.EdgeU) }

// Degree returns the unweighted degree of v (half-edge count).
func (c *CSR) Degree(v NodeID) int { return int(c.RowStart[v+1] - c.RowStart[v]) }

// BuildCSR flattens g into its CSR view. The result is a pure function of
// g's construction history: half-edges appear in Neighbors order and edges
// in EdgeID order, so two structurally identical graphs yield bytewise
// identical CSRs. Θ(n + m).
func BuildCSR(g *Graph) *CSR {
	n, m := g.N(), g.M()
	c := &CSR{
		RowStart: make([]int32, n+1),
		HalfTo:   make([]int32, 2*m),
		HalfEdge: make([]int32, 2*m),
		HalfW:    make([]float64, 2*m),
		EdgeU:    make([]int32, m),
		EdgeV:    make([]int32, m),
		EdgeW:    make([]float64, m),
		WDeg:     make([]float64, n),
	}
	pos := 0
	for v := 0; v < n; v++ {
		c.RowStart[v] = int32(pos)
		for _, h := range g.Neighbors(v) {
			c.HalfTo[pos] = int32(h.To)
			c.HalfEdge[pos] = int32(h.Edge)
			c.HalfW[pos] = float64(g.Edge(h.Edge).Weight)
			pos++
		}
	}
	c.RowStart[n] = int32(pos)
	for id, e := range g.EdgeList() {
		c.EdgeU[id] = int32(e.U)
		c.EdgeV[id] = int32(e.V)
		w := float64(e.Weight)
		c.EdgeW[id] = w
		c.WDeg[e.U] += w
		c.WDeg[e.V] += w
	}
	return c
}
