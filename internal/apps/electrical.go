package apps

import (
	"fmt"

	"distlap/internal/core"
	"distlap/internal/graph"
)

// FlowResult reports an s-t electrical flow computation.
type FlowResult struct {
	Potentials  []float64 // node potentials x with L x = χ_s − χ_t
	EdgeCurrent []float64 // per edge: w_e (x_u − x_v), oriented U -> V
	Resistance  float64   // effective resistance x_s − x_t
	Rounds      int
	Iterations  int
	// Metrics is the structured communication cost of the underlying
	// solve; prefer it over the bare Rounds count.
	Metrics core.Metrics
}

// checkSTPair validates an s-t terminal pair against g.
func checkSTPair(g *graph.Graph, s, t graph.NodeID) error {
	n := g.N()
	if s < 0 || s >= n || t < 0 || t >= n {
		return fmt.Errorf("apps: %w: s=%d t=%d", graph.ErrNodeRange, s, t)
	}
	if s == t {
		return fmt.Errorf("apps: s and t coincide (%d)", s)
	}
	return nil
}

// SolveFlow computes the unit s-t electrical flow on g: solve — the
// caller's Laplacian solve, one-shot or against a prepared instance — finds
// the potentials for the demand χ_s − χ_t, from which the per-edge
// Ohm's-law currents, the effective resistance and the solve's measured
// cost follow.
func SolveFlow(g *graph.Graph, s, t graph.NodeID, solve func(b []float64) (*core.Result, error)) (*FlowResult, error) {
	if err := checkSTPair(g, s, t); err != nil {
		return nil, err
	}
	b := make([]float64, g.N())
	b[s] = 1
	b[t] = -1
	res, err := solve(b)
	if err != nil {
		return nil, err
	}
	out := &FlowResult{
		Potentials: res.X,
		Resistance: res.X[s] - res.X[t],
		Rounds:     res.Rounds,
		Iterations: res.Iterations,
		Metrics:    res.Metrics,
	}
	out.EdgeCurrent = make([]float64, g.M())
	for id, e := range g.Edges() {
		out.EdgeCurrent[id] = float64(e.Weight) * (res.X[e.U] - res.X[e.V])
	}
	return out, nil
}

// FlowDivergence returns, for each node, the net current out of it (test
// harnesses check this equals χ_s − χ_t).
func (f *FlowResult) FlowDivergence(g *graph.Graph) []float64 {
	div := make([]float64, g.N())
	for id, e := range g.Edges() {
		div[e.U] += f.EdgeCurrent[id]
		div[e.V] -= f.EdgeCurrent[id]
	}
	return div
}
