package core

import (
	"fmt"

	"distlap/internal/congest"
	"distlap/internal/graph"
	"distlap/internal/simtrace"
)

// CommConfig configures NewCommWith.
type CommConfig struct {
	Mode Mode
	Seed int64
	// Trace receives the run's instrumentation events (nil = Nop). The
	// collector is shared by every engine the comm builds (the CONGEST
	// network and, in hybrid mode, the NCC clique).
	Trace simtrace.Collector
	// Cancel is polled at engine round barriers (see
	// congest.Options.Cancel); nil disables cancellation.
	Cancel func() error
}

// NewCommWith builds the communication substrate for a config. Rounds paid
// during construction (the ModeCongest global BFS) are attributed to the
// "comm-setup" phase.
func NewCommWith(g *graph.Graph, cfg CommConfig) (Comm, error) {
	tr := simtrace.OrNop(cfg.Trace)
	tr.Begin("comm-setup")
	defer tr.End("comm-setup")
	switch cfg.Mode {
	case ModeUniversal:
		nw := congest.NewNetwork(g, congest.Options{Supported: true, Seed: cfg.Seed, Trace: tr, Cancel: cfg.Cancel})
		return NewCongestComm(nw, false)
	case ModeCongest:
		nw := congest.NewNetwork(g, congest.Options{Supported: false, Seed: cfg.Seed, Trace: tr, Cancel: cfg.Cancel})
		return NewCongestComm(nw, false)
	case ModeBaseline:
		// Supported, so the comparison against ModeUniversal isolates the
		// aggregation structure (global tree vs per-cluster) rather than
		// construction costs.
		nw := congest.NewNetwork(g, congest.Options{Supported: true, Seed: cfg.Seed, Trace: tr, Cancel: cfg.Cancel})
		return NewCongestComm(nw, true)
	case ModeHybrid:
		nw := congest.NewNetwork(g, congest.Options{Supported: true, Seed: cfg.Seed, Trace: tr, Cancel: cfg.Cancel})
		return NewHybridComm(nw)
	default:
		return nil, fmt.Errorf("core: unknown mode %q", cfg.Mode)
	}
}

// DefaultPrecond returns the standard preconditioner for a graph: the
// overlapping-cluster Schwarz preconditioner with ~√n-sized clusters and
// overlap 2 (the congested-PWA component of the solver).
func DefaultPrecond(g *graph.Graph, seed int64) Preconditioner {
	size := 4
	for (size+1)*(size+1) <= g.N() {
		size++
	}
	return NewSchwarzPrecond(size, 2, seed)
}
