package core

import (
	"context"
	"errors"
	"fmt"

	"distlap/internal/congest"
	"distlap/internal/faultinject"
	"distlap/internal/graph"
	"distlap/internal/linalg"
	"distlap/internal/ncc"
	"distlap/internal/simtrace"
)

// Instance is the cached per-graph half of a solve: everything whose cost
// depends only on the graph — the global (BFS) aggregation tree, the
// preconditioner's cluster covers and cluster trees, and (for Chebyshev
// instances) the spectral bounds — built once by PrepareInstance and reused
// by every request.
//
// A prepared Instance is immutable and safe for concurrent use: requests
// share only read-only state and each request runs on its own freshly
// seeded engine with its own trace collector. The amortization contract is
// that no construction phase is ever charged (or traced) after
// PrepareInstance returns; Solve charges pure iteration cost.
type Instance struct {
	g         *graph.Graph
	mode      Mode
	seed      int64
	tol       float64
	naive     bool
	hybrid    bool
	supported bool
	tree      *graph.Tree
	csr       *graph.CSR     // flat topology shared by every request engine
	pre       Preconditioner // nil for Chebyshev instances

	cheb   bool
	lo, hi float64 // cached spectral bounds (Chebyshev only)

	setup Metrics // communication cost paid by PrepareInstance
}

// PrepareConfig configures PrepareInstance.
type PrepareConfig struct {
	// Mode selects the communication model (default ModeUniversal).
	Mode Mode
	// Tol is the default request tolerance (0 selects 1e-8); individual
	// requests may override it.
	Tol float64
	// Seed drives every randomized setup phase (cluster covers) and is the
	// base from which callers derive per-request seeds.
	Seed int64
	// Trace receives the setup's instrumentation (nil = Nop): the
	// "prepare" span encloses comm-setup — including the charged BFS in
	// ModeCongest — and precond-setup with its cluster-tree construction.
	Trace simtrace.Collector
	// Chebyshev prepares for Chebyshev iteration instead of PCG: no
	// preconditioner is built, and the spectral bounds (Lo, Hi, or the safe
	// automatic ones when zero) are computed once and cached.
	Chebyshev bool
	Lo, Hi    float64
}

// PrepareInstance runs the one-time per-graph pipeline and returns the
// cached Instance. This is the expensive half the paper's amortization
// story rests on: low-stretch/BFS tree construction, cluster covers,
// cluster aggregation trees and preconditioner state are all paid for here,
// exactly once, so each additional right-hand side pays only iteration.
// ctx cancels setup between engine rounds.
func PrepareInstance(ctx context.Context, g *graph.Graph, cfg PrepareConfig) (*Instance, error) {
	in, _, err := prepare(ctx, g, cfg)
	return in, err
}

// SolveOnce solves L_g x = b in one shot: literally PrepareInstance, then
// the iteration of Instance.Solve, run on the setup engine itself rather
// than a fresh request engine. The Result therefore charges setup and
// iteration together — its rounds include the charged BFS in ModeCongest
// and its MaxEdgeLoad spans both halves — and the trace nests the setup
// spans under "prepare", exactly as a prepared instance's does.
func SolveOnce(ctx context.Context, g *graph.Graph, b []float64, cfg PrepareConfig) (res *Result, err error) {
	in, c, err := prepare(ctx, g, cfg)
	if err != nil {
		return nil, err
	}
	defer congest.CatchCancel(&err)
	return in.iterate(c, b, in.pre, Options{Tol: in.tol, Cancel: ctx.Err})
}

// prepare is PrepareInstance also returning the comm the setup ran on, so
// SolveOnce can keep iterating on it.
func prepare(ctx context.Context, g *graph.Graph, cfg PrepareConfig) (in *Instance, c Comm, err error) {
	if g == nil || g.N() == 0 {
		return nil, nil, errors.New("core: empty graph")
	}
	mode := cfg.Mode
	if mode == "" {
		mode = ModeUniversal
	}
	tol := cfg.Tol
	//distlint:allow floateq zero is the "unset" sentinel; negative tolerances must still reach the ErrBadTol check below
	if tol == 0 {
		tol = 1e-8
	}
	if tol <= 0 || tol >= 1 {
		return nil, nil, fmt.Errorf("%w: %g", ErrBadTol, tol)
	}
	defer congest.CatchCancel(&err)
	tr := simtrace.OrNop(cfg.Trace)
	tr.Begin("prepare")
	defer tr.End("prepare")
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	c, err = NewCommWith(g, CommConfig{Mode: mode, Seed: cfg.Seed, Trace: tr, Cancel: ctx.Err})
	if err != nil {
		return nil, nil, err
	}
	in = &Instance{
		g:      g,
		mode:   mode,
		seed:   cfg.Seed,
		tol:    tol,
		hybrid: mode == ModeHybrid,
		naive:  mode == ModeBaseline,
		cheb:   cfg.Chebyshev,
	}
	switch cc := c.(type) {
	case *CongestComm:
		in.tree = cc.globalTree
		in.supported = cc.nw.Supported()
		in.csr = cc.nw.Topology()
	case *HybridComm:
		in.tree = cc.local.globalTree
		in.supported = cc.local.nw.Supported()
		in.csr = cc.local.nw.Topology()
	default:
		return nil, nil, fmt.Errorf("core: comm %q exposes no cacheable state", c.Name())
	}
	if cfg.Chebyshev {
		// Spectral bounds are a pure function of the graph — exactly the
		// kind of per-instance work worth caching.
		lo, hi := cfg.Lo, cfg.Hi
		if lo <= 0 || hi <= 0 {
			tr.Begin("spectral-bounds")
			lo, hi = linalg.SpectralBounds(linalg.NewLaplacian(g))
			tr.End("spectral-bounds")
		}
		if hi <= lo {
			return nil, nil, fmt.Errorf("core: bad spectral bounds [%g, %g]", lo, hi)
		}
		in.lo, in.hi = lo, hi
	} else {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		pre := DefaultPrecond(g, cfg.Seed)
		tr.Begin("precond-setup")
		serr := pre.Setup(c)
		tr.End("precond-setup")
		if serr != nil {
			return nil, nil, fmt.Errorf("core: precond setup: %w", serr)
		}
		in.pre = pre
	}
	in.setup = c.CollectMetrics()
	return in, c, nil
}

// Request configures one per-request execution against a prepared Instance.
type Request struct {
	// Tol overrides the instance's default tolerance when positive.
	Tol float64
	// Seed seeds the request's private engine (scheduling randomness).
	// Callers derive it from the instance seed and a request identity via
	// internal/seedderive so identical requests replay identically and
	// distinct requests get unrelated streams.
	Seed int64
	// Trace receives this request's instrumentation only (nil = Nop).
	// Collectors are single-writer: one per request, never shared.
	Trace simtrace.Collector
	// Cancel is polled at engine round barriers and iteration boundaries
	// (thread context.Context.Err here); nil disables cancellation.
	Cancel func() error
	// MaxIter caps iterations (0 selects the solver default).
	MaxIter int
	// Faults attaches a deterministic fault plan to the request's engines
	// (nil = reliable execution, the fast path). When set, Solve runs the
	// self-checking recovery loop of DESIGN.md §9: every attempt's
	// convergence is verified against a local true-residual computation,
	// failed attempts are retried under re-derived seeds (seedderive phase
	// "retry"), and exhausted retries degrade to a coarser tolerance and
	// then the baseline-fallback solver — surfaced in Metrics.Attempts /
	// FaultsObserved / Degraded. Setup (PrepareInstance) is always
	// fault-free: the fault model covers serving, not construction.
	Faults *faultinject.Plan
	// Retries bounds full-tolerance recovery re-attempts (0 selects 2).
	// Meaningful only with Faults set.
	Retries int
}

// Graph returns the instance's graph (shared, read-only).
func (in *Instance) Graph() *graph.Graph { return in.g }

// Mode returns the instance's communication model.
func (in *Instance) Mode() Mode { return in.mode }

// Seed returns the base seed the instance was prepared with.
func (in *Instance) Seed() int64 { return in.seed }

// Tol returns the instance's default request tolerance.
func (in *Instance) Tol() float64 { return in.tol }

// GlobalTree exposes the cached global aggregation tree (read-only).
func (in *Instance) GlobalTree() *graph.Tree { return in.tree }

// SetupMetrics returns the communication cost PrepareInstance paid (the
// charged BFS in ModeCongest; zero rounds in the Supported modes).
func (in *Instance) SetupMetrics() Metrics { return in.setup }

// Comm builds this request's private communication substrate: a freshly
// seeded engine over the shared graph with the cached global tree injected,
// so construction charges nothing. Each request must use its own comm —
// engines are single-goroutine objects; the instance state they share is
// read-only.
func (in *Instance) Comm(req Request) Comm {
	nw := congest.NewNetwork(in.g, congest.Options{
		Supported: in.supported,
		Topology:  in.csr,
		Seed:      req.Seed,
		Trace:     simtrace.OrNop(req.Trace),
		Cancel:    req.Cancel,
		Faults:    req.Faults,
	})
	local := newCongestCommWithTree(nw, in.naive, in.tree)
	if in.hybrid {
		global := ncc.NewNetworkWith(in.g.N(), nw.Trace())
		global.SetFaults(req.Faults)
		return &HybridComm{local: local, global: global}
	}
	return local
}

// Network builds a request-private supported CONGEST network over the
// instance's graph (for the non-solve applications: MST, part-wise
// aggregation). Same isolation contract as Comm.
func (in *Instance) Network(req Request) *congest.Network {
	return congest.NewNetwork(in.g, congest.Options{
		Supported: true,
		Topology:  in.csr,
		Seed:      req.Seed,
		Trace:     simtrace.OrNop(req.Trace),
		Cancel:    req.Cancel,
		Faults:    req.Faults,
	})
}

// Solve runs the per-request iteration half of a Laplacian solve against
// the cached instance state: PCG with the prepared preconditioner, or
// Chebyshev iteration with the cached spectral bounds. The trace it emits
// contains iteration phases only — setup appeared exactly once, under
// PrepareInstance's "prepare" span.
func (in *Instance) Solve(b []float64, req Request) (res *Result, err error) {
	defer congest.CatchCancel(&err)
	if req.Cancel != nil {
		if err := req.Cancel(); err != nil {
			return nil, err
		}
	}
	tol := req.Tol
	if tol <= 0 {
		tol = in.tol
	}
	if req.Faults != nil {
		// Faulty execution runs the self-checking recovery loop
		// (recover.go): verified attempts, bounded retries, degradation.
		return in.solveRecovering(b, req, tol)
	}
	return in.iterate(in.Comm(req), b, in.pre, Options{Tol: tol, MaxIter: req.MaxIter, Cancel: req.Cancel})
}

// iterate is the iteration half shared by every solve against the instance:
// Chebyshev iteration with the cached spectral bounds, or PCG with pre
// (the prepared preconditioner, or the identity for the baseline fallback).
func (in *Instance) iterate(c Comm, b []float64, pre Preconditioner, opts Options) (*Result, error) {
	if in.cheb {
		return SolveChebyshev(c, b, ChebyshevOptions{
			Tol: opts.Tol, Lo: in.lo, Hi: in.hi, MaxIter: opts.MaxIter, Cancel: opts.Cancel,
		})
	}
	return Iterate(c, b, pre, opts)
}

// SizeBytes returns the resident size of the cached instance state —
// graph, CSR view, global tree and preconditioner structures — summed from
// the capacities of the slices it holds, for cache budgeting
// (cmd/distlapd's LRU). It is deterministic: a pure function of the
// prepared structures, not a heap measurement.
func (in *Instance) SizeBytes() int64 {
	const structs = 512 // Instance, Graph, CSR and preconditioner headers
	bytes := structs + in.g.SizeBytes() + in.csr.SizeBytes() + in.tree.SizeBytes()
	if sp, ok := in.pre.(*SchwarzPrecond); ok {
		bytes += sp.sizeBytes()
	}
	return bytes
}
