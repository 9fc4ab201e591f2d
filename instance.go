package distlap

import (
	"context"
	"fmt"

	"distlap/internal/apps"
	"distlap/internal/congest"
	"distlap/internal/core"
	"distlap/internal/faultinject"
	"distlap/internal/seedderive"
	"distlap/internal/simtrace"
)

// Instance is a prepared per-graph solver instance: the expensive, per-graph
// half of every solve — global aggregation tree, shortcut-style cluster
// covers and cluster trees, preconditioner state, spectral bounds — built
// exactly once by Solver.Prepare and shared by every request. Its methods
// run only the cheap per-request iteration against the cached state, which
// is the amortization the paper's serving story rests on: one Prepare, then
// many Solve/Flow/MST calls each paying iteration cost alone.
//
// A prepared Instance is immutable and safe for concurrent use: concurrent
// requests share only read-only state; each request runs on its own
// freshly-seeded private engine, and trace collectors are per-request
// single-writer (attach one per call via WithRequestTrace — never share a
// collector across in-flight requests).
//
// Request determinism: each request's engine seed is derived from the
// instance seed and the request's identity via internal/seedderive, so
// identical requests against instances prepared with the same Solver
// configuration return byte-identical results — across processes, restarts
// and daemons. WithRequestSeed pins the engine seed exactly for callers
// that manage derivation themselves.
type Instance struct {
	mode  Mode
	eps   float64
	seed  int64
	inner *core.Instance
}

// Prepare runs the full one-time instance pipeline for g under the Solver's
// configuration — communication substrate (including the charged BFS in
// ModeCongest), preconditioner cluster covers and trees, or the Chebyshev
// spectral bounds — and returns the reusable Instance. The Solver's trace
// collector (if any) observes setup under a "prepare" phase span; request
// traces are attached per call on the Instance's methods.
//
// ctx cancels preparation between engine rounds. The Solver itself is not
// captured: changing the Solver afterwards does not affect the Instance.
func (sv *Solver) Prepare(ctx context.Context, g *Graph) (*Instance, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	inner, err := core.PrepareInstance(ctx, g, sv.config())
	if err != nil {
		return nil, err
	}
	return &Instance{mode: sv.mode, eps: inner.Tol(), seed: sv.seed, inner: inner}, nil
}

// ReqOption configures one request against a prepared Instance.
type ReqOption func(*reqCfg)

type reqCfg struct {
	eps     float64
	seed    int64
	hasSeed bool
	trace   simtrace.Collector
	faults  *faultinject.Plan
	retries int
}

// WithRequestTrace attaches a trace collector to this request only.
// Collectors are single-writer: use a distinct collector per in-flight
// request (the Instance never shares one across requests).
func WithRequestTrace(c Collector) ReqOption {
	return func(rc *reqCfg) { rc.trace = c }
}

// WithRequestEps overrides the solve tolerance for this request only.
func WithRequestEps(eps float64) ReqOption {
	return func(rc *reqCfg) { rc.eps = eps }
}

// WithRequestSeed pins this request's engine seed exactly, replacing the
// default derivation (seedderive over the instance seed and the request
// identity). Callers pinning seeds are responsible for deriving unrelated
// streams for unrelated requests — reach for internal/seedderive's scheme,
// not ad-hoc arithmetic.
func WithRequestSeed(seed int64) ReqOption {
	return func(rc *reqCfg) { rc.seed = seed; rc.hasSeed = true }
}

// request resolves the per-request configuration: explicit options over the
// derived defaults. phase/idx identify the request for seed derivation.
func (in *Instance) request(phase string, idx int64, opts []ReqOption) reqCfg {
	rc := reqCfg{eps: in.eps}
	for _, o := range opts {
		o(&rc)
	}
	if !rc.hasSeed {
		rc.seed = seedderive.Derive(in.seed, phase, idx)
	}
	return rc
}

func (in *Instance) coreRequest(ctx context.Context, rc reqCfg) core.Request {
	return core.Request{
		Tol: rc.eps, Seed: rc.seed, Trace: rc.trace, Cancel: ctx.Err,
		Faults: rc.faults, Retries: rc.retries,
	}
}

// Graph returns the instance's graph (shared, read-only — do not mutate a
// graph that has live instances prepared over it).
func (in *Instance) Graph() *Graph { return in.inner.Graph() }

// Mode returns the communication model the instance was prepared in.
func (in *Instance) Mode() Mode { return in.mode }

// Seed returns the base seed the instance was prepared with.
func (in *Instance) Seed() int64 { return in.seed }

// SetupMetrics reports the communication cost Prepare paid (zero rounds in
// the Supported modes, the charged BFS in ModeCongest) — the amortized
// numerator of the serving story.
func (in *Instance) SetupMetrics() Metrics { return in.inner.SetupMetrics() }

// SizeBytes returns the resident size of the cached instance state, summed
// from the slices it holds, for cache budgeting (cmd/distlapd's byte-budget
// LRU).
func (in *Instance) SizeBytes() int64 { return in.inner.SizeBytes() }

// Solve solves L x = b against the cached instance state, paying only
// iteration cost: its phase trace contains no construction phase (those ran
// exactly once, under Prepare). b must sum to approximately zero; the
// solution is mean-centered. ctx cancels between engine rounds.
func (in *Instance) Solve(ctx context.Context, b []float64, opts ...ReqOption) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	rc := in.request("instance/solve", 0, opts)
	return in.inner.Solve(b, in.coreRequest(ctx, rc))
}

// SolveBatch solves L x_i = b_i for every right-hand side against the one
// cached preconditioner, charging setup cost zero times — the multi-RHS
// amortization a daemon batches requests for. Right-hand side i uses the
// request seed derived at index i (so SolveBatch(bs)[0] matches Solve(bs[0])
// exactly); WithRequestSeed pins one seed for all of them. Results are
// returned in input order; the first error aborts the batch.
func (in *Instance) SolveBatch(ctx context.Context, bs [][]float64, opts ...ReqOption) ([]*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]*Result, len(bs))
	for i, b := range bs {
		rc := in.request("instance/solve", int64(i), opts)
		res, err := in.inner.Solve(b, in.coreRequest(ctx, rc))
		if err != nil {
			return nil, fmt.Errorf("distlap: batch rhs %d: %w", i, err)
		}
		out[i] = res
	}
	return out, nil
}

// Flow computes the unit s-t electrical flow through one per-request solve
// against the cached instance state.
func (in *Instance) Flow(ctx context.Context, s, t int, opts ...ReqOption) (*ElectricalFlow, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	g := in.inner.Graph()
	return apps.SolveFlow(g, s, t, func(b []float64) (*Result, error) {
		rc := in.request("instance/flow", int64(s)*int64(g.N())+int64(t), opts)
		return in.inner.Solve(b, in.coreRequest(ctx, rc))
	})
}

// EffectiveResistance returns the s-t effective resistance through one
// per-request solve against the cached instance state.
func (in *Instance) EffectiveResistance(ctx context.Context, s, t int, opts ...ReqOption) (float64, error) {
	fl, err := in.Flow(ctx, s, t, opts...)
	if err != nil {
		return 0, err
	}
	return fl.Resistance, nil
}

// MST computes an MST distributedly (Borůvka over part-wise aggregation in
// Supported-CONGEST) on a request-private network over the shared graph.
func (in *Instance) MST(ctx context.Context, opts ...ReqOption) (res *MSTResult, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	defer congest.CatchCancel(&err)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rc := in.request("instance/mst", 0, opts)
	return mst(in.network(ctx, rc))
}

// AggregateParts solves a p-congested part-wise aggregation instance on a
// request-private network over the shared graph (the paper's layered-graph
// reduction).
func (in *Instance) AggregateParts(ctx context.Context, inst *PartwiseInstance, spec AggSpec, opts ...ReqOption) (res *AggregateResult, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	defer congest.CatchCancel(&err)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rc := in.request("instance/aggregate", 0, opts)
	return aggregateParts(in.network(ctx, rc), rc.seed, inst, spec)
}

// network builds the request-private supported CONGEST network of the
// non-solve applications (MST, part-wise aggregation).
func (in *Instance) network(ctx context.Context, rc reqCfg) *congest.Network {
	return in.inner.Network(core.Request{Seed: rc.seed, Trace: rc.trace, Cancel: ctx.Err, Faults: rc.faults})
}
