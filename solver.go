package distlap

import (
	"context"
	"io"

	"distlap/internal/apps"
	"distlap/internal/congest"
	"distlap/internal/core"
	"distlap/internal/partwise"
	"distlap/internal/simtrace"
)

// Collector receives the deterministic instrumentation events of a run:
// phase spans, per-engine round and message charges, and named counters.
// Collectors are passive — they never alter scheduling, randomness, or the
// measured metrics — so the same seed produces bit-identical results
// whether or not a trace is attached. See NewInMemoryTrace, NewJSONLTrace
// and NopTrace for the provided sinks.
type Collector = simtrace.Collector

// PhaseStat is one phase's exclusive cost in a recorded trace: rounds and
// messages charged while the phase path was the innermost open span.
type PhaseStat = simtrace.PhaseStat

// Metrics is the structured communication cost of a run: per-engine totals
// plus the per-phase breakdown when a trace was attached.
type Metrics = core.Metrics

// EngineMetrics is one engine's totals (rounds, messages, max edge load).
type EngineMetrics = core.EngineMetrics

// NewInMemoryTrace returns a queryable in-memory trace collector. Attach it
// with WithTrace, run, then inspect Phases, TopEdges, Counters, etc.
func NewInMemoryTrace() *simtrace.InMemory { return simtrace.NewInMemory() }

// NewJSONLTrace returns a trace collector that streams events to w as JSON
// lines with a fixed key order; same-seed runs produce byte-identical
// streams. Call Flush after the run to emit the summary records. The output
// is consumable by cmd/simtrace.
func NewJSONLTrace(w io.Writer) *simtrace.JSONL { return simtrace.NewJSONL(w) }

// NopTrace returns the no-op collector (the default when no trace is set).
func NopTrace() Collector { return simtrace.Nop{} }

// Solver is the configured entry point to the distributed Laplacian solver
// and its applications. Construct one with NewSolver and functional
// options; the zero configuration is Supported-CONGEST universal mode,
// tolerance 1e-8, seed 1 and no trace.
//
//	tr := distlap.NewInMemoryTrace()
//	s := distlap.NewSolver(
//		distlap.WithMode(distlap.ModeUniversal),
//		distlap.WithEps(1e-8),
//		distlap.WithSeed(7),
//		distlap.WithTrace(tr),
//	)
//	res, err := s.Solve(g, b)
//
// A Solver is a value object: methods do not mutate it, and the same Solver
// may be reused across graphs.
//
// Concurrency contract. The one-shot Solver methods (Solve, Flow, ...) each
// run a private sequential simulation; concurrent calls on one Solver are
// safe only when no trace collector is attached, because a collector is a
// single-writer object shared by every call that Solver makes. For
// concurrent serving, Prepare an Instance instead: a prepared Instance is
// immutable and safe for concurrent use — requests share only read-only
// state, and each request attaches its own collector via WithRequestTrace.
//
// Amortization. Every one-shot method rebuilds the full per-graph setup
// (aggregation trees, cluster covers, preconditioner state) on each call.
// When the same graph is solved more than once — multiple right-hand sides,
// repeated flow queries, a serving daemon — call Prepare once and issue
// requests against the returned Instance; setup is then charged exactly
// once, under Prepare.
type Solver struct {
	mode  Mode
	eps   float64
	seed  int64
	trace simtrace.Collector
	cheb  bool
	lo    float64
	hi    float64
}

// Option configures a Solver.
type Option func(*Solver)

// WithMode selects the communication model (default ModeUniversal).
func WithMode(m Mode) Option { return func(s *Solver) { s.mode = m } }

// WithEps sets the relative-residual tolerance of solves (default 1e-8).
func WithEps(eps float64) Option { return func(s *Solver) { s.eps = eps } }

// WithSeed sets the deterministic seed (default 1). Every derived source of
// randomness — network scheduling, preconditioner clustering, iteration
// start vectors — is a pure function of this seed.
func WithSeed(seed int64) Option { return func(s *Solver) { s.seed = seed } }

// WithTrace attaches a trace collector; every method routes its
// instrumentation (phase spans, round/message charges, counters) through
// it. nil restores the default no-op collector.
func WithTrace(c Collector) Option { return func(s *Solver) { s.trace = c } }

// WithChebyshev switches the Laplacian solves to distributed Chebyshev
// iteration — the alternative iteration with no per-iteration global
// reductions, which wins on high-diameter topologies. lo and hi bracket
// the spectrum of the normalized system; pass 0, 0 for safe automatic
// bounds. It affects Solve, SolveSDD, Flow, EffectiveResistance and every
// solve against an Instance this Solver prepares (whose spectral bounds
// are then computed once, at Prepare). MaxFlow and SpectralPartition keep
// running preconditioned CG, and MinimumSpanningTree and AggregateParts
// run no Laplacian solve at all.
func WithChebyshev(lo, hi float64) Option {
	return func(s *Solver) { s.cheb = true; s.lo, s.hi = lo, hi }
}

// NewSolver returns a Solver with the defaults (ModeUniversal, eps 1e-8,
// seed 1, no trace) overridden by the given options.
func NewSolver(opts ...Option) *Solver {
	s := &Solver{mode: ModeUniversal, eps: 1e-8, seed: 1}
	for _, o := range opts {
		o(s)
	}
	return s
}

// config is the Solver's full configuration as a core.PrepareConfig: the
// one configuration behind Prepare and every one-shot solve.
func (sv *Solver) config() core.PrepareConfig {
	return core.PrepareConfig{
		Mode:      sv.mode,
		Tol:       sv.eps,
		Seed:      sv.seed,
		Trace:     sv.trace,
		Chebyshev: sv.cheb,
		Lo:        sv.lo,
		Hi:        sv.hi,
	}
}

// Solve solves the Laplacian system L_g x = b to the configured tolerance
// and reports the measured communication cost. b must sum to
// (approximately) zero; the solution is mean-centered. The one-shot solve
// is literally Prepare followed by the instance's iteration, run on the
// setup engine, so its cost includes setup (the charged BFS in
// ModeCongest).
func (sv *Solver) Solve(g *Graph, b []float64) (*Result, error) {
	return core.SolveOnce(context.TODO(), g, b, sv.config())
}

// SolveSDD solves the symmetric diagonally-dominant system
// (L_g + diag(extra)) x = b via the grounded-Laplacian reduction. extra
// must be nonnegative integers with at least one positive entry; b may have
// any sum.
func (sv *Solver) SolveSDD(g *Graph, extra []int64, b []float64) (*Result, error) {
	return core.SolveSDD(g, extra, b, sv.config())
}

// Flow computes the unit s-t electrical flow on g (potentials, currents,
// effective resistance) through one distributed solve.
func (sv *Solver) Flow(g *Graph, s, t int) (*ElectricalFlow, error) {
	return apps.SolveFlow(g, s, t, func(b []float64) (*Result, error) {
		return sv.Solve(g, b)
	})
}

// EffectiveResistance returns the s-t effective resistance of g.
func (sv *Solver) EffectiveResistance(g *Graph, s, t int) (float64, error) {
	fl, err := sv.Flow(g, s, t)
	if err != nil {
		return 0, err
	}
	return fl.Resistance, nil
}

// MaxFlow approximates the s-t maximum flow via electrical-flow
// multiplicative weights: every MWU iteration is one distributed Laplacian
// solve. eps is the MWU approximation parameter in (0, 0.5) — distinct from
// the solver tolerance, which the MWU solves fix at 1e-8. The solves always
// run PCG, whatever WithChebyshev says.
func (sv *Solver) MaxFlow(g *Graph, s, t int, eps float64) (*apps.ApproxFlowResult, error) {
	a := &apps.ApproxMaxFlow{Mode: sv.mode, Epsilon: eps, Seed: sv.seed, Trace: sv.trace}
	return a.Run(g, s, t)
}

// SpectralPartition approximates the Fiedler vector by inverse power
// iteration (one distributed solve per step) and returns the sign-cut
// bipartition with its measured rounds. The solves always run PCG,
// whatever WithChebyshev says.
func (sv *Solver) SpectralPartition(g *Graph) (*apps.SpectralResult, error) {
	sp := &apps.SpectralPartitioner{Mode: sv.mode, Tol: sv.eps, Seed: sv.seed, Trace: sv.trace}
	return sp.Partition(g)
}

// MinimumSpanningTree computes an MST distributedly with Borůvka phases
// over part-wise aggregation in Supported-CONGEST.
func (sv *Solver) MinimumSpanningTree(g *Graph) (*MSTResult, error) {
	return mst(sv.network(g))
}

// network builds the one-shot supported CONGEST network of the non-solve
// applications (MST, part-wise aggregation).
func (sv *Solver) network(g *Graph) *congest.Network {
	return congest.NewNetwork(g, congest.Options{
		Supported: true, Seed: sv.seed, Trace: simtrace.OrNop(sv.trace),
	})
}

// AggregateResult reports a part-wise aggregation: the per-part aggregates
// and the structured communication cost of the run.
type AggregateResult struct {
	Values  []int64
	Metrics Metrics
}

// AggregateParts solves a p-congested part-wise aggregation instance on g
// in Supported-CONGEST via the paper's layered-graph reduction.
func (sv *Solver) AggregateParts(g *Graph, inst *PartwiseInstance, spec AggSpec) (*AggregateResult, error) {
	return aggregateParts(sv.network(g), sv.seed, inst, spec)
}

// mst is the MST computation shared by Solver and Instance: Borůvka over
// shortcut part-wise aggregation on nw.
func mst(nw *congest.Network) (*MSTResult, error) {
	return apps.MST(nw, partwise.NewShortcutSolver())
}

// aggregateParts is the part-wise aggregation shared by Solver and
// Instance: the layered-graph reduction seeded with seed, run on nw.
func aggregateParts(nw *congest.Network, seed int64, inst *PartwiseInstance, spec AggSpec) (*AggregateResult, error) {
	out, err := partwise.NewLayeredSolver(seed).Solve(nw, inst, spec)
	if err != nil {
		return nil, err
	}
	// congest.Word is an alias of int64, so the solver's output slice is
	// already the []int64 we return — no copy.
	return &AggregateResult{
		Values: out,
		Metrics: Metrics{
			Congest: core.CongestEngineMetrics(nw),
			Phases:  core.PhasesOf(nw.Trace()),
		},
	}, nil
}
