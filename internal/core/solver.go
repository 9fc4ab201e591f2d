package core

import (
	"errors"
	"fmt"
	"math"

	"distlap/internal/linalg"
)

// Options configure a distributed solve.
type Options struct {
	// Tol is the target relative 2-norm residual ‖b − Lx‖/‖b‖; the
	// iteration count scales as log(1/Tol), the paper's log(1/ε) factor.
	Tol float64
	// MaxIter caps PCG iterations (0 selects a safe default).
	MaxIter int
	// Precond selects the preconditioner (nil = identity).
	Precond Preconditioner
	// Cancel, when non-nil, is polled at every iteration boundary; a
	// non-nil return aborts the solve with that error. Engine-internal
	// round barriers are additionally covered by the comm's own Cancel
	// hook (congest.Options.Cancel), so a cancelled request stops within
	// one scheduled round, not one PCG iteration.
	Cancel func() error
	// Verify, when non-nil, computes the true relative residual of a
	// candidate solution with local, zero-communication arithmetic. The
	// solver calls it whenever its distributed reductions claim
	// convergence: if the verified residual still exceeds Tol, the claim
	// was corrupted (fault-injected runs can corrupt the reduction tree)
	// and iteration continues instead of returning a silently wrong
	// vector. Reliable runs leave it nil — the distributed residual is
	// exact there, and charging zero rounds for a global check would
	// falsify the cost model.
	Verify func(x []float64) float64
}

// Result reports a distributed solve.
type Result struct {
	X           []float64
	Iterations  int
	Residual    float64 // achieved relative residual
	Rounds      int     // total communication rounds measured on the comm
	SetupRounds int     // rounds consumed before the first iteration
	// Metrics is the structured communication cost of the run: per-engine
	// totals plus the per-phase breakdown when the comm was traced with a
	// queryable collector. Rounds == Metrics.TotalRounds(); prefer Metrics
	// over the bare counters above.
	Metrics Metrics
}

// ErrBadTol is returned for nonsensical tolerances.
var ErrBadTol = errors.New("core: tolerance must be in (0, 1)")

// Solve runs the distributed preconditioned conjugate-gradient Laplacian
// solver over the given communication substrate. The right-hand side must
// (approximately) sum to zero; the returned solution is mean-centered.
//
// Every numerical reduction goes through comm.GlobalSums, every
// matrix-vector product through comm.MatVecLaplacian, and preconditioner
// applications through tree sweeps — so Result.Rounds is the measured
// CONGEST/HYBRID round complexity of the whole solve (Theorem 28's
// #iterations × Q(p) structure, with Q measured rather than assumed).
func Solve(c Comm, b []float64, opts Options) (*Result, error) {
	return iterate(c, b, opts.Precond, opts, true)
}

// Iterate runs the per-request half of a solve on a preconditioner whose
// Setup already ran (a prepared Instance, or any caller that amortizes
// setup across right-hand sides). It charges only iteration cost — no
// construction phase ever appears in its trace; setup phases belong to
// Prepare. pre must be non-nil and already set up against a comm over the
// same graph; its Apply must be read-only (the contract every shipped
// preconditioner satisfies after Setup).
func Iterate(c Comm, b []float64, pre Preconditioner, opts Options) (*Result, error) {
	return iterate(c, b, pre, opts, false)
}

// iterate is the one body of Solve and Iterate: it validates b and Tol and,
// under the "solve" span, runs pre's Setup first when setup is set (nil
// pre is the identity), then PCG from centering b through convergence.
func iterate(c Comm, b []float64, pre Preconditioner, opts Options, setup bool) (*Result, error) {
	g := c.Graph()
	n := g.N()
	if len(b) != n {
		return nil, fmt.Errorf("core: b has %d entries for n=%d", len(b), n)
	}
	if opts.Tol <= 0 || opts.Tol >= 1 {
		return nil, fmt.Errorf("%w: %g", ErrBadTol, opts.Tol)
	}
	if pre == nil {
		pre = &IdentityPrecond{}
	}
	tr := c.Tracer()
	tr.Begin("solve")
	defer tr.End("solve")
	if setup {
		tr.Begin("precond-setup")
		err := pre.Setup(c)
		tr.End("precond-setup")
		if err != nil {
			return nil, fmt.Errorf("core: precond setup: %w", err)
		}
	}
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = 40*n + 200
	}

	// Center b: one global sum, then a local subtraction (n is common
	// knowledge).
	tr.Begin("norms")
	sums, err := c.GlobalSums(b)
	if err != nil {
		tr.End("norms")
		return nil, err
	}
	bc := linalg.Copy(b)
	mean := sums[0] / float64(n)
	for i := range bc {
		bc[i] -= mean
	}
	bsq := make([]float64, n)
	for i := range bc {
		bsq[i] = bc[i] * bc[i]
	}
	sums, err = c.GlobalSums(bsq)
	tr.End("norms")
	if err != nil {
		return nil, err
	}
	bNorm := math.Sqrt(sums[0])
	setupRounds := c.Rounds()
	x := make([]float64, n)
	if bNorm == 0 { //distlint:allow floateq exact-zero guard: b == 0 has the exact solution x == 0
		return &Result{X: x, Rounds: c.Rounds(), SetupRounds: setupRounds,
			Metrics: c.CollectMetrics()}, nil
	}

	r := linalg.Copy(bc)
	tr.Begin("precond")
	z, err := pre.Apply(c, r)
	tr.End("precond")
	if err != nil {
		return nil, err
	}
	p := linalg.Copy(z)
	// Iteration scratch, allocated once per solve and reused every
	// iteration: the dot-product operand and the batched-reduction pair.
	// bsq is dead after the norm setup above, so it doubles as prod.
	prod := bsq
	rr := make([]float64, n)
	rzv := make([]float64, n)
	tr.Begin("reduce")
	rz, err := dotVia(c, prod, r, z)
	tr.End("reduce")
	if err != nil {
		return nil, err
	}
	for it := 1; it <= maxIter; it++ {
		if opts.Cancel != nil {
			if err := opts.Cancel(); err != nil {
				return nil, err
			}
		}
		tr.Begin("matvec")
		lp, err := c.MatVecLaplacian(p)
		tr.End("matvec")
		if err != nil {
			return nil, err
		}
		tr.Begin("reduce")
		plp, err := dotVia(c, prod, p, lp)
		tr.End("reduce")
		if err != nil {
			return nil, err
		}
		if plp <= 0 || math.IsNaN(plp) {
			return nil, fmt.Errorf("%w: curvature %g at iteration %d",
				linalg.ErrNoConverge, plp, it)
		}
		alpha := rz / plp
		linalg.AXPY(alpha, p, x)
		linalg.AXPY(-alpha, lp, r)

		tr.Begin("precond")
		z, err = pre.Apply(c, r)
		tr.End("precond")
		if err != nil {
			return nil, err
		}
		// Batch the two reductions of the tail of the iteration into one
		// pipelined aggregation.
		for i := range r {
			rr[i] = r[i] * r[i]
			rzv[i] = r[i] * z[i]
		}
		tr.Begin("reduce")
		pair, err := c.GlobalSums(rr, rzv)
		tr.End("reduce")
		if err != nil {
			return nil, err
		}
		res := math.Sqrt(pair[0]) / bNorm
		tr.Gauge("pcg.residual", it, res, c.Rounds())
		if res <= opts.Tol {
			xc := linalg.Copy(x)
			linalg.CenterMean(xc)
			if opts.Verify != nil {
				if vres := opts.Verify(xc); vres > opts.Tol {
					// The distributed reduction claims convergence but the
					// locally verified residual disagrees: a fault corrupted
					// the aggregation. Reject the claim and keep iterating —
					// never return a silently wrong vector.
					tr.Counter("pcg.verify-rejects", 1)
					tr.Gauge("pcg.verified", it, vres, c.Rounds())
				} else {
					tr.Gauge("pcg.verified", it, vres, c.Rounds())
					return &Result{
						X: xc, Iterations: it, Residual: vres,
						Rounds: c.Rounds(), SetupRounds: setupRounds,
						Metrics: c.CollectMetrics(),
					}, nil
				}
			} else {
				return &Result{
					X: xc, Iterations: it, Residual: res,
					Rounds: c.Rounds(), SetupRounds: setupRounds,
					Metrics: c.CollectMetrics(),
				}, nil
			}
		}
		rzNew := pair[1]
		if rzNew <= 0 || math.IsNaN(rzNew) {
			return nil, fmt.Errorf("%w: rz=%g at iteration %d (preconditioner not SPD?)",
				linalg.ErrNoConverge, rzNew, it)
		}
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	return nil, fmt.Errorf("%w after %d iterations", linalg.ErrNoConverge, maxIter)
}

// dotVia computes a global inner product through the comm, building the
// elementwise product in the caller's scratch buffer (no allocation).
func dotVia(c Comm, prod, a, b []float64) (float64, error) {
	linalg.MulInto(prod, a, b)
	sums, err := c.GlobalSums(prod)
	if err != nil {
		return 0, err
	}
	return sums[0], nil
}

// Mode selects a standard solver configuration for experiments and CLIs.
type Mode string

// Standard modes.
const (
	// ModeUniversal: Supported-CONGEST with per-cluster trees + shortcut-
	// style aggregation (Theorem 2, first bullet).
	ModeUniversal Mode = "universal"
	// ModeCongest: standard CONGEST (pays BFS/shortcut construction).
	ModeCongest Mode = "congest"
	// ModeBaseline: the existential baseline — everything over one global
	// BFS tree (the [18]-style √n + D shape).
	ModeBaseline Mode = "baseline"
	// ModeHybrid: CONGEST + NCC (Theorem 3).
	ModeHybrid Mode = "hybrid"
)
