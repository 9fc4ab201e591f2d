package distlap_test

// Tests for the prepared-Instance API and the one solve path behind it:
// the amortization contract (setup phases appear exactly once, under
// Prepare — never in a request trace), exact parity between every one-shot
// Solver method and its prepared counterpart when the request seed is
// pinned, request-level determinism of the derived seeds, concurrent solves
// on one shared instance (run under -race in CI), and context cancellation.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"distlap"
	"distlap/internal/graph"
	"distlap/internal/linalg"
	"distlap/internal/partwise"
)

func modes() []distlap.Mode {
	return []distlap.Mode{
		distlap.ModeUniversal,
		distlap.ModeCongest,
		distlap.ModeBaseline,
		distlap.ModeHybrid,
	}
}

func parityGraph() (*distlap.Graph, []float64) {
	for _, f := range distlap.Families() {
		if f.Name == "grid" {
			g := f.Make(42)
			return g, linalg.RandomBVector(g.N(), 9)
		}
	}
	panic("no grid family")
}

func sameResult(t *testing.T, label string, a, b *distlap.Result) {
	t.Helper()
	if a.Iterations != b.Iterations || a.Rounds != b.Rounds {
		t.Errorf("%s: iterations/rounds diverge: (%d,%d) vs (%d,%d)",
			label, a.Iterations, a.Rounds, b.Iterations, b.Rounds)
	}
	if a.Residual != b.Residual {
		t.Errorf("%s: residuals diverge: %v vs %v", label, a.Residual, b.Residual)
	}
	if len(a.X) != len(b.X) {
		t.Fatalf("%s: solution lengths diverge", label)
	}
	for i := range a.X {
		if a.X[i] != b.X[i] {
			t.Errorf("%s: X[%d] diverges: %v vs %v", label, i, a.X[i], b.X[i])
			return
		}
	}
}

// setupPhases are the phase names only preparation may charge or trace.
var setupPhases = []string{"prepare", "comm-setup", "precond-setup", "spectral-bounds"}

func isSetupPhase(path string) bool {
	for _, s := range setupPhases {
		if strings.Contains(path, s) {
			return true
		}
	}
	return false
}

func countSetupPhases(t *testing.T, tr *distlap.Metrics) int {
	t.Helper()
	n := 0
	for _, ph := range tr.Phases {
		if isSetupPhase(ph.Path) {
			n += ph.Count
		}
	}
	return n
}

func phasesContain(phases []distlap.PhaseStat, name string) bool {
	for _, ph := range phases {
		if strings.Contains(ph.Path, name) {
			return true
		}
	}
	return false
}

// TestInstanceSolveTraceHasNoSetup is the amortization acceptance check:
// Prepare's trace contains the setup spans, and a request's trace contains
// none of them — setup ran exactly once, under Prepare.
func TestInstanceSolveTraceHasNoSetup(t *testing.T) {
	g, b := parityGraph()
	prep := distlap.NewInMemoryTrace()
	inst, err := distlap.NewSolver(distlap.WithSeed(3), distlap.WithTrace(prep)).Prepare(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if !phasesContain(prep.Phases(), "prepare") || !phasesContain(prep.Phases(), "precond-setup") {
		t.Fatalf("prepare trace missing setup spans: %+v", prep.Phases())
	}

	req := distlap.NewInMemoryTrace()
	res, err := inst.Solve(context.Background(), b, distlap.WithRequestTrace(req))
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Phases == nil {
		t.Fatal("request trace produced no phase table")
	}
	if n := countSetupPhases(t, &res.Metrics); n != 0 {
		t.Fatalf("request trace charged %d setup phases: %+v", n, res.Metrics.Phases)
	}
	if !phasesContain(res.Metrics.Phases, "solve") {
		t.Fatalf("request trace missing the solve span: %+v", res.Metrics.Phases)
	}
}

// TestInstanceSolveBatchChargesSetupZeroTimes verifies over the simtrace
// phase table that a k-RHS batch charges setup zero times: one shared
// collector across the whole batch records k solve spans and no setup span.
func TestInstanceSolveBatchChargesSetupZeroTimes(t *testing.T) {
	g, b := parityGraph()
	inst, err := distlap.NewSolver(distlap.WithSeed(3)).Prepare(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	bs := [][]float64{b, linalg.RandomBVector(g.N(), 11), linalg.RandomBVector(g.N(), 12)}
	tr := distlap.NewInMemoryTrace()
	// The batch runs sequentially, so one collector across all RHS is safe
	// and lets the phase table count spans over the whole batch.
	if _, err := inst.SolveBatch(context.Background(), bs, distlap.WithRequestTrace(tr)); err != nil {
		t.Fatal(err)
	}
	solves, setups := 0, 0
	for _, ph := range tr.Phases() {
		if ph.Path == "solve" {
			solves += ph.Count
		}
		for _, s := range setupPhases {
			if strings.Contains(ph.Path, s) {
				setups += ph.Count
			}
		}
	}
	if solves != len(bs) {
		t.Errorf("batch of %d recorded %d solve spans", len(bs), solves)
	}
	if setups != 0 {
		t.Errorf("batch charged setup %d times, want 0: %+v", setups, tr.Phases())
	}
}

// TestInstanceSolveParityWithOneShot pins the one-shot setup engine
// against a fresh request engine bit-for-bit in every mode: the one-shot
// Solve keeps iterating on the engine Prepare ran on, while the instance
// request runs on a new engine seeded with the same seed, and the two
// replay the same execution (setup consumes no scheduling randomness). In
// ModeCongest the one-shot engine additionally carries the charged BFS,
// which the instance paid once under Prepare — the amortization itself —
// so there the round ledger must balance: request rounds + setup rounds =
// one-shot rounds.
func TestInstanceSolveParityWithOneShot(t *testing.T) {
	g, b := parityGraph()
	for _, mode := range modes() {
		sv := distlap.NewSolver(distlap.WithMode(mode), distlap.WithSeed(7))
		want, err := sv.Solve(g, b)
		if err != nil {
			t.Fatalf("%s: one-shot: %v", mode, err)
		}
		inst, err := sv.Prepare(context.Background(), g)
		if err != nil {
			t.Fatalf("%s: prepare: %v", mode, err)
		}
		got, err := inst.Solve(context.Background(), b, distlap.WithRequestSeed(7))
		if err != nil {
			t.Fatalf("%s: instance solve: %v", mode, err)
		}
		setup := inst.SetupMetrics()
		if mode == distlap.ModeCongest {
			if setup.TotalRounds() == 0 {
				t.Errorf("congest: expected Prepare to pay the charged BFS, setup rounds = 0")
			}
			if got.Rounds+setup.TotalRounds() != want.Rounds {
				t.Errorf("congest: round ledger off: %d request + %d setup != %d one-shot",
					got.Rounds, setup.TotalRounds(), want.Rounds)
			}
			// Everything but the setup-round attribution must still match.
			got = cloneResultWithRounds(got, want.Rounds)
		} else if setup.TotalRounds() != 0 {
			t.Errorf("%s: supported-mode setup charged %d rounds, want 0", mode, setup.TotalRounds())
		}
		sameResult(t, string(mode)+"/instance-vs-oneshot", got, want)
	}
}

// cloneResultWithRounds copies r with the round count replaced, so parity
// helpers can compare everything else bit-for-bit.
func cloneResultWithRounds(r *distlap.Result, rounds int) *distlap.Result {
	c := *r
	c.Rounds = rounds
	return &c
}

// TestInstanceBatchMatchesSolve pins the derived-seed contract:
// SolveBatch(bs)[0] uses the same derived request seed as Solve(bs[0]), so
// the two are bit-identical; a second identical RHS at index 1 derives a
// different stream (same solution up to scheduling, but an independent
// request).
func TestInstanceBatchMatchesSolve(t *testing.T) {
	g, b := parityGraph()
	inst, err := distlap.NewSolver(distlap.WithSeed(5)).Prepare(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	single, err := inst.Solve(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := inst.SolveBatch(context.Background(), [][]float64{b, b})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "batch[0]-vs-solve", batch[0], single)
}

// TestInstanceConcurrentSolves runs parallel solves against one shared
// prepared instance, each with its own trace collector — the concurrency
// contract CI verifies under -race. Every goroutine must reproduce the
// sequential reference bit-for-bit.
func TestInstanceConcurrentSolves(t *testing.T) {
	g, b := parityGraph()
	inst, err := distlap.NewSolver(distlap.WithSeed(2)).Prepare(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	want, err := inst.Solve(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	results := make([]*distlap.Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tr := distlap.NewInMemoryTrace()
			results[w], errs[w] = inst.Solve(context.Background(), b, distlap.WithRequestTrace(tr))
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		sameResult(t, "concurrent-vs-sequential", results[w], want)
	}
}

// TestInstanceCancelledContext verifies both halves of the lifecycle refuse
// a dead context with the context's own error, not a panic.
func TestInstanceCancelledContext(t *testing.T) {
	g, b := parityGraph()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sv := distlap.NewSolver()
	if _, err := sv.Prepare(ctx, g); err != context.Canceled {
		t.Errorf("Prepare on cancelled ctx: got %v, want context.Canceled", err)
	}
	inst, err := sv.Prepare(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Solve(ctx, b); err != context.Canceled {
		t.Errorf("Solve on cancelled ctx: got %v, want context.Canceled", err)
	}
	if _, err := inst.MST(ctx); err != context.Canceled {
		t.Errorf("MST on cancelled ctx: got %v, want context.Canceled", err)
	}
}

// TestInstanceFlowAndMSTParity pins the instance application methods
// against their one-shot counterparts with the request seed pinned.
func TestInstanceFlowAndMSTParity(t *testing.T) {
	g, _ := parityGraph()
	sv := distlap.NewSolver(distlap.WithSeed(9))
	inst, err := sv.Prepare(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	wantFlow, err := sv.Flow(g, 0, g.N()-1)
	if err != nil {
		t.Fatal(err)
	}
	gotFlow, err := inst.Flow(context.Background(), 0, g.N()-1, distlap.WithRequestSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	if gotFlow.Resistance != wantFlow.Resistance || gotFlow.Iterations != wantFlow.Iterations {
		t.Errorf("flow diverges: (%v,%d) vs (%v,%d)",
			gotFlow.Resistance, gotFlow.Iterations, wantFlow.Resistance, wantFlow.Iterations)
	}
	wantMST, err := sv.MinimumSpanningTree(g)
	if err != nil {
		t.Fatal(err)
	}
	gotMST, err := inst.MST(context.Background(), distlap.WithRequestSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	if gotMST.Weight != wantMST.Weight || gotMST.Rounds != wantMST.Rounds {
		t.Errorf("mst diverges: (%d,%d) vs (%d,%d)",
			gotMST.Weight, gotMST.Rounds, wantMST.Weight, wantMST.Rounds)
	}
	if wantMST.Metrics.Congest.Rounds != wantMST.Rounds {
		t.Errorf("mst Metrics.Congest.Rounds %d != Rounds %d", wantMST.Metrics.Congest.Rounds, wantMST.Rounds)
	}
}

// TestInstanceChebyshev covers the Chebyshev instance path: spectral bounds
// cached at Prepare, per-request iteration with no setup spans.
func TestInstanceChebyshev(t *testing.T) {
	g, b := parityGraph()
	sv := distlap.NewSolver(distlap.WithSeed(4), distlap.WithChebyshev(0, 0), distlap.WithEps(1e-6))
	want, err := sv.Solve(g, b)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sv.Prepare(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	tr := distlap.NewInMemoryTrace()
	got, err := inst.Solve(context.Background(), b, distlap.WithRequestSeed(4), distlap.WithRequestTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "chebyshev-instance", got, want)
	if phasesContain(tr.Phases(), "spectral-bounds") {
		t.Errorf("request recomputed spectral bounds: %+v", tr.Phases())
	}
}

// TestSolverParitySolve pins the setup of a one-shot Solve in every mode:
// it is Prepare's, traced once under "prepare" (no setup span elsewhere)
// and charging exactly the setup rounds Prepare reports. The Result's
// engine ledger still accounts for every round it reports (setup
// included), and hybrid runs populate the NCC ledger.
func TestSolverParitySolve(t *testing.T) {
	g, b := parityGraph()
	for _, mode := range modes() {
		tr := distlap.NewInMemoryTrace()
		res, err1 := distlap.NewSolver(distlap.WithMode(mode), distlap.WithSeed(7), distlap.WithTrace(tr)).Solve(g, b)
		inst, err2 := distlap.NewSolver(distlap.WithMode(mode), distlap.WithSeed(7)).Prepare(context.Background(), g)
		if err := errors.Join(err1, err2); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if res.Metrics.TotalRounds() != res.Rounds {
			t.Errorf("%s: Metrics.TotalRounds %d != Rounds %d", mode, res.Metrics.TotalRounds(), res.Rounds)
		}
		if mode == distlap.ModeHybrid && res.Metrics.NCC == nil {
			t.Errorf("hybrid: Metrics.NCC not populated")
		}
		prepares, setupRounds := 0, 0
		for _, ph := range tr.Phases() {
			switch {
			case ph.Path == "prepare":
				prepares += ph.Count
				setupRounds += ph.Rounds
			case strings.HasPrefix(ph.Path, "prepare/"):
				setupRounds += ph.Rounds
			case isSetupPhase(ph.Path):
				t.Errorf("%s: setup span %q outside prepare", mode, ph.Path)
			}
		}
		if want := inst.SetupMetrics().TotalRounds(); prepares != 1 || setupRounds != want {
			t.Errorf("%s: %d prepare spans charging %d rounds, want 1 charging %d", mode, prepares, setupRounds, want)
		}
	}
}

// TestSolverParityChebyshev pins the Solver's one-shot electrical methods
// against the prepared ones under WithChebyshev: both paths run Chebyshev
// iteration, so flows and resistances are bit-identical.
func TestSolverParityChebyshev(t *testing.T) {
	g, _ := parityGraph()
	ctx, seed := context.Background(), distlap.WithRequestSeed(2)
	sv := distlap.NewSolver(distlap.WithSeed(2), distlap.WithChebyshev(0, 0))
	inst, err := sv.Prepare(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	got, err1 := sv.Flow(g, 0, g.N()-1)
	want, err2 := inst.Flow(ctx, 0, g.N()-1, seed)
	r, err3 := sv.EffectiveResistance(g, 0, 5)
	wantR, err4 := inst.EffectiveResistance(ctx, 0, 5, seed)
	if err := errors.Join(err1, err2, err3, err4); err != nil {
		t.Fatal(err)
	}
	if got.Iterations != want.Iterations || got.Rounds != want.Rounds || got.Resistance != want.Resistance {
		t.Errorf("flow diverges: (%d it, %d rounds, R %v) vs (%d it, %d rounds, R %v)",
			got.Iterations, got.Rounds, got.Resistance, want.Iterations, want.Rounds, want.Resistance)
	}
	// %v prints each float64 in its shortest round-tripping form, so equal
	// strings mean bit-identical vectors.
	if fmt.Sprint(got.Potentials, got.EdgeCurrent) != fmt.Sprint(want.Potentials, want.EdgeCurrent) {
		t.Errorf("flow potentials or currents diverge")
	}
	if r != wantR {
		t.Errorf("effective resistance diverges: %v vs %v", r, wantR)
	}
}

// TestSolverParityAggregateParts pins Solver.AggregateParts against
// Instance.AggregateParts with the request seed pinned: the values and the
// whole engine cost agree.
func TestSolverParityAggregateParts(t *testing.T) {
	g, _ := parityGraph()
	pwa := partwise.RandomCongestedInstance(g, 3, 4, 11)
	sv := distlap.NewSolver(distlap.WithSeed(5))
	want, err := sv.AggregateParts(g, pwa, distlap.AggMax)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sv.Prepare(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := inst.AggregateParts(context.Background(), pwa, distlap.AggMax, distlap.WithRequestSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got.Values) != fmt.Sprint(want.Values) || got.Metrics.Congest != want.Metrics.Congest {
		t.Errorf("aggregation diverges: %v %+v vs %v %+v", got.Values, got.Metrics.Congest, want.Values, want.Metrics.Congest)
	}
	if want.Metrics.Congest.Rounds <= 0 {
		t.Errorf("aggregation charged no rounds")
	}
}

// TestSolverParityApplications pins the applications WithChebyshev leaves
// alone: MaxFlow and SpectralPartition return the same answers and rounds
// with and without it.
func TestSolverParityApplications(t *testing.T) {
	g, _ := parityGraph()
	pcg := distlap.NewSolver(distlap.WithSeed(2))
	cheb := distlap.NewSolver(distlap.WithSeed(2), distlap.WithChebyshev(0, 0))
	sp, err1 := pcg.SpectralPartition(g)
	spCheb, err2 := cheb.SpectralPartition(g)
	mf, err3 := pcg.MaxFlow(g, 0, g.N()-1, 0.1)
	mfCheb, err4 := cheb.MaxFlow(g, 0, g.N()-1, 0.1)
	if err := errors.Join(err1, err2, err3, err4); err != nil {
		t.Fatal(err)
	}
	if sp.Lambda2 != spCheb.Lambda2 || sp.Rounds != spCheb.Rounds || sp.CutWeight != spCheb.CutWeight {
		t.Errorf("spectral diverges: (%v,%d,%d) vs (%v,%d,%d)",
			sp.Lambda2, sp.Rounds, sp.CutWeight, spCheb.Lambda2, spCheb.Rounds, spCheb.CutWeight)
	}
	if mf.Value != mfCheb.Value || mf.Rounds != mfCheb.Rounds {
		t.Errorf("maxflow diverges: (%d,%d) vs (%d,%d)", mf.Value, mf.Rounds, mfCheb.Value, mfCheb.Rounds)
	}
}

// TestSolverParitySDD pins Solver.SolveSDD as a one-shot solve of the
// grounded Laplacian: preparing the augmented graph (a ground node joined
// by the extra diagonal) and solving it with the pinned seed gives the same
// result once the solution is shifted so the ground reads zero.
func TestSolverParitySDD(t *testing.T) {
	g, b := parityGraph()
	extra := make([]int64, g.N())
	extra[0], extra[g.N()/2] = 2, 1
	sv := distlap.NewSolver(distlap.WithSeed(4))
	got, err := sv.SolveSDD(g, extra, b)
	if err != nil {
		t.Fatal(err)
	}
	aug, bAug := g.Clone(), append([]float64(nil), b...)
	z := aug.AddNode()
	aug.MustAddEdge(0, z, 2)
	aug.MustAddEdge(g.N()/2, z, 1)
	sum := 0.0
	for _, x := range b {
		sum += x
	}
	bAug = append(bAug, -sum)
	inst, err := sv.Prepare(context.Background(), aug)
	if err != nil {
		t.Fatal(err)
	}
	want, err := inst.Solve(context.Background(), bAug, distlap.WithRequestSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	for v := range want.X {
		want.X[v] -= want.X[z]
	}
	want.X = want.X[:g.N()]
	sameResult(t, "sdd", got, want)
}

// FuzzSolveMatchesExact checks the one solve path on small random
// connected graphs in every mode: the one-shot answer is accurate, and it
// is exactly Prepare + Instance.Solve with the request seed pinned to the
// Solver seed.
//
// Accuracy bound. PCG stops once the relative residual ‖b − Lx‖/‖b‖ is at
// most eps, which bounds the relative L-error by eps·√κ, κ = λmax/λ₂. With
// integer weights ≥ 1 the graph dominates its unweighted skeleton, so
// λ₂ ≥ 4/(n·D) ≥ 4/n² (Mohar), and λmax ≤ 2·dmax for the maximum weighted
// degree dmax. The test allows twice eps·√(2·dmax·n²/4): the factor 2
// absorbs the drift between PCG's recurrence residual and the true one and
// the rounding of the dense reference solve, both far below eps on graphs
// this small.
func FuzzSolveMatchesExact(f *testing.F) {
	f.Add(uint8(8), uint8(4), uint8(5), int64(1))
	f.Add(uint8(10), uint8(12), uint8(1), int64(7))
	f.Add(uint8(0), uint8(0), uint8(9), int64(-3))
	f.Add(uint8(5), uint8(30), uint8(200), int64(42))
	f.Fuzz(func(t *testing.T, size, extra, maxWeight uint8, seed int64) {
		const eps = 1e-8
		n := 2 + int(size)%11
		g := graph.RandomConnected(n, int(extra)%16, 1+int64(maxWeight)%16, seed)
		b := linalg.RandomBVector(n, seed)
		xStar, err := distlap.ExactSolve(g, b)
		if err != nil {
			t.Fatal(err)
		}
		dmax := int64(0)
		for v := 0; v < n; v++ {
			dmax = max(dmax, g.WeightedDegree(v))
		}
		bound := 2 * eps * math.Sqrt(float64(2*dmax)*float64(n*n)/4)
		for _, mode := range modes() {
			sv := distlap.NewSolver(distlap.WithMode(mode), distlap.WithEps(eps), distlap.WithSeed(seed))
			res, err1 := sv.Solve(g, b)
			inst, err2 := sv.Prepare(context.Background(), g)
			if err := errors.Join(err1, err2); err != nil {
				t.Fatalf("%s: %v", mode, err)
			}
			if e := distlap.RelativeLError(g, res.X, xStar); !(e <= bound) {
				t.Errorf("%s: relative L-error %g exceeds %g", mode, e, bound)
			}
			got, err := inst.Solve(context.Background(), b, distlap.WithRequestSeed(seed))
			if err != nil {
				t.Fatalf("%s: instance solve: %v", mode, err)
			}
			if setup := inst.SetupMetrics().TotalRounds(); got.Rounds+setup != res.Rounds {
				t.Errorf("%s: round ledger off: %d request + %d setup != %d one-shot", mode, got.Rounds, setup, res.Rounds)
			}
			sameResult(t, string(mode), cloneResultWithRounds(got, res.Rounds), res)
		}
	})
}
