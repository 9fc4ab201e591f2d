package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"distlap/internal/graph"
	"distlap/internal/linalg"
	"distlap/internal/service"
)

// workload is one benchmark workload: what set-up makes resident, and the
// seeded stream of requests the closed-loop clients send.
type workload struct {
	name       string
	endpoint   string // distlapd endpoint label the stream's requests hit
	clients    int    // closed-loop client goroutines
	warmup     int    // requests in the deterministic warm-up prefix
	period     int    // a timed phase ends only after a multiple of this many requests
	batch      int    // requests built before, and checked after, each served batch
	setupReps  int    // set-ups per run; setup_s is their median
	cacheBytes int64  // the server's instance-cache budget
	// newFixture builds the workload's set-up inputs; the request stream
	// then draws from rng.
	newFixture func(rng *rand.Rand) (fixture, error)
}

// fixture holds a workload's generated inputs.
type fixture interface {
	// setupLoads returns the built load requests set-up sends, in order.
	setupLoads() []*loadReq
	// draw takes request i's inputs from rng. Calls come in request order,
	// so request i is the same for a seed however the clients interleave.
	// Expensive materialization belongs in build.
	draw(rng *rand.Rand, i int) request
}

// request is one generated API request.
type request interface {
	// build materializes the request and returns its URL path and body.
	build() (path string, body []byte, err error)
	// check decodes a 200 response and runs the oracle on it. The answer
	// is filled in whenever the response decodes, even if the oracle then
	// fails, so the /metrics cross-check still sees what the server
	// charged.
	check(resp []byte) (answer, error)
	// replay re-runs the request one layer down through the program's
	// public functions, recording spans in rec, and fails unless the
	// replay reproduces the answer exactly. It returns the engine
	// messages the replay charged.
	replay(rc *replayCtx, rec *recorder, body []byte, ans answer) (int64, error)
}

// answer is what a decoded response reported.
type answer struct {
	rounds   int64 // engine rounds charged for the request
	messages int64 // engine messages charged, or -1 if the response has none
	evicted  int64 // instance ids the request evicted
	resp     any   // the decoded response; nil if it did not decode
}

const (
	// minTimedOps is the fewest requests a timed phase completes, so that
	// at least ten latency samples lie above p90.
	minTimedOps = 100
	solveEps    = 1e-8
	residentID  = "resident"
	// deploymentSeed draws the resident graph and its prepare seed on the
	// solve and MST workloads. The resident instance is the deployment the
	// request stream runs against, and it is the same for every --seed:
	// the Schwarz cluster cover it fixes moves PCG iteration counts by
	// ±10% from one prepare seed to the next, while the right-hand sides
	// move them by about 0.1%.
	deploymentSeed = 20221
	// solveBatch is the batch of the two-client workloads: large enough
	// that the one client left idle at a batch's end costs little
	// throughput. churnBatch divides churnPeriod and keeps the built edge
	// lists of a batch small.
	solveBatch = 16
	churnBatch = 10
)

var workloads = []*workload{
	{
		name: "grid-solve", endpoint: "solve", clients: 2, warmup: 8, period: 1, batch: solveBatch,
		setupReps: 25, newFixture: newSolveFixture("grid", 400),
	},
	{
		name: "expander-solve", endpoint: "solve", clients: 2, warmup: 8, period: 1, batch: solveBatch,
		setupReps: 25, newFixture: newSolveFixture("expander", 576),
	},
	{
		name: "mst-serve", endpoint: "mst", clients: 2, warmup: 8, period: 1, batch: solveBatch,
		setupReps: 25, newFixture: newMSTFixture(500),
	},
	{
		name: "load-churn", endpoint: "load", clients: 1, warmup: churnPeriod, period: churnPeriod, batch: churnBatch,
		setupReps: 5, cacheBytes: 40 << 20, newFixture: newChurnFixture,
	},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func lookupWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// ---- solve: grid-solve, expander-solve ----

type solveFixture struct {
	resident *loadReq
	lap      *linalg.Laplacian
}

func newSolveFixture(family string, n int) func(*rand.Rand) (fixture, error) {
	return func(*rand.Rand) (fixture, error) {
		lr, err := residentLoad(family, n)
		if err != nil {
			return nil, err
		}
		return &solveFixture{resident: lr, lap: linalg.NewLaplacian(lr.g)}, nil
	}
}

// residentLoad builds the load request of a workload's resident graph.
func residentLoad(family string, n int) (*loadReq, error) {
	rng := rand.New(rand.NewSource(deploymentSeed))
	genSeed := rng.Int63()
	lr := &loadReq{id: residentID, mode: "universal", seed: rng.Int63(),
		gen: func() *graph.Graph { return familyGraph(family, n, genSeed) }}
	_, _, err := lr.build()
	return lr, err
}

func (f *solveFixture) setupLoads() []*loadReq { return []*loadReq{f.resident} }

func (f *solveFixture) draw(rng *rand.Rand, _ int) request {
	b := make([]float64, f.resident.g.N())
	for v := range b {
		b[v] = rng.NormFloat64()
	}
	linalg.CenterMean(b)
	return &solveReq{f: f, b: b, seed: rng.Int63()}
}

type solveReq struct {
	f    *solveFixture
	b    []float64
	seed int64
}

func (r *solveReq) build() (string, []byte, error) {
	body, err := json.Marshal(service.SolveRequest{B: r.b, Eps: solveEps, Seed: &r.seed})
	return "/v1/graphs/" + residentID + "/solve", body, err
}

func (r *solveReq) check(resp []byte) (answer, error) {
	var sr service.SolveResponse
	if err := json.Unmarshal(resp, &sr); err != nil {
		return answer{}, fmt.Errorf("decoding solve response: %w", err)
	}
	ans := answer{resp: &sr}
	for _, res := range sr.Results {
		ans.rounds += int64(res.Rounds)
		ans.messages += res.Messages
	}
	if len(sr.Results) != 1 {
		return ans, fmt.Errorf("solve returned %d results for one right-hand side", len(sr.Results))
	}
	return ans, checkResidual(r.f.lap, r.b, sr.Results[0].X, solveEps)
}

// residualSlack is the floating-point allowance on the solve oracle, as a
// share of eps: PCG tracks its residual by a recurrence whose rounding
// drift (about cond(L)·2⁻⁵³ relative) the recomputed true residual may show.
const residualSlack = 1e-3

// checkResidual is the solve oracle: the true relative residual
// ‖b − Lx‖/‖b‖, recomputed locally, must not exceed eps beyond
// floating-point slack.
func checkResidual(lap *linalg.Laplacian, b, x []float64, eps float64) error {
	if len(x) != len(b) {
		return fmt.Errorf("solution has %d entries for n=%d", len(x), len(b))
	}
	lx, err := lap.MatVec(x)
	if err != nil {
		return fmt.Errorf("oracle matvec: %w", err)
	}
	var rr, bb float64
	for i := range b {
		d := b[i] - lx[i]
		rr += d * d
		bb += b[i] * b[i]
	}
	rel := math.Sqrt(rr / bb)
	if !(rel <= eps*(1+residualSlack)) {
		return fmt.Errorf("true relative residual %.3g exceeds eps %.3g", rel, eps)
	}
	return nil
}

// ---- mst-serve ----

type mstFixture struct {
	resident *loadReq
	weight   int64 // sequential MST weight, the oracle's answer
}

func newMSTFixture(n int) func(*rand.Rand) (fixture, error) {
	return func(*rand.Rand) (fixture, error) {
		lr, err := residentLoad("random", n)
		if err != nil {
			return nil, err
		}
		_, w := graph.MST(lr.g)
		return &mstFixture{resident: lr, weight: w}, nil
	}
}

func (f *mstFixture) setupLoads() []*loadReq { return []*loadReq{f.resident} }

func (f *mstFixture) draw(rng *rand.Rand, _ int) request {
	return &mstReq{f: f, seed: rng.Int63()}
}

type mstReq struct {
	f    *mstFixture
	seed int64
}

func (r *mstReq) build() (string, []byte, error) {
	body, err := json.Marshal(service.MSTRequest{Seed: &r.seed})
	return "/v1/graphs/" + residentID + "/mst", body, err
}

func (r *mstReq) check(resp []byte) (answer, error) {
	var mr service.MSTResponse
	if err := json.Unmarshal(resp, &mr); err != nil {
		return answer{}, fmt.Errorf("decoding mst response: %w", err)
	}
	ans := answer{rounds: int64(mr.Rounds), messages: -1, resp: &mr}
	return ans, checkMST(r.f.resident.g, r.f.weight, &mr)
}

// checkMST is the MST oracle: the reported weight must equal the
// sequential MST's, and the reported edges must be n−1 acyclic edges of
// the graph, hence a spanning tree, summing to it.
func checkMST(g *graph.Graph, want int64, mr *service.MSTResponse) error {
	if mr.Weight != want {
		return fmt.Errorf("mst weight %d, sequential MST weight %d", mr.Weight, want)
	}
	if len(mr.Edges) != g.N()-1 {
		return fmt.Errorf("mst has %d edges for n=%d", len(mr.Edges), g.N())
	}
	var sum int64
	uf := graph.NewUnionFind(g.N())
	for _, id := range mr.Edges {
		if id < 0 || id >= g.M() {
			return fmt.Errorf("mst edge %d out of range", id)
		}
		e := g.Edge(id)
		if !uf.Union(int(e.U), int(e.V)) {
			return fmt.Errorf("mst edge %d closes a cycle", id)
		}
		sum += e.Weight
	}
	if sum != mr.Weight {
		return fmt.Errorf("mst edges weigh %d, reported weight %d", sum, mr.Weight)
	}
	return nil
}

// ---- load-churn ----

var (
	churnFamilies = []string{"grid", "widegrid", "tree", "expander", "random"}
	churnModes    = []string{"universal", "congest", "baseline"}
)

const (
	churnPreload = 6 // graphs set-up loads before the timed phase
	churnMinN    = 1000
	churnMaxN    = 4000
	// The stream follows a fixed schedule so that its averages, and the
	// cache's content when a timed phase ends, do not depend on the seed:
	// it takes the churnCombos family × mode pairs in turn, and each pair
	// steps through churnStrata sizes spread evenly over [churnMinN,
	// churnMaxN]. Every churnPeriod consecutive loads hold each (family,
	// mode, size) once. The seed draws the random graphs' edges and every
	// instance seed.
	churnCombos = 15
	churnStrata = 6
	churnPeriod = churnCombos * churnStrata
)

type churnFixture struct {
	preload []*loadReq
}

func newChurnFixture(rng *rand.Rand) (fixture, error) {
	f := &churnFixture{}
	for i := 0; i < churnPreload; i++ {
		lr := f.spec(rng, fmt.Sprintf("pre-%d", i), i)
		if _, _, err := lr.build(); err != nil {
			return nil, err
		}
		f.preload = append(f.preload, lr)
	}
	return f, nil
}

func (f *churnFixture) setupLoads() []*loadReq { return f.preload }

func (f *churnFixture) draw(rng *rand.Rand, i int) request {
	return f.spec(rng, fmt.Sprintf("g-%d", i), i)
}

// spec draws churn graph i: the next family × mode pair and that pair's
// next size.
func (f *churnFixture) spec(rng *rand.Rand, id string, i int) *loadReq {
	combo := i % churnCombos
	family := churnFamilies[combo%len(churnFamilies)]
	stratum := (combo + i/churnCombos) % churnStrata
	n := churnMinN + (2*stratum+1)*(churnMaxN-churnMinN)/(2*churnStrata)
	genSeed := rng.Int63()
	return &loadReq{
		id: id, mode: churnModes[combo/len(churnFamilies)], seed: rng.Int63(),
		gen: func() *graph.Graph { return familyGraph(family, n, genSeed) },
	}
}

// familyGraph builds a graph of one family with about n nodes.
func familyGraph(family string, n int, seed int64) *graph.Graph {
	switch family {
	case "grid":
		s := int(math.Sqrt(float64(n)))
		return graph.Grid(s, s)
	case "widegrid":
		h := int(math.Sqrt(2 * math.Sqrt(float64(n))))
		return graph.Grid(h, (n+h-1)/h)
	case "tree":
		return graph.CompleteTree(2, bits.Len(uint(n)))
	case "expander":
		return graph.RandomRegular(n, 4, seed)
	case "random":
		return graph.RandomConnected(n, n, 100, seed)
	}
	panic("distbench: unknown graph family " + family)
}

// loadReq is one POST /v1/graphs request with an explicit edge list.
type loadReq struct {
	id   string
	mode string
	seed int64
	gen  func() *graph.Graph

	g  *graph.Graph         // set by build
	lr *service.LoadRequest // set by build
}

func (r *loadReq) build() (string, []byte, error) {
	if r.g == nil {
		r.g = r.gen()
		edges := make([][3]int64, r.g.M())
		for i, e := range r.g.EdgeList() {
			edges[i] = [3]int64{int64(e.U), int64(e.V), e.Weight}
		}
		r.lr = &service.LoadRequest{
			ID: r.id, Mode: r.mode, Seed: r.seed,
			Graph: service.GraphSpec{N: r.g.N(), Edges: edges},
		}
	}
	body, err := json.Marshal(r.lr)
	return "/v1/graphs", body, err
}

func (r *loadReq) check(resp []byte) (answer, error) {
	var lr service.LoadResponse
	if err := json.Unmarshal(resp, &lr); err != nil {
		return answer{}, fmt.Errorf("decoding load response: %w", err)
	}
	info := lr.Instance
	ans := answer{
		rounds: int64(info.SetupRounds), messages: info.SetupMessages,
		evicted: int64(len(lr.Evicted)), resp: &lr,
	}
	return ans, checkLoad(r, &info)
}

// checkLoad is the load oracle: the instance must echo the body's id,
// size, mode and seed. Its setup cost is checked against the traced
// replay.
func checkLoad(r *loadReq, info *service.InstanceInfo) error {
	if info.ID != r.id || info.Nodes != r.g.N() || info.Edges != r.g.M() ||
		info.Mode != r.mode || info.Seed != r.seed {
		return fmt.Errorf("load echoed id=%q n=%d m=%d mode=%s seed=%d, sent id=%q n=%d m=%d mode=%s seed=%d",
			info.ID, info.Nodes, info.Edges, info.Mode, info.Seed,
			r.id, r.g.N(), r.g.M(), r.mode, r.seed)
	}
	if info.SizeBytes <= 0 {
		return fmt.Errorf("load reported size %d bytes", info.SizeBytes)
	}
	return nil
}
