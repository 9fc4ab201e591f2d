package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"distlap/internal/apps"
	"distlap/internal/congest"
	"distlap/internal/core"
	"distlap/internal/graph"
	"distlap/internal/partwise"
	"distlap/internal/service"
)

// span is one timed call into a layer, recorded by the benchmark around
// the program's public functions.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root span
	Req    int    `json:"req"`    // request index; -1 for set-up replays
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Rounds int64  `json:"rounds,omitempty"`   // engine rounds charged inside
	Msgs   int64  `json:"messages,omitempty"` // engine messages charged inside
	Work   int64  `json:"work,omitempty"`     // iterations or phases, by layer

	children int64 // summed duration of the direct child spans
}

// recorder collects one goroutine's spans in memory. Spans opened while
// another is open become its children, so self time is a span's duration
// minus its children's.
type recorder struct {
	base  time.Time
	ids   *atomic.Int64 // span ids, unique across recorders of a run
	req   int
	spans []span
	open  []int // indexes into spans of the open spans, innermost last
}

func newRecorder(base time.Time, ids *atomic.Int64) *recorder {
	return &recorder{base: base, ids: ids, req: -1}
}

func (r *recorder) begin(name string) int {
	var parent int64
	if len(r.open) > 0 {
		parent = r.spans[r.open[len(r.open)-1]].ID
	}
	r.spans = append(r.spans, span{
		ID: r.ids.Add(1), Parent: parent, Req: r.req, Name: name,
		Start: int64(time.Since(r.base)),
	})
	r.open = append(r.open, len(r.spans)-1)
	return len(r.spans) - 1
}

func (r *recorder) end(i int) { r.finish(i, 0, 0, 0) }

// finish closes span i, the innermost open one, with its engine cost.
func (r *recorder) finish(i int, rounds, msgs, work int64) {
	if top := r.open[len(r.open)-1]; top != i {
		panic(fmt.Sprintf("distbench: span %q closed while %q is open", r.spans[i].Name, r.spans[top].Name))
	}
	r.open = r.open[:len(r.open)-1]
	s := &r.spans[i]
	s.End = int64(time.Since(r.base))
	s.Rounds, s.Msgs, s.Work = rounds, msgs, work
	if len(r.open) > 0 {
		r.spans[r.open[len(r.open)-1]].children += s.End - s.Start
	}
}

// add records a root span the caller timed itself.
func (r *recorder) add(name string, start, end time.Time) {
	r.spans = append(r.spans, span{
		ID: r.ids.Add(1), Req: r.req, Name: name,
		Start: int64(start.Sub(r.base)), End: int64(end.Sub(r.base)),
	})
}

// tracedComm times every communication primitive of a core.Comm and the
// engine rounds and messages it charges.
type tracedComm struct {
	core.Comm
	rec *recorder
}

func commMessages(c core.Comm) int64 {
	m := c.CollectMetrics()
	msgs := m.Congest.Messages
	if m.NCC != nil {
		msgs += m.NCC.Messages
	}
	return msgs
}

func (c *tracedComm) open(name string) (int, int64, int64) {
	return c.rec.begin(name), int64(c.Comm.Rounds()), commMessages(c.Comm)
}

func (c *tracedComm) close(i int, rounds0, msgs0 int64) {
	c.rec.finish(i, int64(c.Comm.Rounds())-rounds0, commMessages(c.Comm)-msgs0, 0)
}

func (c *tracedComm) MatVecLaplacian(x []float64) ([]float64, error) {
	i, r0, m0 := c.open("comm.matvec")
	defer c.close(i, r0, m0)
	return c.Comm.MatVecLaplacian(x)
}

func (c *tracedComm) GlobalSums(vecs ...[]float64) ([]float64, error) {
	i, r0, m0 := c.open("comm.global_sums")
	defer c.close(i, r0, m0)
	return c.Comm.GlobalSums(vecs...)
}

func (c *tracedComm) ClusterTrees(clusters [][]graph.NodeID) ([]*graph.Tree, error) {
	i, r0, m0 := c.open("comm.cluster_trees")
	defer c.close(i, r0, m0)
	return c.Comm.ClusterTrees(clusters)
}

func (c *tracedComm) TreeUpDown(
	trees []*graph.Tree,
	leaf func(t int, v graph.NodeID) float64,
	rootVal func(t int, total float64) float64,
	down func(t int, parent, child graph.NodeID, parentVal, childSubtree float64) float64,
) ([][]float64, error) {
	i, r0, m0 := c.open("comm.tree_updown")
	defer c.close(i, r0, m0)
	return c.Comm.TreeUpDown(trees, leaf, rootVal, down)
}

func (c *tracedComm) TreeTotals(trees []*graph.Tree, leaf func(t int, v graph.NodeID) float64) ([]float64, error) {
	i, r0, m0 := c.open("comm.tree_totals")
	defer c.close(i, r0, m0)
	return c.Comm.TreeTotals(trees, leaf)
}

// tracedPrecond times every preconditioner Apply.
type tracedPrecond struct {
	core.Preconditioner
	rec *recorder
}

func (p tracedPrecond) Apply(c core.Comm, r []float64) ([]float64, error) {
	i := p.rec.begin("precond.apply")
	defer p.rec.end(i)
	return p.Preconditioner.Apply(c, r)
}

// tracedSolver times every part-wise aggregation a partwise.Solver runs.
type tracedSolver struct {
	partwise.Solver
	rec *recorder
}

func (s tracedSolver) Solve(nw *congest.Network, inst *partwise.Instance, spec partwise.AggSpec) ([]congest.Word, error) {
	i := s.rec.begin("partwise.solve")
	m0 := nw.Metrics()
	out, err := s.Solver.Solve(nw, inst, spec)
	m1 := nw.Metrics()
	s.rec.finish(i, int64(m1.Rounds-m0.Rounds), m1.Messages-m0.Messages, 0)
	return out, err
}

// replayCtx is the replay's own prepared state for the resident graph.
type replayCtx struct {
	inst *core.Instance
	pre  core.Preconditioner
}

// prepareConfig mirrors how distlapd turns a load request into a prepare.
func prepareConfig(lr *service.LoadRequest) core.PrepareConfig {
	mode := core.Mode(lr.Mode)
	if mode == "" {
		mode = core.ModeUniversal
	}
	return core.PrepareConfig{Mode: mode, Tol: lr.Eps, Seed: lr.Seed}
}

// buildGraph builds the graph a load request describes, as distlapd does.
func buildGraph(gs *service.GraphSpec) (*graph.Graph, error) {
	g := graph.New(gs.N)
	for i, e := range gs.Edges {
		if _, err := g.AddEdge(int(e[0]), int(e[1]), e[2]); err != nil {
			return nil, fmt.Errorf("edge %d: %w", i, err)
		}
	}
	return g, nil
}

// replayPrepare replays one load's prepare path layer by layer: the graph
// build, the CSR view, the whole core.PrepareInstance, and then its two
// halves on their own — the comm substrate and the default
// preconditioner's setup, whose cluster-tree construction the traced comm
// times. It returns the prepared instance and the set-up preconditioner.
func replayPrepare(rec *recorder, lr *service.LoadRequest) (*replayCtx, error) {
	s := rec.begin("graph.build")
	g, err := buildGraph(&lr.Graph)
	rec.end(s)
	if err != nil {
		return nil, err
	}
	s = rec.begin("graph.csr")
	graph.BuildCSR(g)
	rec.end(s)
	cfg := prepareConfig(lr)
	s = rec.begin("core.prepare")
	in, err := core.PrepareInstance(context.Background(), g, cfg)
	if err != nil {
		rec.end(s)
		return nil, fmt.Errorf("prepare: %w", err)
	}
	setup := in.SetupMetrics()
	rec.finish(s, int64(setup.TotalRounds()), setup.Congest.Messages, 0)
	s = rec.begin("core.comm_setup")
	c, err := core.NewCommWith(g, core.CommConfig{Mode: cfg.Mode, Seed: cfg.Seed})
	if err != nil {
		rec.end(s)
		return nil, fmt.Errorf("comm setup: %w", err)
	}
	rec.finish(s, int64(c.Rounds()), commMessages(c), 0)
	pre := core.DefaultPrecond(g, cfg.Seed)
	s = rec.begin("core.precond_setup")
	err = pre.Setup(&tracedComm{Comm: c, rec: rec})
	rec.end(s)
	if err != nil {
		return nil, fmt.Errorf("precond setup: %w", err)
	}
	return &replayCtx{inst: in, pre: pre}, nil
}

// encodeSpan times encoding the decoded response with encoding/json.
func encodeSpan(rec *recorder, resp any) error {
	s := rec.begin("service.encode")
	_, err := json.Marshal(resp)
	rec.end(s)
	return err
}

func (r *solveReq) replay(rc *replayCtx, rec *recorder, body []byte, ans answer) (int64, error) {
	var req service.SolveRequest
	s := rec.begin("service.decode")
	err := json.Unmarshal(body, &req)
	rec.end(s)
	if err != nil || req.Seed == nil {
		return 0, fmt.Errorf("decoding solve request: %v", err)
	}
	s = rec.begin("core.iterate")
	c := &tracedComm{Comm: rc.inst.Comm(core.Request{Seed: *req.Seed, Tol: req.Eps}), rec: rec}
	res, err := core.Iterate(c, req.B, tracedPrecond{Preconditioner: rc.pre, rec: rec}, core.Options{Tol: req.Eps})
	if err != nil {
		rec.end(s)
		return 0, fmt.Errorf("iterate: %w", err)
	}
	msgs := commMessages(c.Comm)
	rec.finish(s, int64(res.Rounds), msgs, int64(res.Iterations))
	if err := encodeSpan(rec, ans.resp); err != nil {
		return msgs, err
	}
	want := ans.resp.(*service.SolveResponse).Results[0]
	if res.Iterations != want.Iterations || res.Rounds != want.Rounds || msgs != want.Messages {
		return msgs, fmt.Errorf("replay took %d iterations, %d rounds, %d messages; server %d, %d, %d",
			res.Iterations, res.Rounds, msgs, want.Iterations, want.Rounds, want.Messages)
	}
	if !slices.EqualFunc(res.X, want.X, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
		return msgs, fmt.Errorf("replay solution differs from the server's")
	}
	return msgs, nil
}

func (r *mstReq) replay(rc *replayCtx, rec *recorder, body []byte, ans answer) (int64, error) {
	var req service.MSTRequest
	s := rec.begin("service.decode")
	err := json.Unmarshal(body, &req)
	rec.end(s)
	if err != nil || req.Seed == nil {
		return 0, fmt.Errorf("decoding mst request: %v", err)
	}
	s = rec.begin("apps.mst")
	nw := rc.inst.Network(core.Request{Seed: *req.Seed})
	res, err := apps.MST(nw, tracedSolver{Solver: partwise.NewShortcutSolver(), rec: rec})
	if err != nil {
		rec.end(s)
		return 0, fmt.Errorf("mst: %w", err)
	}
	em := nw.Metrics()
	rec.finish(s, int64(em.Rounds), em.Messages, int64(res.Phases))
	if err := encodeSpan(rec, ans.resp); err != nil {
		return em.Messages, err
	}
	want := ans.resp.(*service.MSTResponse)
	if res.Weight != want.Weight || res.Phases != want.Phases || res.Rounds != want.Rounds ||
		!slices.Equal(res.Edges, want.Edges) {
		return em.Messages, fmt.Errorf("replay mst weight %d, %d phases, %d rounds; server %d, %d, %d (or edges differ)",
			res.Weight, res.Phases, res.Rounds, want.Weight, want.Phases, want.Rounds)
	}
	return em.Messages, nil
}

func (r *loadReq) replay(_ *replayCtx, rec *recorder, body []byte, ans answer) (int64, error) {
	var req service.LoadRequest
	s := rec.begin("service.decode")
	err := json.Unmarshal(body, &req)
	rec.end(s)
	if err != nil {
		return 0, fmt.Errorf("decoding load request: %w", err)
	}
	rc, err := replayPrepare(rec, &req)
	if err != nil {
		return 0, err
	}
	if err := encodeSpan(rec, ans.resp); err != nil {
		return 0, err
	}
	setup := rc.inst.SetupMetrics()
	want := ans.resp.(*service.LoadResponse).Instance
	if setup.TotalRounds() != want.SetupRounds || setup.Congest.Messages != want.SetupMessages ||
		rc.inst.SizeBytes() != want.SizeBytes {
		return setup.Congest.Messages, fmt.Errorf("replay setup %d rounds, %d messages, %d bytes; server %d, %d, %d",
			setup.TotalRounds(), setup.Congest.Messages, rc.inst.SizeBytes(),
			want.SetupRounds, want.SetupMessages, want.SizeBytes)
	}
	return setup.Congest.Messages, nil
}
