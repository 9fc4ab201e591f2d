package congest

import (
	"fmt"
	"math"
	"slices"

	"distlap/internal/graph"
)

// FloatWord packs a float64 into a message word (one float per O(log n)-bit
// message, the standard CONGEST convention for numerical algorithms). This
// is the sanctioned bit-level encoder the wordtrunc analyzer points cast
// sites at: the uint64 -> Word reinterpretation below is exact (all 64 bits
// preserved) and WordFloat inverts it bit-for-bit.
func FloatWord(f float64) Word {
	//distlint:allow wordtrunc sanctioned encoder: Float64bits reinterpretation is exact and WordFloat inverts it
	return Word(math.Float64bits(f))
}

// WordFloat unpacks a float64 from a message word.
func WordFloat(w Word) float64 { return math.Float64frombits(uint64(w)) }

// ConvergecastAll aggregates, concurrently for every tree, the value
// val(t, v) over the tree's members using agg, delivering the result to
// each tree's root — the engine's one upward sweep. Trees may share graph
// edges; every directed edge carries at most one word per round, so the
// measured cost is the true scheduled makespan (O(congestion + depth) with
// random delays, up to log factors). Each member's parent edge delivers at
// most one word per sweep, so a fault plan's duplicate is dropped and an
// incomplete sweep always reports an error.
//
// Besides the per-tree root aggregates it exposes every member's subtree
// aggregate (the value the member forwarded to its parent — physically
// known to both endpoints after the pass), which tree solvers
// (internal/core's tree and Schwarz preconditioners) need.
// subtree[t] is a member-sized row: it has len(trees[t].Members) entries,
// and subtree[t][i] is the aggregate of the subtree of trees[t].Members[i].
// The rows and the row list alias the network's pooled convergecast state
// and stay valid until the next ConvergecastAll on this network
// (down-sweeps do not touch them); copy to retain longer. Aside from the
// returned roots, a steady-state call allocates nothing.
func (nw *Network) ConvergecastAll(
	trees []*graph.Tree,
	val func(t int, v graph.NodeID) Word,
	agg Agg,
) (roots []Word, subtree [][]Word, err error) {
	if len(trees) == 0 {
		return nil, nil, ErrNoTrees
	}
	k := len(trees)
	st := nw.ccStateFor(trees)
	sched := newTreeSched(nw)
	delays := nw.randomDelays(k, nw.treeCongestion(trees))
	st.initConvergecast(nw, sched, trees, delays, val)
	deliver := func(ps pendingSend) { st.deliverUp(nw, sched, trees, agg, ps) }
	for sched.step(deliver) {
	}
	roots = make([]Word, k)
	nw.scr.ccRows = grown(nw.scr.ccRows, k)
	subtree = nw.scr.ccRows
	for t, tr := range trees {
		row := st.acc[st.off[t]:st.off[t+1]]
		for i, v := range tr.Members {
			if st.pending[st.off[t]+i] > 0 {
				return nil, nil, fmt.Errorf("congest: convergecast of tree %d did not complete at node %d", t, v)
			}
		}
		subtree[t] = row
		roots[t] = row[0]
	}
	return roots, subtree, nil
}

// DownSweepMany propagates values from each tree root toward the leaves,
// transforming per hop — the engine's one downward sweep: the parent
// computes next(t, parent, child, parentVal) — a function of locally-known
// state — and sends the result to the child; an identity next makes it a
// broadcast. on fires at every member with its received (or, for the root,
// initial) value. Members are named by their positions in
// trees[t].Members, the key of the subtree rows ConvergecastAll returns.
// Children come from each tree's stored child index, and every send
// carries its receiver's position; each member's parent edge delivers at
// most one word. Cost accounting matches ConvergecastAll; like it, the
// sweep runs on pooled member-sized state (receipt marks, scheduler FIFOs)
// and allocates nothing at steady state.
func (nw *Network) DownSweepMany(
	trees []*graph.Tree,
	rootVal []Word,
	next func(t int, parent, child int32, parentVal Word) Word,
	on func(t int, i int32, w Word),
) error {
	if len(trees) == 0 {
		return ErrNoTrees
	}
	if len(rootVal) != len(trees) {
		return fmt.Errorf("congest: %d root values for %d trees", len(rootVal), len(trees))
	}
	off := nw.scr.memberOffsets(trees)
	got := grown(nw.scr.downGot, off[len(trees)])
	clear(got)
	nw.scr.downGot = got
	sched := newTreeSched(nw)
	delays := nw.randomDelays(len(trees), nw.treeCongestion(trees))

	fanOut := func(t int, i int32, w Word, eligible int) {
		tr := trees[t]
		v := tr.Members[i]
		for _, j := range tr.Kids(int(i)) {
			c := tr.Members[j]
			sched.push(nw.dirEdge(tr.ParentEdge[j], v), pendingSend{
				tree: int32(t), pos: j, from: v, to: c, w: next(t, i, j, w), eligible: eligible,
			})
		}
	}
	for t := range trees {
		got[off[t]] = true
		on(t, 0, rootVal[t])
		fanOut(t, 0, rootVal[t], 1+delays[t])
	}
	deliver := func(ps pendingSend) {
		t := int(ps.tree)
		if got[off[t]+int(ps.pos)] {
			return
		}
		got[off[t]+int(ps.pos)] = true
		on(t, ps.pos, ps.w)
		fanOut(t, ps.pos, ps.w, sched.round+1)
	}
	for sched.step(deliver) {
	}
	for t, tr := range trees {
		if i := slices.Index(got[off[t]:off[t+1]], false); i >= 0 {
			return fmt.Errorf("congest: down-sweep of tree %d did not reach node %d", t, tr.Members[i])
		}
	}
	return nil
}
