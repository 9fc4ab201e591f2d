package congest

import (
	"fmt"
	"math"

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
// random delays, up to log factors).
//
// Besides the per-tree root aggregates it exposes every member's subtree
// aggregate (the value the member forwarded to its parent — physically
// known to both endpoints after the pass), which tree solvers
// (internal/core's tree and Schwarz preconditioners) need.
// subtree[t] is a dense per-node row: subtree[t][v] is node v's aggregate in
// tree t, defined only for v in trees[t].Members (other slots hold stale
// scratch). The rows and the row list alias the network's pooled
// convergecast state and stay valid until the next ConvergecastAll on this
// network (down-sweeps do not touch them); copy to retain longer. Aside
// from the returned roots, a steady-state call allocates nothing.
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
	if cap(nw.scr.ccRows) < k {
		nw.scr.ccRows = make([][]Word, k)
	}
	subtree = nw.scr.ccRows[:k]
	for t, tr := range trees {
		row := st.acc[t*st.n : (t+1)*st.n]
		for _, v := range tr.Members {
			if st.pending[t*st.n+v] != 0 {
				return nil, nil, fmt.Errorf("congest: convergecast of tree %d did not complete at node %d", t, v)
			}
		}
		subtree[t] = row
		roots[t] = row[tr.Root]
	}
	return roots, subtree, nil
}

// DownSweepMany propagates values from each tree root toward the leaves,
// transforming per hop — the engine's one downward sweep: the parent
// computes next(t, parent, child, parentVal) — a function of locally-known
// state — and sends the result to the child; an identity next makes it a
// broadcast. on fires at every member with its received (or, for the root,
// initial) value. Children come from each tree's stored child index, and
// every send carries its receiver's position in Members. Cost accounting
// matches ConvergecastAll; like it, the sweep runs on pooled flat state
// (receipt stamps, scheduler FIFOs) and allocates nothing at steady state.
func (nw *Network) DownSweepMany(
	trees []*graph.Tree,
	rootVal []Word,
	next func(t int, parent, child graph.NodeID, parentVal Word) Word,
	on func(t int, v graph.NodeID, w Word),
) error {
	if len(trees) == 0 {
		return ErrNoTrees
	}
	if len(rootVal) != len(trees) {
		return fmt.Errorf("congest: %d root values for %d trees", len(rootVal), len(trees))
	}
	k := len(trees)
	nw.scr.nextEpoch(k * nw.g.N())
	sched := newTreeSched(nw)
	delays := nw.randomDelays(k, nw.treeCongestion(trees))
	received := grownInts(nw.scr.recvCount, k)
	nw.scr.recvCount = received
	for i := range received {
		received[i] = 0
	}

	fanOut := func(t int, i int32, w Word, eligible int) {
		tr := trees[t]
		v := tr.Members[i]
		for _, j := range tr.Kids(int(i)) {
			c := tr.Members[j]
			sched.push(nw.dirEdge(tr.ParentEdge[c], v), pendingSend{
				tree: int32(t), pos: j, from: v, to: c, w: next(t, v, c, w), eligible: eligible,
			})
		}
	}
	for t, tr := range trees {
		nw.bcSeen(t, tr.Root)
		received[t]++
		on(t, tr.Root, rootVal[t])
		fanOut(t, 0, rootVal[t], 1+delays[t])
	}
	deliver := func(ps pendingSend) {
		t := int(ps.tree)
		if nw.bcSeen(t, ps.to) {
			return
		}
		received[t]++
		on(t, ps.to, ps.w)
		fanOut(t, ps.pos, ps.w, sched.round+1)
	}
	for sched.step(deliver) {
	}
	for t, tr := range trees {
		if received[t] != len(tr.Members) {
			return fmt.Errorf("congest: down-sweep of tree %d reached %d of %d members",
				t, received[t], len(tr.Members))
		}
	}
	return nil
}
