package congest

import (
	"slices"

	"distlap/internal/graph"
)

// Agg is a commutative, associative aggregation function over words
// (paper Definition 4: min, sum, logical-AND, ...).
type Agg func(a, b Word) Word

// Standard aggregation functions.
func AggSum(a, b Word) Word { return a + b }
func AggMin(a, b Word) Word {
	if b < a {
		return b
	}
	return a
}
func AggMax(a, b Word) Word {
	if b > a {
		return b
	}
	return a
}
func AggAnd(a, b Word) Word {
	if a != 0 && b != 0 {
		return 1
	}
	return 0
}
func AggOr(a, b Word) Word {
	if a != 0 || b != 0 {
		return 1
	}
	return 0
}

// pendingSend is one word waiting to cross a directed edge.
type pendingSend struct {
	tree     int32
	pos      int32 // position in Members of the child endpoint of the tree edge crossed
	from     graph.NodeID
	to       graph.NodeID
	w        Word
	eligible int // earliest round this send may occur
}

// treeSched is the shared store-and-forward scheduler for tree-structured
// communication: per directed edge a FIFO of pending sends, at most one
// crossing per round. The FIFOs live in the network's pooled scratch
// (indexed by directed edge, so lookup is an array access, not a map
// probe) and keep their capacity across schedules.
//
// Ordering invariant: active holds exactly the directed edges with
// nonempty FIFOs, and is processed in ascending order every round. dirty
// is set only when push activates a new edge — the per-round filtering
// preserves sortedness, so a re-sort is needed only after pushes. Active
// edge ids are distinct, so the sorted order (and with it charge order and
// delivery order, and therefore every gated metric) does not depend on the
// sort algorithm.
type treeSched struct {
	nw     *Network
	active []int // sorted dirEdges with nonempty queues (aliases scr.schedActive)
	dirty  bool
	round  int
	pushes int // total sends ever queued (sizes the faulty-run round cap)
}

func newTreeSched(nw *Network) *treeSched {
	s := &nw.scr
	if len(s.schedQueues) != 2*nw.g.M() {
		s.schedQueues = make([][]pendingSend, 2*nw.g.M())
		s.schedActive = s.schedActive[:0]
	}
	// A previous schedule abandoned under faults may have left sends
	// queued; schedActive still lists exactly the nonempty FIFOs
	// (push adds an edge, only an emptied edge is dropped), so resetting
	// those restores the all-empty invariant.
	for _, de := range s.schedActive {
		s.schedQueues[de] = s.schedQueues[de][:0]
	}
	return &treeSched{nw: nw, active: s.schedActive[:0]}
}

func (s *treeSched) push(de int, ps pendingSend) {
	q := s.nw.scr.schedQueues[de]
	if len(q) == 0 {
		s.active = append(s.active, de)
		s.dirty = true
	}
	s.nw.scr.schedQueues[de] = append(q, ps)
	s.pushes++
}

// step advances one round, delivering at most one eligible send per directed
// edge; deliveries are returned so the caller can apply their effects (which
// may enqueue new sends eligible from round+1). Returns false when no queue
// holds any send.
func (s *treeSched) step(deliver func(ps pendingSend)) bool {
	if len(s.active) == 0 {
		s.nw.scr.schedActive = s.active
		return false
	}
	nw := s.nw
	faults := nw.faults
	if faults != nil && s.round >= s.faultRoundCap() {
		// A fault plan can starve completeness (every remaining send
		// perpetually delayed); abandon the schedule so the primitives'
		// completeness checks report the failure instead of spinning.
		nw.scr.schedActive = s.active
		return false
	}
	nw.checkCancel()
	if s.dirty {
		slices.Sort(s.active)
		s.dirty = false
	}
	s.round++
	delivered := nw.scr.schedDelivered[:0]
	queues := nw.scr.schedQueues
	newActive := s.active[:0]
	for _, de := range s.active {
		q := queues[de]
		if faults != nil {
			q, delivered = s.stepEdgeFaulty(de, q, delivered)
		} else {
			// Pop the first eligible send, preserving FIFO order otherwise.
			for i := range q {
				if q[i].eligible <= s.round {
					ps := q[i]
					q = append(q[:i], q[i+1:]...)
					nw.chargeEdge(de)
					delivered = append(delivered, ps)
					break
				}
			}
		}
		queues[de] = q
		if len(q) > 0 {
			newActive = append(newActive, de)
		}
	}
	s.active = newActive
	nw.scr.schedActive = newActive
	nw.chargeRound()
	for _, ps := range delivered {
		deliver(ps)
	}
	nw.scr.schedDelivered = delivered
	return true
}

// treeCongestion returns the maximum number of trees whose parent edges use
// any single directed edge (the scheduler's congestion parameter c).
// Counting runs over a pooled flat per-directed-edge array that is all
// zero between calls: the call lists the edges it counts on and resets
// exactly those, so it costs Θ(Σ|Members|), not Θ(m).
func (nw *Network) treeCongestion(trees []*graph.Tree) int {
	use := grown(nw.scr.edgeUse, 2*nw.g.M())
	nw.scr.edgeUse = use
	used := nw.scr.edgesUsed[:0]
	c := int32(1)
	for _, t := range trees {
		for i, v := range t.Members[1:] {
			de := nw.dirEdge(t.ParentEdge[i+1], v)
			used = append(used, int32(de))
			use[de]++
			c = max(c, use[de])
		}
	}
	for _, de := range used {
		use[de] = 0
	}
	nw.scr.edgesUsed = used
	return int(c)
}

// randomDelays draws, for each tree, an initial delay uniform in [0, c)
// (Ghaffari'15-style random-delay scheduling). With delays disabled all
// trees start immediately. The returned slice is pooled scratch, valid
// until the next primitive on this network; the RNG draw sequence is
// identical to the historical allocating version.
func (nw *Network) randomDelays(k, c int) []int {
	delays := grown(nw.scr.delayBuf, k)
	nw.scr.delayBuf = delays
	for i := range delays {
		delays[i] = 0
	}
	if nw.opts.DisableRandomDelays || c <= 1 {
		return delays
	}
	for i := range delays {
		delays[i] = nw.rng.Intn(c)
	}
	return delays
}

// ccState is the convergecast working state, member-sized: entry off[t]+i
// holds Members[i]'s running subtree accumulator and its count of children
// still pending in tree t. The count doubles as the receipt mark: a member
// sends only once it reaches 0, and it becomes -1 once the member's parent
// edge has delivered that word.
type ccState struct {
	off     []int
	pending []int32
	acc     []Word
}

func (nw *Network) ccStateFor(trees []*graph.Tree) ccState {
	s := &nw.scr
	off := s.memberOffsets(trees)
	total := off[len(trees)]
	s.ccPending = grown(s.ccPending, total)
	s.ccAcc = grown(s.ccAcc, total)
	return ccState{off: off, pending: s.ccPending, acc: s.ccAcc}
}

// initConvergecast seeds the state for one convergecast pass: every
// member's accumulator starts at val(t, v), its pending count at its child
// count, and the leaves' initial sends are pushed. Visit order
// (tree-members order) and push order are those of the historical
// map-based setup; pending counts come from the trees' child indexes.
func (st *ccState) initConvergecast(
	nw *Network, sched *treeSched, trees []*graph.Tree, delays []int,
	val func(t int, v graph.NodeID) Word,
) {
	for t, tr := range trees {
		o := st.off[t]
		for i, v := range tr.Members {
			st.pending[o+i] = int32(len(tr.Kids(i)))
			st.acc[o+i] = val(t, v)
		}
		// Leaves are immediately ready to send to their parents.
		for i, v := range tr.Members[1:] {
			if len(tr.Kids(i+1)) == 0 {
				sched.push(nw.dirEdge(tr.ParentEdge[i+1], v), pendingSend{
					tree: int32(t), pos: int32(i + 1), from: v, to: tr.Members[tr.ParentPos(i+1)], w: st.acc[o+i+1],
					eligible: 1 + delays[t],
				})
			}
		}
	}
}

// deliverUp folds one delivered send into the receiver's accumulator and
// forwards the receiver's total when its subtree completes — the upward
// half of every convergecast. A member's parent edge delivers at most one
// word per sweep: a duplicate is dropped, so it can never stand in for a
// crashed sibling's missing word.
func (st *ccState) deliverUp(nw *Network, sched *treeSched, trees []*graph.Tree, agg Agg, ps pendingSend) {
	o := st.off[ps.tree]
	if st.pending[o+int(ps.pos)] < 0 {
		return
	}
	st.pending[o+int(ps.pos)] = -1
	tr := trees[ps.tree]
	p := tr.ParentPos(int(ps.pos))
	i := o + p
	st.acc[i] = agg(st.acc[i], ps.w)
	st.pending[i]--
	if st.pending[i] == 0 && p != 0 {
		sched.push(nw.dirEdge(tr.ParentEdge[p], ps.to), pendingSend{
			tree: ps.tree, pos: int32(p), from: ps.to, to: tr.Members[tr.ParentPos(p)], w: st.acc[i],
			eligible: sched.round + 1,
		})
	}
}

// AggregateMany runs a full part-wise aggregation round-trip on every tree:
// convergecast of val under agg to the root, then broadcast of the result
// back to all members. It returns the per-tree aggregates (which, after the
// call, every member of the corresponding tree knows). This realizes
// Proposition 6's "solve part-wise aggregation given trees of the shortcut
// subgraphs".
//
// Charges O(c·(maxdepth + log k)) rounds for congestion c over k trees
// (random-delay scheduling; see treeCongestion). Deterministic for a fixed
// network seed: scheduling draws come from the network RNG in canonical
// tree order. Scheduler queues and member-sized sweep state are pooled — steady
// state allocates only the returned []Word (pinned by
// TestAggregateManySteadyStateAllocs).
func (nw *Network) AggregateMany(
	trees []*graph.Tree,
	val func(t int, v graph.NodeID) Word,
	agg Agg,
) ([]Word, error) {
	roots, _, err := nw.ConvergecastAll(trees, val, agg)
	if err != nil {
		return nil, err
	}
	if err := nw.DownSweepMany(trees, roots, keepWord, func(int, int32, Word) {}); err != nil {
		return nil, err
	}
	return roots, nil
}

// keepWord is the identity down-sweep transform: a broadcast.
func keepWord(_ int, _, _ int32, w Word) Word { return w }
