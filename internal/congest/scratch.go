package congest

import "distlap/internal/graph"

// scratch is the Network's pooled working memory: every buffer the engine
// primitives previously allocated per call, hoisted onto the (request-
// private, single-goroutine) network so steady-state rounds allocate
// nothing. All of it is dead between primitive calls — no buffer carries
// information from one call into the next, and none of it ever feeds the
// RNG or the charge counters, so pooling cannot perturb determinism.
//
// Tree-sweep state is member-sized: one key, (tree t, position i in
// trees[t].Members), addresses entry off[t]+i of every sweep arena, so a
// sweep over trees with Σ|Members| members touches Θ(Σ|Members|) slots and
// never an n-sized row. Each sweep rewrites the entries it reads before
// reading them; nothing is stamped or cleared lazily.
//
// Invalidation contract: slices handed out by primitives that alias these
// pools (ConvergecastAll's subtree view) are valid until the next tree
// primitive that uses the same pool family; the per-primitive doc comments
// state which. Callers that need longer retention must copy.
type scratch struct {
	// Exchange: the per-round delivery batch.
	deliveries []delivery

	// Tree scheduler (treeSched): per-directed-edge FIFOs, the sorted
	// active-edge list, and the per-round delivered batch. Queues keep
	// their capacity across schedules; schedActive tracks which FIFOs may
	// hold leftovers from an abandoned (faulty) schedule so the next
	// schedule can reset exactly those.
	schedQueues    [][]pendingSend
	schedActive    []int
	schedDelivered []pendingSend

	// treeCongestion: per-directed-edge usage counts, all zero between
	// calls, and the list of edges a call counted on, which it resets.
	edgeUse   []int32
	edgesUsed []int32

	// randomDelays: the per-tree delay vector.
	delayBuf []int

	// sweepOff[t] is tree t's first entry in the member-sized arenas
	// (memberOffsets); both sweeps use it.
	sweepOff []int

	// Convergecast state, member-sized: child counts still pending (-1
	// once the member's own word has arrived), the running subtree
	// accumulator, and the per-tree row views of it that ConvergecastAll
	// returns.
	ccPending []int32
	ccAcc     []Word
	ccRows    [][]Word

	// Down-sweep receipt marks, member-sized.
	downGot []bool
}

// memberOffsets sets sweepOff to the prefix sums of the trees' member
// counts and returns it: entry off[t]+i of every member-sized arena
// belongs to trees[t].Members[i], and off[len(trees)] is Σ|Members|.
func (s *scratch) memberOffsets(trees []*graph.Tree) []int {
	off := append(s.sweepOff[:0], 0)
	for _, tr := range trees {
		off = append(off, off[len(off)-1]+len(tr.Members))
	}
	s.sweepOff = off
	return off
}

// grown returns buf resized to n (reallocating only on growth). The
// contents are not cleared.
func grown[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
