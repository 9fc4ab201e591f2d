package congest

// scratch is the Network's pooled working memory: every buffer the engine
// primitives previously allocated per call, hoisted onto the (request-
// private, single-goroutine) network so steady-state rounds allocate
// nothing. All of it is dead between primitive calls — no buffer carries
// information from one call into the next, and none of it ever feeds the
// RNG or the charge counters, so pooling cannot perturb determinism.
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

	// treeCongestion: per-directed-edge usage counts.
	edgeUse []int32

	// randomDelays: the per-tree delay vector.
	delayBuf []int

	// Convergecast state, dense over (tree, node) with epoch-stamped
	// validity (no O(k·n) clearing): child counts still pending, the
	// running subtree accumulator, and the per-tree row views of it that
	// ConvergecastAll returns.
	ccPending []int32
	ccAcc     []Word
	ccStamp   []uint32
	ccRows    [][]Word

	// Down-sweep state: epoch-stamped received marks and per-tree received
	// counts. Children come from the trees' own stored child indexes.
	bcStamp   []uint32
	recvCount []int

	// epoch is the stamp value identifying the current primitive call;
	// incremented at the start of every primitive that uses stamped state.
	epoch uint32
}

// grownI32 returns buf resized to n (reallocating only on growth).
func grownI32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// grownU32 returns buf resized to n (reallocating only on growth). The
// contents are NOT cleared: stamped users must bump their epoch instead.
// A fresh (zeroed) allocation is always valid because epochs start at 1.
func grownU32(buf []uint32, n int) []uint32 {
	if cap(buf) < n {
		return make([]uint32, n)
	}
	return buf[:n]
}

// grownWords returns buf resized to n (reallocating only on growth).
func grownWords(buf []Word, n int) []Word {
	if cap(buf) < n {
		return make([]Word, n)
	}
	return buf[:n]
}

// grownInts returns buf resized to n (reallocating only on growth).
func grownInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// nextEpoch advances and returns the scratch epoch, growing the stamped
// arrays to k·n entries. Epoch 0 is never current, so freshly grown
// (zeroed) stamp arrays read as "stale" everywhere — exactly the
// uninitialized semantics the dense sweep state needs.
func (s *scratch) nextEpoch(kn int) uint32 {
	s.epoch++
	s.ccStamp = grownU32(s.ccStamp, kn)
	s.bcStamp = grownU32(s.bcStamp, kn)
	if s.epoch == 0 { // wrapped: invalidate everything explicitly
		for i := range s.ccStamp {
			s.ccStamp[i] = 0
		}
		for i := range s.bcStamp {
			s.bcStamp[i] = 0
		}
		s.epoch = 1
	}
	return s.epoch
}
