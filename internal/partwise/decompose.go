package partwise

import (
	"fmt"

	"distlap/internal/graph"
)

// decomposedPath is one heavy path of one part's spanning tree. Heavy-path
// decomposition realizes the reduction from general parts to path-restricted
// parts (Lemma 15, following [29]): every node lies on exactly one path of
// each part containing it, and the path tree has depth O(log |part|), so a
// p-congested general instance becomes O(log n) path-restricted batches of
// node congestion at most p.
type decomposedPath struct {
	part  int // index of the owning part
	level int // depth in the path tree; the root path has level 0
	nodes []graph.NodeID
	edges []graph.EdgeID // G edges joining consecutive nodes

	attach     graph.NodeID // tree parent of nodes[0]; -1 for level 0
	attachEdge graph.EdgeID // G edge nodes[0]-attach; -1 for level 0
}

// decomposePart heavy-path-decomposes the BFS spanning tree of the part.
func decomposePart(g *graph.Graph, part []graph.NodeID, partIdx int) ([]decomposedPath, error) {
	tr := graph.BFSTreeOfSubgraph(g, part, part[0])
	if len(tr.Members) != len(part) {
		return nil, fmt.Errorf("partwise: part %d not induced-connected", partIdx)
	}
	// Subtree sizes and heavy children, by position in Members, via
	// reverse BFS order.
	m := len(tr.Members)
	size := make([]int, m)
	heavy := make([]int, m)
	for i := m - 1; i >= 0; i-- {
		size[i], heavy[i] = 1, -1
		for _, c := range tr.Kids(i) {
			size[i] += size[c]
			if heavy[i] == -1 || size[c] > size[heavy[i]] {
				heavy[i] = int(c)
			}
		}
	}

	var paths []decomposedPath
	type start struct {
		pos   int
		level int
	}
	stack := []start{{pos: 0, level: 0}}
	for len(stack) > 0 {
		st := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		dp := decomposedPath{part: partIdx, level: st.level, attach: -1, attachEdge: tr.ParentEdge[st.pos]}
		if p := tr.ParentPos(st.pos); p >= 0 {
			dp.attach = tr.Members[p]
		}
		for i := st.pos; i != -1; i = heavy[i] {
			dp.nodes = append(dp.nodes, tr.Members[i])
			if h := heavy[i]; h != -1 {
				dp.edges = append(dp.edges, tr.ParentEdge[h])
			}
			for _, c := range tr.Kids(i) {
				if int(c) != heavy[i] {
					stack = append(stack, start{pos: int(c), level: st.level + 1})
				}
			}
		}
		paths = append(paths, dp)
	}
	return paths, nil
}

// maxPathLevel returns the deepest path-tree level in the slice.
func maxPathLevel(paths []decomposedPath) int {
	max := 0
	for _, p := range paths {
		if p.level > max {
			max = p.level
		}
	}
	return max
}
