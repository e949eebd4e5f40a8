package ged

import "skygraph/internal/graph"

// DepthFirst computes the exact edit distance by depth-first branch and
// bound instead of best-first A*: it seeds the upper bound with the
// bipartite approximation, explores assignments in depth-first order, and
// prunes partial mappings whose cost plus heuristic reaches the incumbent.
// It visits more nodes than A* but allocates no frontier, making it the
// memory-light alternative (the DF-GED ablation in DESIGN.md). cm == nil
// means Uniform{}.
func DepthFirst(g1, g2 *graph.Graph, cm CostModel) Result {
	if cm == nil {
		cm = Uniform{}
	}
	_, uniform := cm.(Uniform)
	seed := Bipartite(g1, g2, cm)
	s := newSearch(g1, g2, cm)
	defer s.release()
	s.useH = uniform
	if s.N1 == 0 {
		d := s.completionCostAfter(-1)
		return Result{Distance: d, Mapping: []int{}, Exact: true, Nodes: 1}
	}
	df := &dfSearch{astar: s, bestDist: seed.Distance, bestMapping: seed.Mapping}
	df.dive(0, 0)
	return Result{Distance: df.bestDist, Mapping: df.bestMapping, Exact: true, Nodes: df.nodes}
}

type dfSearch struct {
	*astar
	bestDist    float64
	bestMapping []int
	nodes       int64
}

func (df *dfSearch) dive(depth int, g float64) {
	df.nodes++
	n1, n2 := df.N1, df.N2
	if depth == n1 {
		total := g + df.completionCostAfter(-1)
		if total < df.bestDist {
			df.bestDist = total
			df.bestMapping = df.currentMapping()
		}
		return
	}
	u := int(df.order[depth])
	// Children in increasing immediate-cost order: cheap moves first finds
	// tight incumbents early.
	type move struct {
		v    int
		cost float64
	}
	moves := make([]move, 0, n2+1)
	for v := 0; v < n2; v++ {
		if !df.used[v] {
			moves = append(moves, move{v, df.assignCost(depth, u, v)})
		}
	}
	moves = append(moves, move{-1, df.deleteCost(depth, u)})
	for i := 1; i < len(moves); i++ {
		for j := i; j > 0 && moves[j].cost < moves[j-1].cost; j-- {
			moves[j], moves[j-1] = moves[j-1], moves[j]
		}
	}
	for _, mv := range moves {
		child := g + mv.cost
		if child >= df.bestDist {
			continue
		}
		// The admissible histogram bound on the still-open part after
		// this move; recomputed per move because the recursion below
		// reuses the counters.
		if df.useH && child+df.heuristicAfter(u, mv.v) >= df.bestDist {
			continue
		}
		df.mapping[u] = int32(mv.v)
		if mv.v >= 0 {
			df.used[mv.v] = true
		}
		df.dive(depth+1, child)
		if mv.v >= 0 {
			df.used[mv.v] = false
		}
		df.mapping[u] = -2
	}
}
