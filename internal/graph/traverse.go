package graph

import "sort"

// BFS returns the vertices reachable from start in breadth-first order.
func (g *Graph) BFS(start int) []int {
	g.mustVertex(start)
	seen := make([]bool, g.Order())
	order := make([]int, 0, g.Order())
	queue := []int{start}
	seen[start] = true
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, w := range g.Neighbors(v) {
			if !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	return order
}

// Components returns the connected components as slices of vertex
// identifiers, each sorted ascending, ordered by smallest member.
func (g *Graph) Components() [][]int {
	seen := make([]bool, g.Order())
	var comps [][]int
	for v := 0; v < g.Order(); v++ {
		if seen[v] {
			continue
		}
		comp := g.BFS(v)
		for _, w := range comp {
			seen[w] = true
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

// IsConnected reports whether g is connected. The empty graph and the
// single-vertex graph are connected.
func (g *Graph) IsConnected() bool {
	if g.Order() <= 1 {
		return true
	}
	return len(g.BFS(0)) == g.Order()
}
