package graph

import "slices"

// Nbr is a neighbour W reached over an edge whose label is ELabels[L]
// of the graph's Flat form.
type Nbr struct{ W, L int32 }

// Flat is a graph's compact form: its distinct labels in small tables
// and its adjacency as CSR neighbour lists. The pair kernels build their
// pair form from two of these (package pairform) instead of walking the
// adjacency maps once per pair.
type Flat struct {
	// VLabels and ELabels are the distinct vertex and edge labels, in
	// order of first occurrence: vertices by identifier, edges in Nbr
	// order.
	VLabels, ELabels []string
	// VL[v] indexes v's label in VLabels.
	VL []int32
	// Nbr[Off[v]:Off[v+1]] are v's neighbours, ascending by W.
	Off []int32
	Nbr []Nbr
}

// Flat returns g's compact form, building it on first use. Every
// mutator drops it, so the form always describes the graph as it is;
// callers must not modify it. Safe for concurrent use on a graph no one
// mutates.
func (g *Graph) Flat() *Flat {
	if f := g.flat.Load(); f != nil {
		return f
	}
	f := g.buildFlat()
	g.flat.Store(f)
	return f
}

// dropFlat forgets the compact form after a mutation.
func (g *Graph) dropFlat() {
	if g.flat.Load() != nil {
		g.flat.Store(nil)
	}
}

func (g *Graph) buildFlat() *Flat {
	n := len(g.vlabels)
	f := &Flat{VL: make([]int32, n), Off: make([]int32, n+1), Nbr: make([]Nbr, 0, 2*g.nedges)}
	for v, l := range g.vlabels {
		f.VL[v] = labelIndex(&f.VLabels, l)
		start := len(f.Nbr)
		for w := range g.adj[v] {
			f.Nbr = append(f.Nbr, Nbr{W: int32(w)})
		}
		list := f.Nbr[start:]
		slices.SortFunc(list, func(a, b Nbr) int { return int(a.W - b.W) })
		// Labels are indexed after sorting, so the tables do not depend
		// on map order.
		for i := range list {
			list[i].L = labelIndex(&f.ELabels, g.adj[v][int(list[i].W)])
		}
		f.Off[v+1] = int32(len(f.Nbr))
	}
	return f
}

// labelIndex returns label's index in *table, appending it when new.
// Alphabets are a handful of symbols, so a scan beats any hash.
func labelIndex(table *[]string, label string) int32 {
	if i := slices.Index(*table, label); i >= 0 {
		return int32(i)
	}
	*table = append(*table, label)
	return int32(len(*table) - 1)
}
