// Package pairform is the compact form two graphs take for one pairwise
// search. The GED and MCS kernels both run on it, so the tree has one
// pair representation: the two graphs' labels interned to small
// integers — one id space for vertex labels, one for edge labels, ids
// from 1, shared by both graphs — so inner loops compare int32s instead
// of strings, and adjacency as per-vertex neighbour lists plus a dense
// n×n matrix of edge-label ids (0 = no edge) instead of map lookups.
//
// A Form is built once per pair, from the two graphs' cached flat forms
// (graph.Flat), and lives in the kernels' pooled scratch. What belongs
// to one graph, its label tables and sorted neighbour lists, is built
// once per graph; only the pair's shared id spaces are built per pair.
package pairform

import "skygraph/internal/graph"

// Edge is an edge u < v with edge-label id l.
type Edge struct{ U, V, L int32 }

// Nbr is a neighbour w reached over an edge with label id l.
type Nbr struct{ W, L int32 }

// Form is the compact form of a pair (g1, g2). Fields ending in 1
// describe g1, those ending in 2 describe g2.
type Form struct {
	N1, N2 int
	// VL1[u], VL2[v] are vertex label ids.
	VL1, VL2 []int32
	// Edges1, Edges2 list each graph's edges with u < v, sorted by
	// (u, v) — graph.Edges() order, which fixes the order kernels sum
	// edge costs in.
	Edges1, Edges2 []Edge
	// Nbr1[Off1[u]:Off1[u+1]] are u's neighbours, ascending (CSR).
	Off1, Off2 []int32
	Nbr1, Nbr2 []Nbr
	// Adj1[u*N1+w], Adj2[v*N2+x] are edge label ids, 0 for no edge.
	// Filled by Densify; searches that only count labels skip it.
	Adj1, Adj2 []int32
	// VLabels[id-1], ELabels[id-1] are the interned labels.
	VLabels, ELabels []string

	vids, eids []int32 // Load scratch: a graph's label index -> pair id
}

// MaxPooledCells bounds the scratch a kernel hands back to its pool: a
// search whose buffers grew past it (a large pair) lets the GC have
// them instead of pinning them for the life of the process.
const MaxPooledCells = 1 << 16

// Oversized reports whether the form's buffers grew past
// MaxPooledCells, in which case the scratch holding it must not be
// pooled.
func (f *Form) Oversized() bool {
	return max(cap(f.Adj1), cap(f.Adj2), cap(f.Nbr1), cap(f.Nbr2)) > MaxPooledCells
}

// Resize returns buf with length n and every element zero, reusing the
// backing array when it is large enough.
func Resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// intern returns the 1-based id of label in *table, adding it when new.
// Alphabets are a handful of symbols, so a scan beats any hash. Labels
// are mostly one or two bytes: comparing the first byte inline settles
// nearly every mismatch without a call into the runtime's memequal.
func intern(table *[]string, label string) int32 {
	for i, l := range *table {
		if len(l) == len(label) && (len(l) == 0 || l[0] == label[0]) && l == label {
			return int32(i + 1)
		}
	}
	*table = append(*table, label)
	return int32(len(*table))
}

// Load builds the pair's form from the two graphs' cached flat forms
// (graph.Flat): each graph's few distinct labels are interned into the
// pair's id spaces, then its label and neighbour lists are remapped and
// copied. O(V+E) with no map walked and nothing sorted; after Load no
// kernel reads the graphs again.
func (f *Form) Load(g1, g2 *graph.Graph) {
	f.VLabels, f.ELabels = f.VLabels[:0], f.ELabels[:0]
	f.N1, f.N2 = g1.Order(), g2.Order()
	f.loadSide(g1.Flat(), &f.VL1, &f.Edges1, &f.Off1, &f.Nbr1)
	f.loadSide(g2.Flat(), &f.VL2, &f.Edges2, &f.Off2, &f.Nbr2)
}

func (f *Form) loadSide(g *graph.Flat, vl *[]int32, edges *[]Edge, off *[]int32, nbr *[]Nbr) {
	vids, eids := f.vids[:0], f.eids[:0]
	for _, l := range g.VLabels {
		vids = append(vids, intern(&f.VLabels, l))
	}
	for _, l := range g.ELabels {
		eids = append(eids, intern(&f.ELabels, l))
	}
	f.vids, f.eids = vids, eids
	*vl = Resize(*vl, len(g.VL))
	for u, l := range g.VL {
		(*vl)[u] = vids[l]
	}
	*off = append((*off)[:0], g.Off...)
	ns, es := Resize(*nbr, len(g.Nbr)), (*edges)[:0]
	for u := range g.VL {
		// Neighbour lists ascend, so u's edges toward higher neighbours
		// come out in (u, v) order.
		for i := g.Off[u]; i < g.Off[u+1]; i++ {
			x := g.Nbr[i]
			ns[i] = Nbr{x.W, eids[x.L]}
			if x.W > int32(u) {
				es = append(es, Edge{int32(u), x.W, ns[i].L})
			}
		}
	}
	*edges, *nbr = es, ns
}

// Densify fills the adjacency matrices from the edge lists.
func (f *Form) Densify() {
	f.Adj1 = denseAdj(f.Adj1, f.N1, f.Edges1)
	f.Adj2 = denseAdj(f.Adj2, f.N2, f.Edges2)
}

func denseAdj(adj []int32, n int, edges []Edge) []int32 {
	adj = Resize(adj, n*n)
	for _, e := range edges {
		adj[int(e.U)*n+int(e.V)] = e.L
		adj[int(e.V)*n+int(e.U)] = e.L
	}
	return adj
}

// Nbrs1 and Nbrs2 return a vertex's neighbour list.
func (f *Form) Nbrs1(u int) []Nbr { return f.Nbr1[f.Off1[u]:f.Off1[u+1]] }
func (f *Form) Nbrs2(v int) []Nbr { return f.Nbr2[f.Off2[v]:f.Off2[v+1]] }

// NV and NE are the strides of id-indexed tables (ids start at 1).
func (f *Form) NV() int { return len(f.VLabels) + 1 }
func (f *Form) NE() int { return len(f.ELabels) + 1 }
