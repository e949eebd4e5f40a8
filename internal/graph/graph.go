// Package graph implements the undirected labeled graphs of the paper
// (Definition 3): a graph is a 4-tuple (V, E, L, l) where both vertices and
// edges carry labels. Vertices are dense integer identifiers 0..Order()-1.
// Graphs are simple: no self-loops and no parallel edges. The size of a
// graph, |g|, is its number of edges (paper, Section II-B).
package graph

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// Edge is an undirected labeled edge. U < V is maintained as a normal form
// by all functions returning Edge values.
type Edge struct {
	U, V  int
	Label string
}

// normalize returns e with endpoints ordered U <= V.
func (e Edge) normalize() Edge {
	if e.U > e.V {
		e.U, e.V = e.V, e.U
	}
	return e
}

// Graph is an undirected labeled simple graph. The zero value is an empty
// graph ready to use.
type Graph struct {
	name    string
	vlabels []string
	adj     []map[int]string
	nedges  int
	flat    atomic.Pointer[Flat] // built by Flat, dropped by every mutator
}

// New returns an empty graph with the given name. The name is metadata only
// and plays no role in comparisons.
func New(name string) *Graph {
	return &Graph{name: name}
}

// Name returns the graph's name.
func (g *Graph) Name() string { return g.name }

// SetName sets the graph's name.
func (g *Graph) SetName(name string) { g.name = name }

// Order returns |V|, the number of vertices.
func (g *Graph) Order() int { return len(g.vlabels) }

// Size returns |E|, the number of edges. Per the paper, this is the size
// |g| of the graph.
func (g *Graph) Size() int { return g.nedges }

// AddVertex adds a vertex with the given label and returns its identifier.
func (g *Graph) AddVertex(label string) int {
	g.dropFlat()
	g.vlabels = append(g.vlabels, label)
	g.adj = append(g.adj, nil)
	return len(g.vlabels) - 1
}

// AddVertices adds n vertices sharing one label and returns the identifier
// of the first.
func (g *Graph) AddVertices(n int, label string) int {
	first := len(g.vlabels)
	for i := 0; i < n; i++ {
		g.AddVertex(label)
	}
	return first
}

// HasVertex reports whether v is a valid vertex identifier.
func (g *Graph) HasVertex(v int) bool { return v >= 0 && v < len(g.vlabels) }

// VertexLabel returns the label of vertex v. It panics if v is invalid.
func (g *Graph) VertexLabel(v int) string {
	g.mustVertex(v)
	return g.vlabels[v]
}

// RelabelVertex sets the label of vertex v.
func (g *Graph) RelabelVertex(v int, label string) {
	g.mustVertex(v)
	g.dropFlat()
	g.vlabels[v] = label
}

func (g *Graph) mustVertex(v int) {
	if !g.HasVertex(v) {
		panic(fmt.Sprintf("graph %q: invalid vertex %d (order %d)", g.name, v, g.Order()))
	}
}

// AddEdge inserts an undirected edge {u,v} with the given label. It returns
// an error if either endpoint is invalid, u == v (self-loop), or the edge
// already exists.
func (g *Graph) AddEdge(u, v int, label string) error {
	if !g.HasVertex(u) || !g.HasVertex(v) {
		return fmt.Errorf("graph %q: edge {%d,%d}: endpoint out of range (order %d)", g.name, u, v, g.Order())
	}
	if u == v {
		return fmt.Errorf("graph %q: self-loop on vertex %d not allowed", g.name, u)
	}
	if _, ok := g.adj[u][v]; ok {
		return fmt.Errorf("graph %q: edge {%d,%d} already exists", g.name, u, v)
	}
	g.dropFlat()
	if g.adj[u] == nil {
		g.adj[u] = make(map[int]string)
	}
	if g.adj[v] == nil {
		g.adj[v] = make(map[int]string)
	}
	g.adj[u][v] = label
	g.adj[v][u] = label
	g.nedges++
	return nil
}

// MustAddEdge is AddEdge but panics on error. It is intended for
// programmatic construction of fixtures where the input is known valid.
func (g *Graph) MustAddEdge(u, v int, label string) {
	if err := g.AddEdge(u, v, label); err != nil {
		panic(err)
	}
}

// RemoveEdge deletes the edge {u,v}. It returns false if the edge does not
// exist.
func (g *Graph) RemoveEdge(u, v int) bool {
	if !g.HasVertex(u) || !g.HasVertex(v) {
		return false
	}
	if _, ok := g.adj[u][v]; !ok {
		return false
	}
	g.dropFlat()
	delete(g.adj[u], v)
	delete(g.adj[v], u)
	g.nedges--
	return true
}

// HasEdge reports whether the edge {u,v} exists.
func (g *Graph) HasEdge(u, v int) bool {
	if !g.HasVertex(u) || !g.HasVertex(v) {
		return false
	}
	_, ok := g.adj[u][v]
	return ok
}

// EdgeLabel returns the label of edge {u,v} and whether the edge exists.
func (g *Graph) EdgeLabel(u, v int) (string, bool) {
	if !g.HasVertex(u) || !g.HasVertex(v) {
		return "", false
	}
	l, ok := g.adj[u][v]
	return l, ok
}

// RelabelEdge sets the label of an existing edge {u,v}. It returns false if
// the edge does not exist.
func (g *Graph) RelabelEdge(u, v int, label string) bool {
	if !g.HasEdge(u, v) {
		return false
	}
	g.dropFlat()
	g.adj[u][v] = label
	g.adj[v][u] = label
	return true
}

// RemoveVertex deletes vertex v together with its incident edges. To keep
// identifiers dense, the last vertex is renumbered to v (swap-delete);
// callers holding identifiers of the previously-last vertex must account for
// this. It returns the identifier that was renumbered to v, or -1 if v was
// the last vertex.
func (g *Graph) RemoveVertex(v int) int {
	g.mustVertex(v)
	g.dropFlat()
	for w := range g.adj[v] {
		delete(g.adj[w], v)
		g.nedges--
	}
	g.adj[v] = nil
	last := len(g.vlabels) - 1
	moved := -1
	if v != last {
		// Renumber `last` to `v`.
		g.vlabels[v] = g.vlabels[last]
		g.adj[v] = g.adj[last]
		for w, l := range g.adj[v] {
			delete(g.adj[w], last)
			g.adj[w][v] = l
		}
		moved = last
	}
	g.vlabels = g.vlabels[:last]
	g.adj = g.adj[:last]
	return moved
}

// Degree returns the number of edges incident to v.
func (g *Graph) Degree(v int) int {
	g.mustVertex(v)
	return len(g.adj[v])
}

// Neighbors returns the sorted neighbor identifiers of v.
func (g *Graph) Neighbors(v int) []int {
	g.mustVertex(v)
	out := make([]int, 0, len(g.adj[v]))
	for w := range g.adj[v] {
		out = append(out, w)
	}
	sort.Ints(out)
	return out
}

// NeighborSet returns the adjacency map of v (neighbor -> edge label). The
// returned map is the graph's internal storage and must not be mutated.
func (g *Graph) NeighborSet(v int) map[int]string {
	g.mustVertex(v)
	return g.adj[v]
}

// Edges returns all edges in a deterministic order (sorted by U then V),
// with U < V in each edge.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.nedges)
	for u := range g.adj {
		for v, l := range g.adj[u] {
			if u < v {
				out = append(out, Edge{U: u, V: v, Label: l})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// VertexLabels returns a copy of the vertex label slice indexed by vertex
// identifier.
func (g *Graph) VertexLabels() []string {
	out := make([]string, len(g.vlabels))
	copy(out, g.vlabels)
	return out
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		name:    g.name,
		vlabels: append([]string(nil), g.vlabels...),
		adj:     make([]map[int]string, len(g.adj)),
		nedges:  g.nedges,
	}
	for v, m := range g.adj {
		if len(m) == 0 {
			continue
		}
		cm := make(map[int]string, len(m))
		for w, l := range m {
			cm[w] = l
		}
		c.adj[v] = cm
	}
	return c
}

// Equal reports whether g and h are identical under the identity mapping:
// same order, same vertex labels per identifier, same labeled edges. Use
// Isomorphic for structural equality up to vertex renaming.
func (g *Graph) Equal(h *Graph) bool {
	if g.Order() != h.Order() || g.Size() != h.Size() {
		return false
	}
	for v, l := range g.vlabels {
		if h.vlabels[v] != l {
			return false
		}
	}
	for u := range g.adj {
		if len(g.adj[u]) != len(h.adj[u]) {
			return false
		}
		for v, l := range g.adj[u] {
			if hl, ok := h.adj[u][v]; !ok || hl != l {
				return false
			}
		}
	}
	return true
}

// Validate checks internal consistency (adjacency symmetry, edge count,
// no self-loops) and returns a descriptive error on the first violation.
// It is primarily used by tests and by the codec after parsing.
func (g *Graph) Validate() error {
	if len(g.vlabels) != len(g.adj) {
		return fmt.Errorf("graph %q: %d labels but %d adjacency rows", g.name, len(g.vlabels), len(g.adj))
	}
	count := 0
	for u := range g.adj {
		for v, l := range g.adj[u] {
			if v == u {
				return fmt.Errorf("graph %q: self-loop on %d", g.name, u)
			}
			if v < 0 || v >= len(g.adj) {
				return fmt.Errorf("graph %q: edge {%d,%d} endpoint out of range", g.name, u, v)
			}
			back, ok := g.adj[v][u]
			if !ok {
				return fmt.Errorf("graph %q: edge {%d,%d} missing reverse entry", g.name, u, v)
			}
			if back != l {
				return fmt.Errorf("graph %q: edge {%d,%d} label mismatch %q vs %q", g.name, u, v, l, back)
			}
			count++
		}
	}
	if count%2 != 0 {
		return fmt.Errorf("graph %q: odd directed edge count %d", g.name, count)
	}
	if count/2 != g.nedges {
		return fmt.Errorf("graph %q: edge counter %d disagrees with adjacency %d", g.name, g.nedges, count/2)
	}
	return nil
}

// String renders a compact deterministic description, e.g.
// "g1(V=3,E=2){0:A 1:B 2:C | 0-1:x 1-2:y}".
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s(V=%d,E=%d){", g.name, g.Order(), g.Size())
	for v, l := range g.vlabels {
		if v > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%s", v, l)
	}
	b.WriteString(" |")
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, " %d-%d:%s", e.U, e.V, e.Label)
	}
	b.WriteByte('}')
	return b.String()
}
