package measure

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"skygraph/internal/assign"
	"skygraph/internal/graph"
)

// The branch lower bound on uniform-cost GED (Zheng et al., "Efficient
// Graph Similarity Search Over Large Graph Databases", TKDE 2015). A
// vertex's branch is its label plus the multiset of its incident edges'
// labels. Two branches are compared by
//
//	[labels differ] + (edge-label multiset distance)/2
//
// where the multiset distance max(|A|,|B|) − |A∩B| is the fewest
// element insertions, deletions and substitutions turning A into B, and
// a vertex with no partner meets the empty branch: 1 + degree/2. The
// bound is the cheapest assignment of one graph's branches to the
// other's, padded with empty branches, rounded up.
//
// It is admissible: the vertex mapping of any edit path is one such
// assignment, and under it a vertex edit changes one branch by 1 while
// an edge edit changes the branches of its two endpoints by at most ½
// each, so the assignment costs at most the path. GED is integral, hence
// the ceiling. Capped engines report a GED at or above the true one (the
// bipartite fallback), so the bound floors what measure.Compute reports
// too. It is never below HistLB: summed over the assignment, the label
// mismatches are at least the vertex-histogram distance and the halved
// multiset distances at least the edge-histogram distance.
//
// The branch distance is a metric (the empty branch being a branch with
// a label of its own), so some cheapest assignment pairs every branch
// with an identical twin wherever one exists: exchanging partners never
// costs more, by the triangle inequality. The bound therefore cancels
// twins first and solves the assignment only over the branches left.
//
// Branches are named by id, not spelled out. A process-wide dictionary
// maps every branch a stored graph has had to a small integer, and a
// signature keeps its vertices' branch ids ascending, so a pair's twins
// cancel in one merge of two sorted integer lists. Only the store's
// insert path adds to the dictionary (InternSignature); any other
// signature, a query's, resolves its branches without adding and names
// a branch the dictionary lacks by a local id: localBit set, the branch
// spelled out in the signature itself, ids assigned in branch order so
// the list stays an isomorphism invariant. Dictionary ids never reach
// localBit, so a local id never equals one, and local ids never cancel
// as twins, since two signatures' local ids name unrelated branches. A
// missed twin costs only time: the assignment still finds the zero-cost
// pair. The dictionary is append-only and process-local: ids are never
// persisted, hashed or sent, deletes do not shrink it, and recovery
// rebuilds it as WAL replay re-inserts the graphs.
//
// The costs come from a BranchTable, built once per query signature: a
// row of doubled costs per dictionary id, against each of the query's
// distinct branches and then the empty branch, filled on first use and
// shared by a scan's workers. A bound merges the two id lists, gathers
// the residual matrix from the rows and solves it: no string is
// compared and nothing is decoded.

// localBit marks a local id; see above.
const localBit = 1 << 31

// noID stands for a branch not resolved yet.
const noID = math.MaxUint32

// branchKey is a branch spelled out: the vertex label and the incident
// edges' labels, ascending.
type branchKey struct {
	label string
	edges []string
}

// compareKeys orders branches by label, degree, then edge labels.
func compareKeys(a, b branchKey) int {
	if c := strings.Compare(a.label, b.label); c != 0 {
		return c
	}
	if c := cmp.Compare(len(a.edges), len(b.edges)); c != 0 {
		return c
	}
	return slices.Compare(a.edges, b.edges)
}

// cost2 is twice the branch distance between a and b, an integer.
func (a branchKey) cost2(b branchKey) float64 {
	c := 0
	if a.label != b.label {
		c = 2
	}
	common, i, j := 0, 0, 0
	for i < len(a.edges) && j < len(b.edges) {
		switch x := strings.Compare(a.edges[i], b.edges[j]); {
		case x == 0:
			common++
			i++
			j++
		case x < 0:
			i++
		default:
			j++
		}
	}
	return float64(c + max(len(a.edges), len(b.edges)) - common)
}

// branchDict is the process-wide branch dictionary. ids maps a branch's
// key (appendKey) to its id and is guarded by mu. keys[id] spells id
// out; it only grows, and an entry once published never changes, so a
// reader indexes a loaded slice with no lock.
type branchDict struct {
	mu   sync.RWMutex
	ids  map[string]uint32
	keys atomic.Pointer[[]branchKey]
}

var dict = branchDict{ids: map[string]uint32{}}

// dictKeys returns the dictionary's branches as published so far,
// indexed by id.
func dictKeys() []branchKey {
	if k := dict.keys.Load(); k != nil {
		return *k
	}
	return nil
}

// dictLen is the dictionary's length. Nothing in the program reads it:
// the gdb tests reach it through a go:linkname in their export_test.go,
// to check that no query grows the dictionary.
func dictLen() int { return len(dictKeys()) }

// appendKey appends s, length-prefixed, to a dictionary key: a branch's
// key is its label then its edge labels, each appended so, and no label
// can run into the next.
func appendKey(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// resolve sets ids[v] to the id of the branch whose key is
// keys[end[v-1]:end[v]], or to noID when the dictionary lacks it, and
// reports whether any was lacking.
func (d *branchDict) resolve(ids []uint32, keys []byte, end []int) (missing bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	from := 0
	for v, to := range end {
		id, ok := d.ids[string(keys[from:to])]
		if !ok {
			id, missing = noID, true
		}
		ids[v] = id
		from = to
	}
	return missing
}

// intern resolves every noID left in ids like resolve, first adding the
// branches the dictionary still lacks; spell(v) spells out v's branch.
func (d *branchDict) intern(ids []uint32, keys []byte, end []int, spell func(v int) branchKey) {
	d.mu.Lock()
	defer d.mu.Unlock()
	all := dictKeys()
	from := 0
	for v, to := range end {
		if ids[v] == noID {
			k := string(keys[from:to])
			id, ok := d.ids[k]
			if !ok {
				if len(all) >= localBit {
					panic("measure: branch dictionary full")
				}
				id = uint32(len(all))
				all = append(all, spell(v))
				d.ids[k] = id
			}
			ids[v] = id
		}
		from = to
	}
	d.keys.Store(&all)
}

// branchIDs returns the branch ids of g, whose edges are edges,
// ascending, and the branches its local ids name. With intern, the
// dictionary first gains every branch it lacks, and there are no local
// ids.
func branchIDs(g *graph.Graph, edges []graph.Edge, intern bool) ([]uint32, []branchKey) {
	n := g.Order()
	// One allocation for the integer scratch: the CSR offsets, the fill
	// cursors (reused for the key ends) and the edges in label order.
	work := make([]int, 2*n+1+len(edges))
	start, fill, byLabel := work[:n+1], work[n+1:2*n+1], work[2*n+1:]
	for i := range byLabel {
		byLabel[i] = i
	}
	slices.SortFunc(byLabel, func(a, b int) int { return strings.Compare(edges[a].Label, edges[b].Label) })
	// inc[start[v]:start[v+1]] holds v's edge labels, ascending: the
	// edges are filled in label order.
	for _, e := range edges {
		start[e.U+1]++
		start[e.V+1]++
	}
	for v := 0; v < n; v++ {
		start[v+1] += start[v]
	}
	inc := make([]string, start[n])
	copy(fill, start[:n])
	for _, i := range byLabel {
		e := edges[i]
		inc[fill[e.U]] = e.Label
		fill[e.U]++
		inc[fill[e.V]] = e.Label
		fill[e.V]++
	}
	// keys[end[v-1]:end[v]] is v's dictionary key.
	var buf [256]byte
	keys, end := buf[:0], fill
	for v := 0; v < n; v++ {
		keys = appendKey(keys, g.VertexLabel(v))
		for _, l := range inc[start[v]:start[v+1]] {
			keys = appendKey(keys, l)
		}
		end[v] = len(keys)
	}
	ids := make([]uint32, n)
	var local []branchKey
	if dict.resolve(ids, keys, end) {
		spell := func(v int) branchKey {
			return branchKey{label: g.VertexLabel(v), edges: inc[start[v]:start[v+1]:start[v+1]]}
		}
		if intern {
			dict.intern(ids, keys, end, spell)
		} else {
			local = localIDs(ids, spell)
		}
	}
	slices.Sort(ids)
	return ids, local
}

// localIDs gives every noID in ids a local id and returns the branches
// they name, in branch order: an isomorphism invariant.
func localIDs(ids []uint32, spell func(v int) branchKey) []branchKey {
	var local []branchKey
	for v, id := range ids {
		if id == noID {
			local = append(local, spell(v))
		}
	}
	slices.SortFunc(local, compareKeys)
	local = slices.CompactFunc(local, func(a, b branchKey) bool { return compareKeys(a, b) == 0 })
	for v, id := range ids {
		if id == noID {
			k, _ := slices.BinarySearchFunc(local, spell(v), compareKeys)
			ids[v] = localBit | uint32(k)
		}
	}
	return local
}

// spelled returns the branch id names: local ids through s.
func spelled(id uint32, s *Signature, keys []branchKey) branchKey {
	if id&localBit != 0 {
		return s.local[id&^localBit]
	}
	return keys[id]
}

// BranchTable is one query signature's branch costs: the bound of any
// signature against the query is LB. Safe for concurrent use.
type BranchTable struct {
	q *Signature
	// cols spells out the query's distinct branches in id order, and
	// col[i] is the column of q.branches[i].
	cols []branchKey
	col  []int32
	// pad[c] is twice column c's distance to the empty branch.
	pad []float64
	// rows[id], once filled, is dictionary id's row: twice its distance
	// to each column, then to the empty branch. A row is filled on first
	// use; a racing fill may compute it twice, but only a whole row is
	// ever published. Ids interned after the table was built lie past
	// the end and are computed per call.
	rows []atomic.Pointer[[]float64]
}

// BranchTable returns s's branch table, building it on first use: one
// table per signature, however many bounds and workers use it.
func (s *Signature) BranchTable() *BranchTable {
	if t := s.table.Load(); t != nil {
		return t
	}
	s.table.CompareAndSwap(nil, newBranchTable(s))
	return s.table.Load()
}

// newBranchTable builds a branch table for q with no row filled.
func newBranchTable(q *Signature) *BranchTable {
	keys := dictKeys()
	n := len(q.branches)
	t := &BranchTable{
		q:    q,
		cols: make([]branchKey, 0, n),
		col:  make([]int32, n),
		pad:  make([]float64, 0, n),
		rows: make([]atomic.Pointer[[]float64], len(keys)),
	}
	for i, id := range q.branches {
		if i == 0 || id != q.branches[i-1] {
			k := spelled(id, q, keys)
			t.cols = append(t.cols, k)
			t.pad = append(t.pad, float64(2+len(k.edges)))
		}
		t.col[i] = int32(len(t.cols) - 1)
	}
	return t
}

// costRow computes the row of branch k (see rows).
func (t *BranchTable) costRow(k branchKey) []float64 {
	row := make([]float64, len(t.cols)+1)
	for c, col := range t.cols {
		row[c] = k.cost2(col)
	}
	row[len(t.cols)] = float64(2 + len(k.edges))
	return row
}

// row returns the row of o's branch id.
func (t *BranchTable) row(id uint32, o *Signature) []float64 {
	if id < uint32(len(t.rows)) {
		if r := t.rows[id].Load(); r != nil {
			return *r
		}
		r := t.costRow(dictKeys()[id])
		t.rows[id].Store(&r)
		return r
	}
	return t.costRow(spelled(id, o, dictKeys()))
}

// boundBuf is one bound's working memory: the residual branches, their
// rows, the cost matrix and the assignment solver's scratch, pooled so
// a bound over filled rows allocates nothing.
type boundBuf struct {
	ro     [][]float64
	rq     []int32
	flat   []float64
	matrix [][]float64
	solver assign.Scratch
}

var branchPool = sync.Pool{New: func() any { return new(boundBuf) }}

// costs fills the buffer with the doubled branch-distance matrix of the
// branches of o and of the query that have no identical twin on the
// other side: rows are those of the graph with more residual branches,
// columns the other's, padded with empty branches to a square. Empty
// when every branch has a twin.
func (t *BranchTable) costs(b *boundBuf, o *Signature) [][]float64 {
	// ro holds the rows of o's residual branches, rq the columns of the
	// query's.
	ro, rq := b.ro[:0], b.rq[:0]
	x, y := o.branches, t.q.branches
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		switch {
		case x[i] == y[j] && x[i]&localBit == 0:
			i++
			j++
		case x[i] <= y[j]:
			ro = append(ro, t.row(x[i], o))
			i++
		default:
			rq = append(rq, t.col[j])
			j++
		}
	}
	for ; i < len(x); i++ {
		ro = append(ro, t.row(x[i], o))
	}
	for ; j < len(y); j++ {
		rq = append(rq, t.col[j])
	}
	b.ro, b.rq = ro, rq
	n := max(len(ro), len(rq))
	if cap(b.flat) < n*n {
		b.flat = make([]float64, n*n)
	}
	b.matrix = b.matrix[:0]
	for i := 0; i < n; i++ {
		row := b.flat[i*n : (i+1)*n]
		if len(ro) >= len(rq) {
			// o's branches are the rows; the empty branch ends each row.
			r := ro[i]
			for j, c := range rq {
				row[j] = r[c]
			}
			for j := len(rq); j < n; j++ {
				row[j] = r[len(t.cols)]
			}
		} else {
			c := rq[i]
			for j, r := range ro {
				row[j] = r[c]
			}
			for j := len(ro); j < n; j++ {
				row[j] = t.pad[c]
			}
		}
		b.matrix = append(b.matrix, row)
	}
	return b.matrix
}

// LB returns the branch lower bound on the uniform-cost edit distance
// between o's graph and the query's (see the top of this file). It is
// symmetric — o.BranchTable().LB(q) is the same bound — at least HistLB,
// and never above the GED measure.Compute reports, capped or not.
func (t *BranchTable) LB(o *Signature) float64 {
	buf := branchPool.Get().(*boundBuf)
	defer branchPool.Put(buf)
	// The costs are small integers, so the solver's sums are exact and
	// the total is the same whichever graph supplies the rows.
	_, total, _ := buf.solver.Solve(t.costs(buf, o))
	return math.Ceil(total / 2)
}

// BranchLB is the branch lower bound between s's and o's graphs from
// o's table: o.BranchTable().LB(s). A scan passes its query as o.
func (s *Signature) BranchLB(o *Signature) float64 {
	return o.BranchTable().LB(s)
}
