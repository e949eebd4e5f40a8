package graph

import (
	"fmt"
	"sort"
	"strings"
)

// This file implements 1-dimensional Weisfeiler–Leman (color refinement):
// vertices start colored by their label and are iteratively recolored by
// the multiset of (edge label, neighbor color) pairs until stable. The
// stable color histogram is an isomorphism invariant that is strictly
// stronger than label/degree histograms and almost always separates
// non-isomorphic graphs in practice, at O((V+E)·iters) cost — the standard
// cheap pre-filter before running an exact matcher.
//
// Colors are 64-bit FNV hashes computed canonically from structure alone
// (no per-graph numbering), so the same rooted neighborhood produces the
// same hash in every graph; WLColors and WLSignature are the per-graph
// partition views of them.

const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// fnvString folds a string into a running FNV-1a hash, with a length
// prefix so concatenated fields cannot collide by re-splitting.
func fnvString(h uint64, s string) uint64 {
	h = fnvUint64(h, uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// fnvUint64 folds eight bytes into a running FNV-1a hash.
func fnvUint64(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= fnvPrime64
		x >>= 8
	}
	return h
}

// wlRefine runs color refinement on hashed colors, reusing scratch
// buffers across rounds (no strings, no per-round maps except the
// distinct-color counter). maxRounds <= 0 refines to stability; the
// |V|+1 safety bound always applies. Returns the final colors and the
// number of rounds executed.
//
// Stopping criterion: refinement only ever splits color classes (the
// next color is a function of the current one), so the partition is
// stable exactly when the number of distinct colors stops growing.
func wlRefine(g *Graph, maxRounds int) ([]uint64, int) {
	n := g.Order()
	cur := make([]uint64, n)
	labelSeed := fnvString(fnvOffset64, "wl/v")
	for v := 0; v < n; v++ {
		cur[v] = fnvString(labelSeed, g.VertexLabel(v))
	}
	if n == 0 {
		return cur, 0
	}
	next := make([]uint64, n)
	sig := make([]uint64, 0, 16) // per-vertex neighbor contributions, reused
	distinct := make(map[uint64]struct{}, n)
	countDistinct := func(cs []uint64) int {
		clear(distinct)
		for _, c := range cs {
			distinct[c] = struct{}{}
		}
		return len(distinct)
	}
	classes := countDistinct(cur)
	edgeSeed := fnvString(fnvOffset64, "wl/e")
	rounds := 0
	for rounds < n+1 && (maxRounds <= 0 || rounds < maxRounds) {
		for v := 0; v < n; v++ {
			sig = sig[:0]
			for w, el := range g.NeighborSet(v) {
				sig = append(sig, fnvUint64(fnvString(edgeSeed, el), cur[w]))
			}
			sort.Slice(sig, func(i, j int) bool { return sig[i] < sig[j] })
			h := fnvUint64(fnvString(fnvOffset64, "wl/c"), cur[v])
			for _, s := range sig {
				h = fnvUint64(h, s)
			}
			next[v] = h
		}
		rounds++
		cur, next = next, cur
		nc := countDistinct(cur)
		if nc == classes {
			break
		}
		classes = nc
	}
	return cur, rounds
}

// WLColors returns the stable WL colors (arbitrary but deterministic
// integers, dense in first-vertex order) per vertex, and the number of
// refinement rounds executed.
func WLColors(g *Graph) ([]int, int) {
	return WLColorsCapped(g, 0)
}

// WLColorsCapped is WLColors with an iteration cap: maxRounds <= 0
// refines to stability, otherwise at most maxRounds refinement rounds
// run (a capped run is still a valid — merely coarser — invariant
// partition).
func WLColorsCapped(g *Graph, maxRounds int) ([]int, int) {
	hashes, rounds := wlRefine(g, maxRounds)
	colors := make([]int, len(hashes))
	ids := make(map[uint64]int, len(hashes))
	for v, h := range hashes {
		id, ok := ids[h]
		if !ok {
			id = len(ids)
			ids[h] = id
		}
		colors[v] = id
	}
	return colors, rounds
}

// samePartition reports whether two colorings induce the same partition of
// the vertices.
func samePartition(a, b []int) bool {
	fwd := map[int]int{}
	bwd := map[int]int{}
	for i := range a {
		if m, ok := fwd[a[i]]; ok {
			if m != b[i] {
				return false
			}
		} else {
			fwd[a[i]] = b[i]
		}
		if m, ok := bwd[b[i]]; ok {
			if m != a[i] {
				return false
			}
		} else {
			bwd[b[i]] = a[i]
		}
	}
	return true
}

// WLSignature returns a canonical string for the stable WL color
// histogram. Isomorphic graphs always share a signature; unequal
// signatures prove non-isomorphism (the converse does not hold: rare
// WL-equivalent non-isomorphic pairs exist, e.g. C6 vs two triangles).
func WLSignature(g *Graph) string {
	colors, _ := WLColors(g)
	// Rebuild a canonical naming: color class -> (class signature) where
	// the signature is derived from one more refinement-style expansion,
	// then histogram.
	n := g.Order()
	classSig := make([]string, n)
	for v := 0; v < n; v++ {
		sig := make([]string, 0, g.Degree(v))
		for w, el := range g.NeighborSet(v) {
			sig = append(sig, fmt.Sprintf("%s~%s", el, classLabel(g, colors, w)))
		}
		sort.Strings(sig)
		classSig[v] = classLabel(g, colors, v) + "(" + strings.Join(sig, ",") + ")"
	}
	sort.Strings(classSig)
	return strings.Join(classSig, "|")
}

// classLabel names a color class by invariant data only (original label +
// class size), never by the arbitrary integer id.
func classLabel(g *Graph, colors []int, v int) string {
	size := 0
	for _, c := range colors {
		if c == colors[v] {
			size++
		}
	}
	return fmt.Sprintf("%s#%d", g.VertexLabel(v), size)
}

// WLEquivalent reports whether the graphs are indistinguishable by color
// refinement — a necessary condition for isomorphism.
func WLEquivalent(g, h *Graph) bool {
	if g.Order() != h.Order() || g.Size() != h.Size() {
		return false
	}
	return WLSignature(g) == WLSignature(h)
}
