// Package skyline implements d-dimensional skyline (Pareto-optimal set)
// computation in the smaller-is-better convention of the paper's
// Definition 1, together with the similarity-dominance semantics of
// Definition 12: a point p dominates q iff p <= q on every dimension and
// p < q on at least one.
//
// Three algorithms are provided and benched against each other (experiment
// E9): Block-Nested-Loop, Sort-Filter-Skyline and a divide-and-conquer
// merge. All return exactly the set of non-dominated points, preserving
// input order.
package skyline

import (
	"fmt"
	"sort"
)

// Point is one candidate with its distance vector. ID is caller-defined
// (e.g. a graph name); Vec is the GCS vector.
type Point struct {
	ID  string
	Vec []float64
}

// Dominates reports whether a dominates b (Definition 1): a <= b everywhere
// and a < b somewhere. Vectors must have equal length.
func Dominates(a, b []float64) bool {
	if len(a) != len(b) {
		panic(fmt.Sprintf("skyline: dimension mismatch %d vs %d", len(a), len(b)))
	}
	strict := false
	for i := range a {
		if a[i] > b[i] {
			return false
		}
		if a[i] < b[i] {
			strict = true
		}
	}
	return strict
}

// Algorithm computes the skyline of a point set.
type Algorithm func([]Point) []Point

// BNL is the Block-Nested-Loop algorithm: each point is compared against a
// window of currently undominated points.
func BNL(points []Point) []Point {
	var window []Point
	for _, p := range points {
		dominated := false
		keep := window[:0]
		for _, w := range window {
			if dominated {
				keep = append(keep, w)
				continue
			}
			if Dominates(w.Vec, p.Vec) {
				dominated = true
				keep = append(keep, w)
				continue
			}
			if !Dominates(p.Vec, w.Vec) {
				keep = append(keep, w)
			}
		}
		window = keep
		if !dominated {
			window = append(window, p)
		}
	}
	return reorder(points, window)
}

// SFS is Sort-Filter-Skyline: points are pre-sorted by a monotone score
// (the coordinate sum), after which a point can only be dominated by points
// appearing earlier, so one forward pass against the growing skyline
// suffices and accepted points are never evicted.
func SFS(points []Point) []Point {
	idx := make([]int, len(points))
	for i := range idx {
		idx[i] = i
	}
	sum := func(v []float64) float64 {
		s := 0.0
		for _, x := range v {
			s += x
		}
		return s
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return sum(points[idx[a]].Vec) < sum(points[idx[b]].Vec)
	})
	var sky []Point
	for _, i := range idx {
		p := points[i]
		dominated := false
		for _, s := range sky {
			if Dominates(s.Vec, p.Vec) {
				dominated = true
				break
			}
		}
		if !dominated {
			sky = append(sky, p)
		}
	}
	return reorder(points, sky)
}

// DivideAndConquer splits the point set in half, computes each half's
// skyline recursively, and cross-filters the two partial skylines.
func DivideAndConquer(points []Point) []Point {
	return reorder(points, dac(points))
}

func dac(points []Point) []Point {
	if len(points) <= 1 {
		return points
	}
	mid := len(points) / 2
	left := dac(points[:mid])
	right := dac(points[mid:])
	var out []Point
	for _, p := range left {
		if !dominatedByAny(p, right) {
			out = append(out, p)
		}
	}
	for _, p := range right {
		if !dominatedByAny(p, left) {
			out = append(out, p)
		}
	}
	return out
}

func dominatedByAny(p Point, set []Point) bool {
	for _, s := range set {
		if Dominates(s.Vec, p.Vec) {
			return true
		}
	}
	return false
}

// reorder returns the members of sky in the order they appear in the
// original input (IDs may repeat; identity is by index lookup on pointer-
// equal vectors falling back to ID+vector equality).
func reorder(points, sky []Point) []Point {
	if sky == nil {
		return []Point{}
	}
	taken := make([]bool, len(sky))
	out := make([]Point, 0, len(sky))
	for _, p := range points {
		for i, s := range sky {
			if !taken[i] && s.ID == p.ID && sameVec(s.Vec, p.Vec) {
				out = append(out, s)
				taken[i] = true
				break
			}
		}
	}
	return out
}

func sameVec(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Compute runs the default algorithm (SFS).
func Compute(points []Point) []Point { return SFS(points) }
