// Package assign implements minimum-cost perfect assignment on a square
// cost matrix (the Hungarian algorithm in its O(n^3) potentials/shortest
// augmenting path form). It is the substrate of the bipartite graph edit
// distance approximation (Riesen & Bunke style) in internal/ged and of
// the branch lower bound on graph edit distance in internal/measure
// (tier 1 of the scans), which solves one small residual matrix per
// bound — in the ranked scan only for candidates that the matrix's
// row/column-minimum bound cannot settle.
package assign

import (
	"fmt"
	"math"
)

// Solve returns a minimum-cost perfect assignment for the square cost
// matrix: assignment[i] = j means row i is assigned to column j. It returns
// the total cost as well. Costs may be any finite float64 (including
// negatives). An error is returned if the matrix is not square or empty
// rows differ in length.
func Solve(cost [][]float64) (assignment []int, total float64, err error) {
	return new(Scratch).Solve(cost)
}

// Scratch is Solve's working memory, kept between calls: a caller that
// solves many small matrices (the bipartite GED approximation, the
// branch lower bound) holds one Scratch per goroutine — typically in a
// sync.Pool — and a warm solve allocates nothing. The zero value is
// ready to use; a Scratch must not be used concurrently.
type Scratch struct {
	u, v, minv []float64
	p, way, a  []int
	used       []bool
}

// Solve is the package-level Solve on s's buffers. The returned
// assignment is owned by s and valid until its next call.
func (s *Scratch) Solve(cost [][]float64) (assignment []int, total float64, err error) {
	n := len(cost)
	if n == 0 {
		return nil, 0, nil
	}
	for i, row := range cost {
		if len(row) != n {
			return nil, 0, fmt.Errorf("assign: row %d has %d columns, want %d", i, len(row), n)
		}
		for j, c := range row {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				return nil, 0, fmt.Errorf("assign: non-finite cost at (%d,%d)", i, j)
			}
		}
	}

	// Jonker–Volgenant style shortest augmenting path with dual potentials.
	// 1-based arrays with a virtual row/column 0 simplify the loop.
	const inf = math.MaxFloat64
	u := zeroed(&s.u, n+1) // row potentials
	v := zeroed(&s.v, n+1) // column potentials
	p := zeroed(&s.p, n+1) // p[j]: row assigned to column j
	way := zeroed(&s.way, n+1)

	// Per-augmentation scratch, reset in place each row.
	minv := zeroed(&s.minv, n+1)
	used := zeroed(&s.used, n+1)

	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		for j := range minv {
			minv[j] = inf
			used[j] = false
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := inf
			j1 := 0
			for j := 1; j <= n; j++ {
				if used[j] {
					continue
				}
				cur := cost[i0-1][j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= n; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
			if j0 == 0 {
				break
			}
		}
	}

	assignment = zeroed(&s.a, n)
	for j := 1; j <= n; j++ {
		if p[j] > 0 {
			assignment[p[j]-1] = j - 1
		}
	}
	for i := 0; i < n; i++ {
		total += cost[i][assignment[i]]
	}
	return assignment, total, nil
}

// zeroed resizes *buf to n zero elements, reusing its backing array
// when it is large enough.
func zeroed[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	} else {
		*buf = (*buf)[:n]
		clear(*buf)
	}
	return *buf
}

// BruteForce returns the optimal assignment by enumerating all permutations.
// It is exponential and intended only for cross-checking Solve in tests and
// for matrices with n <= 9.
func BruteForce(cost [][]float64) (assignment []int, total float64, err error) {
	n := len(cost)
	for i, row := range cost {
		if len(row) != n {
			return nil, 0, fmt.Errorf("assign: row %d has %d columns, want %d", i, len(row), n)
		}
	}
	if n == 0 {
		return nil, 0, nil
	}
	best := math.MaxFloat64
	perm := make([]int, n)
	bestPerm := make([]int, n)
	used := make([]bool, n)
	var rec func(i int, acc float64)
	rec = func(i int, acc float64) {
		if i == n {
			if acc < best {
				best = acc
				copy(bestPerm, perm)
			}
			return
		}
		for j := 0; j < n; j++ {
			if used[j] {
				continue
			}
			used[j] = true
			perm[i] = j
			rec(i+1, acc+cost[i][j])
			used[j] = false
		}
	}
	rec(0, 0)
	return bestPerm, best, nil
}
