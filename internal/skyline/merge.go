package skyline

// Merge combines per-partition skylines into the skyline of the union,
// via the divide-and-conquer identity skyline(A ∪ B) =
// crossfilter(skyline(A), skyline(B)). Each part must be the skyline of
// its own partition (mutually non-dominated points); the parts are
// folded together pairwise, cross-filtering each side against the
// other's survivors. Points with identical vectors never dominate each
// other, so duplicates across partitions are all kept — exactly as a
// global skyline over the union would.
//
// The result preserves part-then-index order; callers needing a global
// order (e.g. database insertion order) sort afterwards. The engine no
// longer calls it — a query's one scan yields one table — and the
// benchmark harness's skyline.merge_us probe is its only caller.
func Merge(parts [][]Point) []Point {
	acc := []Point{}
	for _, part := range parts {
		acc = crossFilter(acc, part)
	}
	return acc
}

// crossFilter merges two skylines: a point survives iff no point of the
// other side dominates it. Within a side points are already mutually
// non-dominated, so only cross comparisons are needed.
func crossFilter(a, b []Point) []Point {
	if len(a) == 0 {
		return append([]Point{}, b...)
	}
	if len(b) == 0 {
		return a
	}
	out := make([]Point, 0, len(a)+len(b))
	for _, p := range a {
		if !dominatedByAny(p, b) {
			out = append(out, p)
		}
	}
	for _, p := range b {
		if !dominatedByAny(p, a) {
			out = append(out, p)
		}
	}
	return out
}
