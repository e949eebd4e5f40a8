package measure

import (
	"slices"
	"testing"
	"testing/quick"
)

// fuzzLabels is the label alphabet of FuzzFlatHistogram: the empty
// string, prefixes of one another, a NUL byte and non-ASCII, so the
// merge-walk meets every string-ordering corner.
var fuzzLabels = [8]string{"", "A", "AB", "B", "\x00", "a", "é", "A\x00"}

// fuzzMultisets decodes two label multisets from data: one byte each,
// the low three bits choose the label, bit 3 the multiset.
func fuzzMultisets(data []byte) (a, b []string) {
	for _, c := range data {
		l := fuzzLabels[c&7]
		if c&8 == 0 {
			a = append(a, l)
		} else {
			b = append(b, l)
		}
	}
	return a, b
}

// HistogramDistance returns the L1 distance between two count maps divided
// by two, i.e. the minimum number of element substitutions/insertions/
// deletions to transform one multiset into the other when a substitution
// repairs one surplus and one deficit at once. This is the classic
// label-histogram lower bound on edit distance restricted to one element
// kind, and the map-based reference of Histogram.distance.
func HistogramDistance(a, b map[string]int) int {
	surplus, deficit := 0, 0
	for l, ca := range a {
		if cb := b[l]; ca > cb {
			surplus += ca - cb
		}
	}
	for l, cb := range b {
		if ca := a[l]; cb > ca {
			deficit += cb - ca
		}
	}
	return max(surplus, deficit)
}

func TestHistogramDistance(t *testing.T) {
	cases := []struct {
		a, b map[string]int
		want int
	}{
		{map[string]int{"A": 2}, map[string]int{"A": 2}, 0},
		{map[string]int{"A": 2}, map[string]int{"A": 1}, 1},
		{map[string]int{"A": 2}, map[string]int{"B": 2}, 2},         // 2 substitutions
		{map[string]int{"A": 3}, map[string]int{"A": 1, "B": 1}, 2}, // 1 sub + 1 del
		{map[string]int{}, map[string]int{"A": 4}, 4},
		{map[string]int{"A": 1, "B": 1}, map[string]int{"C": 1}, 2},
	}
	for i, c := range cases {
		if got := HistogramDistance(c.a, c.b); got != c.want {
			t.Errorf("case %d: got %d, want %d", i, got, c.want)
		}
	}
}

func TestHistogramDistanceSymmetric(t *testing.T) {
	f := func(av, bv []uint8) bool {
		a, b := map[string]int{}, map[string]int{}
		labels := []string{"A", "B", "C"}
		for _, x := range av {
			a[labels[int(x)%3]]++
		}
		for _, x := range bv {
			b[labels[int(x)%3]]++
		}
		return HistogramDistance(a, b) == HistogramDistance(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func countMap(labels []string) map[string]int {
	m := make(map[string]int)
	for _, l := range labels {
		m[l]++
	}
	return m
}

// FuzzFlatHistogram checks the flat histograms against the map-based
// definitions on arbitrary label multisets: the merge-walk distance
// equals HistogramDistance in both directions, the intersection
// equals a map reference, and Labels enumerates exactly the distinct
// labels in ascending order.
func FuzzFlatHistogram(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 1, 2, 9, 9, 10, 11, 15})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{7, 7, 7, 15})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := fuzzMultisets(data)
		ma, mb := countMap(a), countMap(b)
		ha, hb := histogramOf(slices.Clone(a)), histogramOf(slices.Clone(b))
		if got, want := ha.distance(hb), HistogramDistance(ma, mb); got != want {
			t.Fatalf("distance(%q, %q) = %d, want %d", a, b, got, want)
		}
		if got, want := hb.distance(ha), HistogramDistance(mb, ma); got != want {
			t.Fatalf("distance(%q, %q) = %d, want %d", b, a, got, want)
		}
		want := 0
		for l, ca := range ma {
			want += min(ca, mb[l])
		}
		if got := ha.intersection(hb); got != want {
			t.Fatalf("intersection(%q, %q) = %d, want %d", a, b, got, want)
		}
		if got := hb.intersection(ha); got != want {
			t.Fatalf("intersection(%q, %q) = %d, want %d", b, a, got, want)
		}
		var labels []string
		for l := range ha.Labels() {
			labels = append(labels, l)
		}
		distinct := make([]string, 0, len(ma))
		for l := range ma {
			distinct = append(distinct, l)
		}
		slices.Sort(distinct)
		if !slices.Equal(labels, distinct) {
			t.Fatalf("Labels() = %q, want %q", labels, distinct)
		}
	})
}
