package skyline

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestDominates(t *testing.T) {
	cases := []struct {
		a, b []float64
		want bool
	}{
		{[]float64{1, 1}, []float64{2, 2}, true},
		{[]float64{1, 2}, []float64{2, 1}, false},
		{[]float64{1, 1}, []float64{1, 1}, false}, // equal: no strict dim
		{[]float64{1, 2}, []float64{1, 3}, true},
		{[]float64{2, 2}, []float64{1, 1}, false},
	}
	for i, c := range cases {
		if got := Dominates(c.a, c.b); got != c.want {
			t.Errorf("case %d: Dominates(%v,%v)=%v", i, c.a, c.b, got)
		}
	}
}

func TestDominatesDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	Dominates([]float64{1}, []float64{1, 2})
}

// hotels is Table I of the paper; the expected skyline is {H2, H4, H6}
// (Example 1).
func hotels() []Point {
	return []Point{
		{ID: "H1", Vec: []float64{4.0, 150}},
		{ID: "H2", Vec: []float64{3.0, 110}},
		{ID: "H3", Vec: []float64{2.5, 240}},
		{ID: "H4", Vec: []float64{2.0, 180}},
		{ID: "H5", Vec: []float64{1.7, 270}},
		{ID: "H6", Vec: []float64{1.0, 195}},
		{ID: "H7", Vec: []float64{1.2, 210}},
	}
}

func ids(ps []Point) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.ID
	}
	return out
}

func TestHotelsExample1AllAlgorithms(t *testing.T) {
	want := []string{"H2", "H4", "H6"}
	for name, algo := range map[string]Algorithm{"BNL": BNL, "SFS": SFS, "DC": DivideAndConquer, "Compute": Compute} {
		got := ids(algo(hotels()))
		if len(got) != len(want) {
			t.Errorf("%s: skyline=%v, want %v", name, got, want)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: skyline=%v, want %v", name, got, want)
				break
			}
		}
	}
}

func TestHotelsDominancePairs(t *testing.T) {
	// Example 1 states H1 is dominated by H2, and H7 by H6.
	h := hotels()
	if !Dominates(h[1].Vec, h[0].Vec) {
		t.Error("H2 should dominate H1")
	}
	if !Dominates(h[5].Vec, h[6].Vec) {
		t.Error("H6 should dominate H7")
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	for _, algo := range []Algorithm{BNL, SFS, DivideAndConquer} {
		if got := algo(nil); len(got) != 0 {
			t.Error("empty input")
		}
		one := []Point{{ID: "a", Vec: []float64{1}}}
		if got := algo(one); len(got) != 1 || got[0].ID != "a" {
			t.Error("singleton input")
		}
	}
}

func TestDuplicatesBothKept(t *testing.T) {
	pts := []Point{
		{ID: "a", Vec: []float64{1, 1}},
		{ID: "b", Vec: []float64{1, 1}},
		{ID: "c", Vec: []float64{2, 2}},
	}
	for name, algo := range map[string]Algorithm{"BNL": BNL, "SFS": SFS, "DC": DivideAndConquer} {
		got := ids(algo(pts))
		if len(got) != 2 || got[0] != "a" || got[1] != "b" {
			t.Errorf("%s: duplicates handled wrong: %v", name, got)
		}
	}
}

func TestAlgorithmsAgreeOnRandomData(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(60)
		d := 1 + r.Intn(4)
		pts := make([]Point, n)
		for i := range pts {
			v := make([]float64, d)
			for j := range v {
				v[j] = float64(r.Intn(8)) // small ints force ties/duplicates
			}
			pts[i] = Point{ID: string(rune('a' + i%26)), Vec: v}
		}
		a := ids(BNL(pts))
		b := ids(SFS(pts))
		c := ids(DivideAndConquer(pts))
		return equalStrings(a, b) && equalStrings(b, c) && skylineCorrect(pts, BNL(pts))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// skylineCorrect checks the defining property: a point is in the skyline
// iff no other point dominates it.
func skylineCorrect(all, sky []Point) bool {
	inSky := map[int]bool{}
	for i, p := range all {
		dominated := false
		for j, q := range all {
			if i != j && Dominates(q.Vec, p.Vec) {
				dominated = true
				break
			}
		}
		inSky[i] = !dominated
	}
	// Count expected vs got by multiset of IDs+vectors.
	want := 0
	for _, ok := range inSky {
		if ok {
			want++
		}
	}
	if len(sky) != want {
		return false
	}
	for _, p := range sky {
		dominated := false
		for _, q := range all {
			if Dominates(q.Vec, p.Vec) {
				dominated = true
				break
			}
		}
		if dominated {
			return false
		}
	}
	return true
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]string(nil), a...)
	bs := append([]string(nil), b...)
	sort.Strings(as)
	sort.Strings(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

func TestInputOrderPreserved(t *testing.T) {
	pts := []Point{
		{ID: "z", Vec: []float64{0, 9}},
		{ID: "m", Vec: []float64{5, 5}},
		{ID: "a", Vec: []float64{9, 0}},
	}
	for name, algo := range map[string]Algorithm{"BNL": BNL, "SFS": SFS, "DC": DivideAndConquer} {
		got := ids(algo(pts))
		want := []string{"z", "m", "a"}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: order %v, want %v", name, got, want)
				break
			}
		}
	}
}
