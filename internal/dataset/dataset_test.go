package dataset

import (
	"math"
	"testing"

	"skygraph/internal/diversity"
	"skygraph/internal/ged"
	"skygraph/internal/graph"
	"skygraph/internal/mcs"
	"skygraph/internal/measure"
	"skygraph/internal/skyline"
)

func TestHotelsSkylineExample1(t *testing.T) {
	got := skyline.Compute(Hotels())
	if len(got) != len(HotelsSkyline) {
		t.Fatalf("skyline size %d, want %d", len(got), len(HotelsSkyline))
	}
	for i, id := range HotelsSkyline {
		if got[i].ID != id {
			t.Errorf("skyline[%d]=%s, want %s", i, got[i].ID, id)
		}
	}
}

// TestFig1Examples234 recomputes Examples 2, 3 and 4 of the paper on the
// reconstructed Fig. 1 pair with the real engines.
func TestFig1Examples234(t *testing.T) {
	g1, g2 := Fig1Pair()
	if g1.Size() != 6 || g2.Size() != 6 {
		t.Fatalf("sizes %d,%d, want 6,6", g1.Size(), g2.Size())
	}
	// The stated edit script transforms g1 into g2.
	transformed, err := graph.ApplyScript(g1, Fig1Script())
	if err != nil {
		t.Fatal(err)
	}
	if !graph.Isomorphic(transformed, g2) {
		t.Fatalf("Fig1Script does not produce g2:\n%s\n%s", transformed, g2)
	}
	// Example 2: DistEd(g1,g2) = 4.
	if d := ged.Distance(g1, g2); d != 4 {
		t.Errorf("DistEd=%v, want 4", d)
	}
	// Example 3: |mcs| = 4 and DistMcs = 0.33.
	if m := mcs.Size(g1, g2); m != 4 {
		t.Errorf("|mcs|=%d, want 4", m)
	}
	s := measure.Compute(g1, g2, measure.Options{})
	if got := Round2(measure.DistMcs.FromStats(&s)); got != 0.33 {
		t.Errorf("DistMcs=%v, want 0.33", got)
	}
	// Example 4: DistGu = 0.50.
	if got := Round2(measure.DistGu.FromStats(&s)); got != 0.50 {
		t.Errorf("DistGu=%v, want 0.50", got)
	}
}

func TestPaperDBSizes(t *testing.T) {
	db := PaperDB()
	q := PaperQuery()
	if q.Size() != PaperQuerySize {
		t.Errorf("|q|=%d, want %d", q.Size(), PaperQuerySize)
	}
	for i, g := range db {
		if g.Size() != PaperSizes[i] {
			t.Errorf("|%s|=%d, want %d", g.Name(), g.Size(), PaperSizes[i])
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", g.Name(), err)
		}
		if !g.IsConnected() {
			t.Errorf("%s disconnected", g.Name())
		}
	}
}

// TestPaperTable2Mcs recomputes Table II with the exact MCS engine.
func TestPaperTable2Mcs(t *testing.T) {
	db := PaperDB()
	q := PaperQuery()
	for i, g := range db {
		if got := mcs.Size(g, q); got != PaperMcs[i] {
			t.Errorf("|mcs(%s,q)|=%d, want %d", g.Name(), got, PaperMcs[i])
		}
	}
}

// TestPaperTable3GCS recomputes every row of Table III with the exact GED
// and MCS engines and compares at the paper's 2-decimal precision.
func TestPaperTable3GCS(t *testing.T) {
	db := PaperDB()
	q := PaperQuery()
	want := PaperTable3()
	for i, g := range db {
		vec := measure.ComputeGCS(g, q, measure.Options{})
		for d := 0; d < 3; d++ {
			if got := Round2(vec[d]); math.Abs(got-want[i].Vec[d]) > 1e-9 {
				t.Errorf("%s dim %d: %v, want %v", g.Name(), d, got, want[i].Vec[d])
			}
		}
	}
}

func TestPaperG7IsSupergraphOfQuery(t *testing.T) {
	db := PaperDB()
	q := PaperQuery()
	if !graph.IsSupergraphOf(db[6], q) {
		t.Error("g7 should be a supergraph of q (Section VI)")
	}
	for i, g := range db[:6] {
		if graph.IsSupergraphOf(g, q) {
			t.Errorf("g%d unexpectedly a supergraph of q", i+1)
		}
	}
}

// TestPaperGSS recomputes GSS(D,q) = {g1,g4,g5,g7} end to end from graphs.
func TestPaperGSS(t *testing.T) {
	db := PaperDB()
	q := PaperQuery()
	pts := make([]skyline.Point, len(db))
	for i, g := range db {
		pts[i] = skyline.Point{ID: g.Name(), Vec: measure.ComputeGCS(g, q, measure.Options{})}
	}
	got := skyline.Compute(pts)
	if len(got) != len(GSSExpected) {
		t.Fatalf("GSS size %d, want %d: %v", len(got), len(GSSExpected), got)
	}
	for i, id := range GSSExpected {
		if got[i].ID != id {
			t.Errorf("GSS[%d]=%s, want %s", i, got[i].ID, id)
		}
	}
	// Section VI's domination witnesses.
	vec := map[string][]float64{}
	for _, p := range pts {
		vec[p.ID] = p.Vec
	}
	for loser, winner := range DominatedBy {
		if !skyline.Dominates(vec[winner], vec[loser]) {
			t.Errorf("%s should dominate %s", winner, loser)
		}
	}
}

// TestPaperDiversity reruns the Section VII refinement on the Table IV
// pairwise fixture: the winner must be {g1, g4} with val 5.
func TestPaperDiversity(t *testing.T) {
	m := PaperPairwise()
	best, all, err := diversity.Exhaustive(m, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 6 {
		t.Fatalf("candidates=%d, want 6 (Table IV)", len(all))
	}
	if PaperPairwiseIDs[best.Members[0]] != DiversityWinner[0] ||
		PaperPairwiseIDs[best.Members[1]] != DiversityWinner[1] {
		t.Errorf("winner=%v", best.Members)
	}
	if best.Val != 5 {
		t.Errorf("val=%d, want 5", best.Val)
	}
}

func TestPaperTopKMissesG3(t *testing.T) {
	// Section VI: with single-measure top-3 by DistEd, g3 is returned even
	// though g5 dominates it — the skyline approach excludes g3.
	db := PaperDB()
	q := PaperQuery()
	type scored struct {
		id string
		d  float64
	}
	var byEd []scored
	for _, g := range db {
		byEd = append(byEd, scored{g.Name(), ged.Distance(g, q)})
	}
	// g4 (2) and g3, g5 (3) are the unique top-3 by DistEd.
	top := map[string]bool{}
	for _, s := range byEd {
		if s.d <= 3 {
			top[s.id] = true
		}
	}
	if !top["g3"] {
		t.Error("top-3 by DistEd should include g3 (the paper's point)")
	}
	inGSS := map[string]bool{}
	for _, id := range GSSExpected {
		inGSS[id] = true
	}
	if inGSS["g3"] {
		t.Error("g3 must not be in the skyline")
	}
}

func TestMoleculeDBDeterministic(t *testing.T) {
	a := MoleculeDB(5, 6, 10, 42)
	b := MoleculeDB(5, 6, 10, 42)
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("generation not deterministic at %d", i)
		}
		if a[i].Order() < 6 || a[i].Order() > 10 {
			t.Errorf("order %d out of range", a[i].Order())
		}
	}
	c := MoleculeDB(5, 6, 10, 43)
	same := true
	for i := range a {
		if !a[i].Equal(c[i]) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical databases")
	}
}

func TestNoisyQueries(t *testing.T) {
	db := MoleculeDB(4, 6, 8, 7)
	qs := NoisyQueries(db, 3, 2, 11)
	if len(qs) != 3 {
		t.Fatalf("count=%d", len(qs))
	}
	for _, q := range qs {
		if err := q.Validate(); err != nil {
			t.Error(err)
		}
		if !q.IsConnected() {
			t.Error("noisy query disconnected")
		}
	}
}

func TestMoleculeDBPanicsOnBadRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	MoleculeDB(1, 5, 4, 1)
}

// clusterForms maps each RewiredClusters cluster (the c<cluster> name
// prefix) to the set of canonical forms among its members.
func clusterForms(gs []*graph.Graph) map[string]map[string]bool {
	out := map[string]map[string]bool{}
	for _, g := range gs {
		c := g.Name()[:3]
		if out[c] == nil {
			out[c] = map[string]bool{}
		}
		out[c][graph.QueryHash(g)] = true
	}
	return out
}

// TestRewiredClustersDistinctCounts pins what the generator's doc says:
// at orders below 7 the seeds are trees, no rewire can move a bridge, so
// every cluster is copies of its seed (one canonical form per cluster);
// from order 7 on the seeds have a ring and cluster mates differ.
func TestRewiredClustersDistinctCounts(t *testing.T) {
	for c, forms := range clusterForms(RewiredClusters(12, 10, 4, 6, 5, 1)) {
		if len(forms) != 1 {
			t.Errorf("tree orders: cluster %s holds %d distinct graphs, want 1", c, len(forms))
		}
	}
	for c, forms := range clusterForms(RewiredClusters(12, 10, 7, 8, 5, 1)) {
		if len(forms) < 2 {
			t.Errorf("ring orders: cluster %s holds %d distinct graphs, want several", c, len(forms))
		}
	}
}
