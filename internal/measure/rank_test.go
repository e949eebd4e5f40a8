package measure

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"skygraph/internal/graph"
)

func rankSweep() []Measure {
	return []Measure{DistEd, DistNEd, DistMcs, DistGu, DistVLabel, DistELabel, DistDegree}
}

// TestIntervalAdmissible: for every measure, the scalar
// interval brackets the value Compute reports — from tier-0 signatures
// alone and after refinement.
func TestIntervalAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		g := graph.Molecule(3+rng.Intn(7), rng)
		q := graph.Molecule(3+rng.Intn(7), rng)
		sg, sq := NewSignature(g), NewSignature(q)
		bs0 := BoundPair(sg, sq)
		bs1 := Refine(g, q, bs0)
		ps := Compute(g, q, Options{})
		for _, m := range rankSweep() {
			v := m.FromStats(&ps)
			for _, bs := range []BoundStats{bs0, bs1} {
				lo, hi := bs.Interval(m)
				if v < lo || v > hi {
					t.Fatalf("trial %d %s: value %v outside [%v, %v]", trial, m.Name(), v, lo, hi)
				}
			}
		}
	}
}

// TestPlanRankCutoffs checks the cutoff semantics against brute force:
// for every integer GED in the interval, the distance fits the
// threshold iff GED <= GEDLimit; for every integer |mcs|, it fits iff
// |mcs| >= MCSNeed.
func TestPlanRankCutoffs(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 30; trial++ {
		g := graph.Molecule(3+rng.Intn(6), rng)
		q := graph.Molecule(3+rng.Intn(6), rng)
		bs := Refine(g, q, BoundPair(NewSignature(g), NewSignature(q)))
		for _, m := range rankSweep() {
			lo, hi := bs.Interval(m)
			for _, t0 := range []float64{lo - 0.5, lo, (lo + hi) / 2, hi, hi + 0.5} {
				p := PlanRank(m, bs, t0)
				if p.NeedGED {
					for gv := int(bs.GEDLo); gv <= int(bs.GEDHi); gv++ {
						ps := bs.statsAt(float64(gv), bs.MCSHi)
						fits := m.FromStats(&ps) <= t0
						if fits != (float64(gv) <= p.GEDLimit) {
							t.Fatalf("%s t=%v: GED=%d fits=%v but limit=%v", m.Name(), t0, gv, fits, p.GEDLimit)
						}
					}
				}
				if p.NeedMCS {
					for mv := bs.MCSLo; mv <= bs.MCSHi; mv++ {
						ps := bs.statsAt(bs.GEDLo, mv)
						fits := m.FromStats(&ps) <= t0
						if fits != (mv >= p.MCSNeed) {
							t.Fatalf("%s t=%v: MCS=%d fits=%v but need=%d", m.Name(), t0, mv, fits, p.MCSNeed)
						}
					}
				}
			}
		}
	}
}

// TestComputeRankMatchesComputeHinted: ComputeRankResults either excludes a
// pair — and then the true reported distance really exceeds the
// threshold — or returns the bit-identical score of the full
// evaluation, on tier-0 bounds and on Refine'd ones (a tighter interval skips decision runs, never changes
// a score).
func TestComputeRankMatchesComputeHinted(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 30; trial++ {
		g := graph.Molecule(3+rng.Intn(6), rng)
		q := graph.Molecule(3+rng.Intn(6), rng)
		sg, sq := NewSignature(g), NewSignature(q)
		bs0 := BoundPair(sg, sq)
		h := PairHints{Sig1: sg, Sig2: sq}
		for _, m := range rankSweep() {
			plain, hinted := Compute(g, q, Options{}), ComputeHinted(g, q, Options{}, h)
			truth := m.FromStats(&plain)
			if got := m.FromStats(&hinted); got != truth {
				t.Fatalf("%s: ComputeHinted %v != truth %v", m.Name(), got, truth)
			}
			for tier, bs := range []BoundStats{bs0, Refine(g, q, bs0)} {
				lo, hi := bs.Interval(m)
				for _, t0 := range []float64{lo - 1, lo, truth, (lo + hi) / 2, hi, math.Inf(1)} {
					score, _, excluded := ComputeRankResults(g, q, m, t0, bs, Options{})
					if excluded {
						if truth <= t0 {
							t.Fatalf("%s tier %d t=%v: excluded but truth %v fits", m.Name(), tier, t0, truth)
						}
						continue
					}
					if score != truth {
						t.Fatalf("%s tier %d t=%v: score %v != truth %v", m.Name(), tier, t0, score, truth)
					}
				}
			}
		}
	}
}

// TestRankIntervalMatchesBoundPair: over seeded random signature pairs,
// empty and one-vertex graphs among them, RankInterval writes exactly
// BoundPair's optimistic and pessimistic GCS corners and returns its
// GEDLo, bit for bit, for the paper, diversity and extended bases and
// for every measure alone (the ranked scan's basis). With no
// pessimistic slice it writes the same optimistic corner. For the
// measures that read GED alone, AtGED at a raised GED lower bound is
// exactly the optimistic end of the interval with GEDLo raised to it —
// the value the ranked scan's tier 1 compares.
func TestRankIntervalMatchesBoundPair(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	single := func(label string) *graph.Graph {
		g := graph.New("v")
		g.AddVertex(label)
		return g
	}
	fixed := []*graph.Graph{graph.New("empty"), single("C"), single("N")}
	pick := func() *graph.Graph {
		if rng.Intn(4) == 0 {
			return fixed[rng.Intn(len(fixed))]
		}
		return graph.Molecule(2+rng.Intn(8), rng)
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	sameVec := func(a, b []float64) bool { return slices.EqualFunc(a, b, same) }
	bases := [][]Measure{Default(), DiversityBasis(), Extended()}
	for _, m := range rankSweep() {
		bases = append(bases, []Measure{m})
	}
	for trial := range 400 {
		s1, s2 := NewSignature(pick()), NewSignature(pick())
		bs := BoundPair(s1, s2)
		for _, basis := range bases {
			lo, hi := make([]float64, len(basis)), make([]float64, len(basis))
			gedLo := RankInterval(s1, s2, basis, lo, hi)
			wantLo, wantHi := bs.IntervalGCS(basis)
			if !sameVec(lo, wantLo) || !sameVec(hi, wantHi) || !same(gedLo, bs.GEDLo) {
				t.Fatalf("trial %d %v: RankInterval = [%v, %v] GEDLo %v, BoundPair = [%v, %v] GEDLo %v",
					trial, BasisNames(basis), lo, hi, gedLo, wantLo, wantHi, bs.GEDLo)
			}
			loOnly := make([]float64, len(basis))
			if gedLo := RankInterval(s1, s2, basis, loOnly, nil); !sameVec(loOnly, wantLo) || !same(gedLo, bs.GEDLo) {
				t.Fatalf("trial %d %v: optimistic corner alone = %v GEDLo %v, BoundPair = %v GEDLo %v",
					trial, BasisNames(basis), loOnly, gedLo, wantLo, bs.GEDLo)
			}
			if !sameVec(bs.OptimisticGCS(basis), wantLo) {
				t.Fatalf("trial %d %v: OptimisticGCS = %v, IntervalGCS lo = %v",
					trial, BasisNames(basis), bs.OptimisticGCS(basis), wantLo)
			}
			if len(basis) != 1 {
				continue
			}
			m := basis[0]
			if needGED, _ := EngineNeeds(m); needGED {
				raised := bs
				raised.GEDLo += float64(rng.Intn(4))
				if wantLo, _ := raised.Interval(m); !same(AtGED(m, raised.GEDLo), wantLo) {
					t.Fatalf("trial %d %s: AtGED(%v) = %v, raised interval starts at %v",
						trial, m.Name(), raised.GEDLo, AtGED(m, raised.GEDLo), wantLo)
				}
			}
		}
	}
}

// TestGEDLimitAtMatchesLastFit: for every measure that reads GED alone,
// clamping the threshold's GEDFit to [lo, hi] gives exactly the
// per-candidate binary search over [lo, hi] — +Inf, lo−1 or the fit —
// for every 0 <= lo <= hi <= 40 and thresholds on and next to each
// integer GED's distance, plus ±Inf, 0 and negative ones.
func TestGEDLimitAtMatchesLastFit(t *testing.T) {
	measures := []Measure{DistEd, DistNEd, DistMcs, DistGu, DistVLabel, DistELabel, DistDegree}
	checked := 0
	for _, m := range measures {
		if needGED, needMCS := EngineNeeds(m); !needGED || needMCS {
			continue
		}
		ths := []float64{math.Inf(1), math.Inf(-1), 0, -1, -0.5}
		for v := 0; v <= 41; v++ {
			b := AtGED(m, float64(v))
			ths = append(ths, b, math.Nextafter(b, math.Inf(-1)), math.Nextafter(b, math.Inf(1)))
		}
		for _, th := range ths {
			fit := GEDFit(m, th)
			for lo := 0; lo <= 40; lo++ {
				for hi := lo; hi <= 40; hi++ {
					want := lastFit(lo, hi, func(v int) bool { return AtGED(m, float64(v)) <= th })
					if got := GEDLimitAt(fit, lo, hi); got != want {
						t.Fatalf("%s th=%v [%d, %d]: GEDLimitAt %v, lastFit %v", m.Name(), th, lo, hi, got, want)
					}
					checked++
				}
			}
		}
		t.Logf("%s: %d thresholds", m.Name(), len(ths))
	}
	if checked == 0 {
		t.Fatal("no GED-only measure checked")
	}
}
