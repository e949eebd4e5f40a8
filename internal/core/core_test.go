package core

import (
	"path/filepath"
	"testing"

	"skygraph/internal/dataset"
	"skygraph/internal/measure"
	"skygraph/internal/skyline"
)

func paperEngine(t *testing.T, options ...Option) *Engine {
	t.Helper()
	e := NewEngine(options...)
	if err := e.Add(dataset.PaperDB()...); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEngineSkylinePaper(t *testing.T) {
	e := paperEngine(t)
	res, err := e.Skyline(dataset.PaperQuery())
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated != 7 || res.Inexact != 0 {
		t.Errorf("evaluated=%d inexact=%d", res.Evaluated, res.Inexact)
	}
	if len(res.Members) != 4 {
		t.Fatalf("members=%v", res.Members)
	}
	for i, want := range dataset.GSSExpected {
		if res.Members[i].Name != want {
			t.Errorf("member[%d]=%s, want %s", i, res.Members[i].Name, want)
		}
	}
}

func TestEngineAddRemove(t *testing.T) {
	e := paperEngine(t)
	if e.Len() != 7 {
		t.Errorf("len=%d", e.Len())
	}
	if !e.Remove("g3") {
		t.Error("Remove failed")
	}
	if _, ok := e.Get("g3"); ok {
		t.Error("g3 still present")
	}
	if len(e.Names()) != 6 {
		t.Errorf("names=%v", e.Names())
	}
}

func TestEngineSaveLoad(t *testing.T) {
	e := paperEngine(t)
	path := filepath.Join(t.TempDir(), "paper.lgf")
	if err := e.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := loaded.Skyline(dataset.PaperQuery())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Members) != 4 {
		t.Errorf("skyline after reload: %v", res.Members)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "nope.lgf")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestEngineDiverseSkyline(t *testing.T) {
	e := paperEngine(t)
	res, err := e.DiverseSkyline(dataset.PaperQuery(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 2 || !res.Exhaustive {
		t.Errorf("selected=%v exhaustive=%v", res.Selected, res.Exhaustive)
	}
}

func TestEngineTopK(t *testing.T) {
	e := paperEngine(t)
	got, err := e.TopK(dataset.PaperQuery(), measure.DistEd{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Name != "g4" || got[0].Vector[0] != 2 {
		t.Errorf("top1=%v", got)
	}
}

func TestEngineOptions(t *testing.T) {
	e := paperEngine(t,
		WithBasis(measure.DistEd{}, measure.DistGu{}),
		WithWorkers(2),
	)
	res, err := e.Skyline(dataset.PaperQuery())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.All[0].Vector) != 2 {
		t.Errorf("basis dimension %d, want 2", len(res.All[0].Vector))
	}
	// In the (DistEd, DistGu) plane: g4 (2,.67), g3 (3,.56), g5 (3,.44),
	// g7 (4,.40): g3 dominated by g5; g1 (4,.50), g2 (4,.56), g6 (4,.50)
	// dominated by g5/g7.
	want := map[string]bool{"g4": true, "g5": true, "g7": true}
	if len(res.Members) != len(want) {
		t.Fatalf("members=%v", res.Members)
	}
	for _, m := range res.Members {
		if !want[m.Name] {
			t.Errorf("unexpected member %s", m.Name)
		}
	}
	// BNL, SFS and D&C over the answer's full table agree with it.
	all := make([]skyline.Point, len(res.All))
	for i, m := range res.All {
		all[i] = skyline.Point{ID: m.Name, Vec: m.Vector}
	}
	for name, algo := range map[string]skyline.Algorithm{"BNL": skyline.BNL, "SFS": skyline.SFS, "DC": skyline.DivideAndConquer} {
		sky := algo(all)
		if len(sky) != len(want) {
			t.Fatalf("%s: skyline %v", name, sky)
		}
		for _, p := range sky {
			if !want[p.ID] {
				t.Errorf("%s: unexpected member %s", name, p.ID)
			}
		}
	}
}

func TestEngineBudget(t *testing.T) {
	e := NewEngine(WithBudget(2, 2))
	if err := e.Add(dataset.MoleculeDB(3, 10, 12, 9)...); err != nil {
		t.Fatal(err)
	}
	q := dataset.MoleculeDB(1, 10, 12, 10)[0]
	res, err := e.Skyline(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Inexact == 0 {
		t.Error("tight budget should report inexact evaluations")
	}
}

func TestExplain(t *testing.T) {
	e := paperEngine(t)
	res, err := e.Skyline(dataset.PaperQuery())
	if err != nil {
		t.Fatal(err)
	}
	for loser, winner := range dataset.DominatedBy {
		dom, ok := Explain(res, loser)
		if !ok {
			t.Errorf("no dominator for %s", loser)
			continue
		}
		// Any dominating skyline member is acceptable; the paper names one.
		if dom == "" {
			t.Errorf("empty dominator for %s (paper says %s)", loser, winner)
		}
	}
	if _, ok := Explain(res, "g1"); ok {
		t.Error("skyline member has a dominator")
	}
	if _, ok := Explain(res, "missing"); ok {
		t.Error("missing graph explained")
	}
}

func TestMemberString(t *testing.T) {
	m := Member{Name: "g1", Vector: []float64{1, 2}}
	if m.String() != "g1[1 2]" {
		t.Errorf("String=%q", m.String())
	}
}
