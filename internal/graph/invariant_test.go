package graph

import "testing"

func TestLabelHistogram(t *testing.T) {
	g := New("g")
	g.AddVertex("A")
	g.AddVertex("A")
	g.AddVertex("B")
	g.MustAddEdge(0, 1, "x")
	g.MustAddEdge(1, 2, "x")
	vh, eh := g.LabelHistogram()
	if vh["A"] != 2 || vh["B"] != 1 || eh["x"] != 2 {
		t.Errorf("histograms: %v %v", vh, eh)
	}
}

func TestDegreeSequence(t *testing.T) {
	g := Star(5, "A", "x")
	seq := g.DegreeSequence()
	want := []int{4, 1, 1, 1, 1}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("seq=%v", seq)
		}
	}
}

func TestApplyScript(t *testing.T) {
	g := Path(3, "A", "x")
	ops := []EditOp{
		RelabelVertexOp{V: 1, Label: "B"},
		DeleteEdge{U: 1, V: 2},
		RelabelEdgeOp{U: 0, V: 1, Label: "y"},
		InsertVertex{Label: "C"},
		InsertEdge{U: 2, V: 3, Label: "z"},
	}
	out, err := ApplyScript(g, ops)
	if err != nil {
		t.Fatal(err)
	}
	if g.VertexLabel(1) != "A" {
		t.Error("ApplyScript mutated the input graph")
	}
	if out.VertexLabel(1) != "B" || out.Order() != 4 || out.Size() != 2 {
		t.Errorf("script result wrong: %s", out)
	}
	if l, _ := out.EdgeLabel(0, 1); l != "y" {
		t.Error("relabel-edge missed")
	}
}

func TestApplyScriptErrors(t *testing.T) {
	g := Path(3, "A", "x")
	bad := [][]EditOp{
		{DeleteEdge{U: 0, V: 2}},
		{DeleteVertex{V: 0}},                 // not isolated
		{DeleteVertex{V: 9}},                 // missing
		{RelabelVertexOp{V: 9}},              // missing
		{RelabelEdgeOp{U: 0, V: 2}},          // missing edge
		{InsertEdge{U: 0, V: 1, Label: "x"}}, // duplicate
	}
	for i, ops := range bad {
		if _, err := ApplyScript(g, ops); err == nil {
			t.Errorf("case %d: no error", i)
		}
	}
}

func TestDeleteVertexOpOnIsolated(t *testing.T) {
	g := New("g")
	g.AddVertex("A")
	g.AddVertex("B")
	out, err := ApplyScript(g, []EditOp{DeleteVertex{V: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if out.Order() != 1 || out.VertexLabel(0) != "B" {
		t.Errorf("result: %s", out)
	}
}

func TestEditOpStrings(t *testing.T) {
	ops := []EditOp{
		InsertVertex{"A"}, DeleteVertex{1}, RelabelVertexOp{1, "B"},
		InsertEdge{0, 1, "x"}, DeleteEdge{0, 1}, RelabelEdgeOp{0, 1, "y"},
	}
	for _, op := range ops {
		if op.String() == "" {
			t.Errorf("%T has empty String()", op)
		}
	}
}
