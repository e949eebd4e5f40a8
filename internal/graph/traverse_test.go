package graph

import (
	"math/rand"
	"testing"
)

func TestBFSOrder(t *testing.T) {
	g := Path(5, "A", "x")
	got := g.BFS(2)
	want := []int{2, 1, 3, 0, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("BFS=%v, want %v", got, want)
		}
	}
}

func TestComponents(t *testing.T) {
	g := New("g")
	g.AddVertices(5, "A")
	g.MustAddEdge(0, 1, "x")
	g.MustAddEdge(3, 4, "x")
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("components=%v", comps)
	}
	if len(comps[0]) != 2 || len(comps[1]) != 1 || len(comps[2]) != 2 {
		t.Errorf("component sizes wrong: %v", comps)
	}
}

func TestIsConnected(t *testing.T) {
	if !Path(6, "A", "x").IsConnected() {
		t.Error("path not connected")
	}
	g := Path(3, "A", "x")
	g.AddVertex("B")
	if g.IsConnected() {
		t.Error("graph with isolated vertex reported connected")
	}
	single := New("s")
	single.AddVertex("A")
	if !single.IsConnected() {
		t.Error("K1 not connected")
	}
}

func TestGeneratorsShape(t *testing.T) {
	if g := Path(5, "A", "x"); g.Order() != 5 || g.Size() != 4 {
		t.Error("Path shape")
	}
	if g := Cycle(5, "A", "x"); g.Order() != 5 || g.Size() != 5 {
		t.Error("Cycle shape")
	}
	if g := Complete(5, "A", "x"); g.Size() != 10 {
		t.Error("Complete shape")
	}
	if g := Star(5, "A", "x"); g.Size() != 4 || g.Degree(0) != 4 {
		t.Error("Star shape")
	}
}

func TestConnectedErdosRenyi(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		g := ConnectedErdosRenyi(15, 0.05, []string{"A"}, []string{"x"}, rng)
		if !g.IsConnected() {
			t.Fatal("ConnectedErdosRenyi produced disconnected graph")
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMoleculeProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		g := Molecule(20, rng)
		if !g.IsConnected() {
			t.Fatal("molecule disconnected")
		}
		for v := 0; v < g.Order(); v++ {
			if g.Degree(v) > 4 {
				t.Fatalf("degree bound violated: %d", g.Degree(v))
			}
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMutateCountsAndConnectivity(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	base := Molecule(15, rng)
	for _, nops := range []int{1, 3, 7} {
		m := Mutate(base, nops, []string{"C", "N", "O"}, []string{"-", "="}, rng)
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
		if !m.IsConnected() {
			t.Error("mutation disconnected the graph")
		}
		if m.Equal(base) && nops > 0 {
			t.Error("mutation produced identical graph")
		}
	}
}
