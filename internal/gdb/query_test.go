package gdb

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"skygraph/internal/dataset"
	"skygraph/internal/graph"
	"skygraph/internal/measure"
	"skygraph/internal/skyline"
	"skygraph/internal/topk"
)

func pointIDs(pts []skyline.Point) []string {
	ids := make([]string, len(pts))
	for i, p := range pts {
		ids[i] = p.ID
	}
	return ids
}

func TestSkylineQueryPaper(t *testing.T) {
	db := paperDB(t)
	q := dataset.PaperQuery()
	res, err := db.SkylineQuery(context.Background(), q, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Evaluated != 7 {
		t.Errorf("stats=%+v", res.Stats)
	}
	if got := pointIDs(res.Skyline); fmt.Sprint(got) != fmt.Sprint(dataset.GSSExpected) {
		t.Fatalf("GSS=%v, want %v", got, dataset.GSSExpected)
	}
	// All vectors must match Table III at 2-decimal precision.
	want := dataset.PaperTable3()
	for i, p := range res.All {
		for d := range p.Vec {
			if dataset.Round2(p.Vec[d]) != want[i].Vec[d] {
				t.Errorf("%s dim %d: %v, want %v", p.ID, d, dataset.Round2(p.Vec[d]), want[i].Vec[d])
			}
		}
	}
}

// TestSkylineQueryAlgorithmsAgree: BNL, SFS and D&C over one unpruned
// answer's full table each find the answer's four members.
func TestSkylineQueryAlgorithmsAgree(t *testing.T) {
	requireAlgorithmsAgree(t, nil, dataset.GSSExpected)
}

// TestSkylineQueryTwoMeasureBasis: under the basis (DistEd, DistGu) the
// answer has two dimensions and g4 (2, .67), g5 (3, .44) and g7 (4, .40)
// are the front: g5 dominates g3 (3, .56), and g5 or g7 dominate
// g1 (4, .50), g2 (4, .56) and g6 (4, .50). BNL, SFS and D&C agree.
func TestSkylineQueryTwoMeasureBasis(t *testing.T) {
	requireAlgorithmsAgree(t, []measure.Measure{measure.DistEd, measure.DistGu}, []string{"g4", "g5", "g7"})
}

// requireAlgorithmsAgree runs the paper query under basis (nil: the
// default) and requires the skyline want, a full table of len(basis)
// dimensions, and BNL, SFS and D&C over that table to find the skyline.
func requireAlgorithmsAgree(t *testing.T, basis []measure.Measure, want []string) {
	t.Helper()
	res, err := paperDB(t).SkylineQuery(context.Background(), dataset.PaperQuery(), QueryOptions{Basis: basis})
	if err != nil {
		t.Fatal(err)
	}
	if got := pointIDs(res.Skyline); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("skyline %v, want %v", got, want)
	}
	if dims := len(res.All[0].Vec); basis != nil && dims != len(basis) {
		t.Errorf("%d dimensions, want %d", dims, len(basis))
	}
	for name, algo := range map[string]skyline.Algorithm{"BNL": skyline.BNL, "SFS": skyline.SFS, "DC": skyline.DivideAndConquer} {
		if got := algo(res.All); !samePoints(got, res.Skyline) {
			t.Errorf("%s: skyline %v, want %v", name, got, res.Skyline)
		}
	}
}

// TestDominatedBy: every graph Section VI names as dominated gets a
// skyline member that dominates it (any one will do; the paper names
// one), and skyline members and unknown names get none.
func TestDominatedBy(t *testing.T) {
	res, err := paperDB(t).SkylineQuery(context.Background(), dataset.PaperQuery(), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	vec := map[string][]float64{}
	for _, p := range res.All {
		vec[p.ID] = p.Vec
	}
	for loser, winner := range dataset.DominatedBy {
		if dom, ok := res.DominatedBy(loser); !ok || !skyline.Dominates(vec[dom], vec[loser]) {
			t.Errorf("DominatedBy(%s) = %q, %v; the paper names %s", loser, dom, ok, winner)
		}
	}
	for _, name := range append([]string{"missing"}, dataset.GSSExpected...) {
		if dom, ok := res.DominatedBy(name); ok {
			t.Errorf("DominatedBy(%s) = %q", name, dom)
		}
	}
}

// TestPrunedSkylineRunsIdentically: the pruned skyline scan is one
// sequential pass, so two runs of one query over one snapshot score the
// same candidates: the same All rows, the same Work, and the same
// per-stage trace pairs and pruned counts.
func TestPrunedSkylineRunsIdentically(t *testing.T) {
	db := New()
	gs := dataset.MoleculeDB(200, 6, 6, 4801)
	if err := db.InsertAll(gs); err != nil {
		t.Fatal(err)
	}
	for qi, q := range dataset.NoisyQueries(gs, 4, 2, 4802) {
		var runs [2]SkylineResult
		var stages [2][]TraceStage
		for r := range runs {
			trace := NewQueryTrace()
			res, err := db.SkylineQuery(context.Background(), q, QueryOptions{Prune: true, Trace: trace})
			if err != nil {
				t.Fatal(err)
			}
			runs[r] = res
			for _, s := range trace.Stages() {
				s.DurationMS = 0
				stages[r] = append(stages[r], s)
			}
		}
		if !reflect.DeepEqual(runs[0].All, runs[1].All) {
			t.Errorf("q%d: All rows differ between runs:\n%v\n%v", qi, runs[0].All, runs[1].All)
		}
		if runs[0].Stats.Work != runs[1].Stats.Work {
			t.Errorf("q%d: Work differs between runs: %+v vs %+v", qi, runs[0].Stats.Work, runs[1].Stats.Work)
		}
		if !reflect.DeepEqual(stages[0], stages[1]) {
			t.Errorf("q%d: trace stages differ between runs: %+v vs %+v", qi, stages[0], stages[1])
		}
	}
}

func TestSkylineQueryEmptyDB(t *testing.T) {
	db := New()
	res, err := db.SkylineQuery(context.Background(), dataset.PaperQuery(), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Skyline) != 0 || len(res.All) != 0 {
		t.Error("empty DB produced results")
	}
}

func TestTopKQueryPaper(t *testing.T) {
	db := paperDB(t)
	q := dataset.PaperQuery()
	res, err := db.TopKQuery(context.Background(), q, measure.DistEd, 3, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 3 {
		t.Fatalf("items=%v", res.Items)
	}
	// Top-3 by DistEd: g4 (2), then g3 and g5 (3). The paper's argument:
	// g3 appears here despite being dominated by g5 in the skyline sense.
	if res.Items[0].ID != "g4" || res.Items[0].Score != 2 {
		t.Errorf("top1=%v", res.Items[0])
	}
	got := map[string]bool{}
	for _, it := range res.Items {
		got[it.ID] = true
	}
	if !got["g3"] || !got["g5"] {
		t.Errorf("top-3=%v, want g3 and g5 present", res.Items)
	}
}

func TestTopKPruningConsistent(t *testing.T) {
	// Pruning must not change results, only skip work: the best-first
	// scan accounts for every graph as evaluated or pruned, and answers
	// exactly what ranking the complete table's column does.
	db := paperDB(t)
	q := dataset.PaperQuery()
	tab, err := db.VectorTable(context.Background(), q, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.TopKQuery(context.Background(), q, measure.DistEd, 2, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Evaluated+res.Stats.Pruned != db.Len() {
		t.Errorf("evaluated %d + pruned %d != %d", res.Stats.Evaluated, res.Stats.Pruned, db.Len())
	}
	requireSameItems(t, "pruned-topk", topk.Select(tableColumn(t, tab, measure.DistEd), 2), res.Items)
}

func TestTopKErrors(t *testing.T) {
	db := paperDB(t)
	if _, err := db.TopKQuery(context.Background(), dataset.PaperQuery(), measure.DistEd, 0, QueryOptions{}); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestRangeQuery(t *testing.T) {
	db := paperDB(t)
	q := dataset.PaperQuery()
	res, err := db.RangeQuery(context.Background(), q, measure.DistEd, 3, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// GED values are 4,4,3,2,3,4,4: radius 3 admits g3, g4, g5.
	want := map[string]bool{"g3": true, "g4": true, "g5": true}
	if len(res.Items) != len(want) {
		t.Fatalf("items=%v", res.Items)
	}
	for _, it := range res.Items {
		if !want[it.ID] {
			t.Errorf("unexpected member %s", it.ID)
		}
		if it.Score > 3 {
			t.Errorf("score %v beyond radius", it.Score)
		}
	}
	if res.Stats.Evaluated+res.Stats.Pruned != db.Len() {
		t.Error("stats do not add up")
	}
}

func TestRangeQueryRadiusZero(t *testing.T) {
	db := paperDB(t)
	g1, _ := db.Get("g1")
	res, err := db.RangeQuery(context.Background(), g1, measure.DistEd, 0, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 1 || res.Items[0].ID != "g1" {
		t.Errorf("self query: %v", res.Items)
	}
}

func TestDiverseSkylineQueryPaper(t *testing.T) {
	db := paperDB(t)
	q := dataset.PaperQuery()
	res, err := db.DiverseSkylineQuery(context.Background(), q, 2, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exhaustive {
		t.Error("small skyline should use the exhaustive path")
	}
	if len(res.Selected) != 2 {
		t.Fatalf("selected=%v", res.Selected)
	}
	// NOTE: the paper's Table IV distances come from the original (lost)
	// figure graphs; our reconstruction matches Tables II/III exactly but
	// pairwise distances may differ, so here we only require a valid,
	// deterministic 2-subset of the skyline.
	inSky := map[string]bool{}
	for _, p := range res.Skyline {
		inSky[p.ID] = true
	}
	for _, id := range res.Selected {
		if !inSky[id] {
			t.Errorf("selected %s not in skyline", id)
		}
	}
	again, err := db.DiverseSkylineQuery(context.Background(), q, 2, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Selected {
		if res.Selected[i] != again.Selected[i] {
			t.Error("diverse selection nondeterministic")
		}
	}
}

func TestDiverseSkylineKCoversAll(t *testing.T) {
	db := paperDB(t)
	q := dataset.PaperQuery()
	res, err := db.DiverseSkylineQuery(context.Background(), q, 10, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != len(res.Skyline) {
		t.Errorf("selected=%v", res.Selected)
	}
	if _, err := db.DiverseSkylineQuery(context.Background(), q, 0, QueryOptions{}); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestDiverseSkylineEmptyDB(t *testing.T) {
	db := New()
	res, err := db.DiverseSkylineQuery(context.Background(), dataset.PaperQuery(), 2, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 0 {
		t.Errorf("selected=%v", res.Selected)
	}
}

func TestSkylineQueryContextCompletes(t *testing.T) {
	db := paperDB(t)
	res, err := db.SkylineQuery(context.Background(), dataset.PaperQuery(), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Skyline) != 4 {
		t.Errorf("skyline=%d", len(res.Skyline))
	}
}

func TestSkylineQueryContextCancel(t *testing.T) {
	db := New()
	if err := db.InsertAll(dataset.MoleculeDB(8, 9, 11, 77)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already canceled: must abort before finishing
	_, err := db.SkylineQuery(ctx, dataset.MoleculeDB(1, 9, 10, 78)[0], QueryOptions{})
	if err == nil {
		t.Fatal("canceled query returned no error")
	}
	if err != context.Canceled {
		t.Errorf("err=%v", err)
	}
}

func TestSkylineQueryContextTimeout(t *testing.T) {
	db := New()
	if err := db.InsertAll(dataset.MoleculeDB(10, 11, 13, 81)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Microsecond)
	defer cancel()
	_, err := db.SkylineQuery(ctx, dataset.MoleculeDB(1, 11, 12, 82)[0], QueryOptions{})
	if err != context.DeadlineExceeded {
		t.Errorf("err=%v, want deadline exceeded", err)
	}
}

func TestConcurrentInsertAndQuery(t *testing.T) {
	// The DB must tolerate concurrent readers and writers (run with -race).
	db := paperDB(t)
	q := dataset.PaperQuery()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if _, err := db.SkylineQuery(context.Background(), q, QueryOptions{}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			g := graph.Path(3, "A", "x")
			g.SetName(fmt.Sprintf("extra%d", i))
			if _, err := db.Insert(g, ""); err != nil {
				t.Error(err)
				return
			}
			db.Delete(g.Name(), "")
		}
	}()
	wg.Wait()
}

func TestSkylineQueryExtendedBasis(t *testing.T) {
	db := paperDB(t)
	res, err := db.SkylineQuery(context.Background(), dataset.PaperQuery(), QueryOptions{Basis: measure.Extended()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.All[0].Vec) != 6 {
		t.Fatalf("dims=%d, want 6", len(res.All[0].Vec))
	}
	// A wider basis can only grow the skyline: every point non-dominated in
	// a sub-basis stays non-dominated when dimensions are added... only if
	// the sub-basis dims coincide; here dims 0..2 are the default basis, so
	// default skyline members must survive.
	def, err := db.SkylineQuery(context.Background(), dataset.PaperQuery(), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ext := map[string]bool{}
	for _, p := range res.Skyline {
		ext[p.ID] = true
	}
	for _, p := range def.Skyline {
		if !ext[p.ID] {
			t.Errorf("%s lost when adding dimensions", p.ID)
		}
	}
}
