package gdb_test

import (
	"context"
	"fmt"

	"skygraph/internal/dataset"
	"skygraph/internal/gdb"
	"skygraph/internal/graph"
	"skygraph/internal/measure"
)

// ExampleNew demonstrates building graphs programmatically and querying
// with a custom two-measure basis.
func ExampleNew() {
	tri := graph.Complete(3, "A", "x")
	tri.SetName("triangle")
	p4 := graph.Path(4, "A", "x")
	p4.SetName("path4")

	db := gdb.New()
	if err := db.InsertAll([]*graph.Graph{tri, p4}); err != nil {
		panic(err)
	}
	basis := []measure.Measure{measure.DistEd, measure.DistGu}
	res, err := db.SkylineQuery(context.Background(), graph.Path(3, "A", "x"), gdb.QueryOptions{Basis: basis})
	if err != nil {
		panic(err)
	}
	fmt.Println(len(res.Skyline[0].Vec), "dimensions")
	// Output:
	// 2 dimensions
}

// ExampleDB_SkylineQuery reproduces the paper's Section VI query:
// the similarity skyline of the seven-graph database against q.
func ExampleDB_SkylineQuery() {
	db := gdb.New()
	if err := db.InsertAll(dataset.PaperDB()); err != nil {
		panic(err)
	}
	res, err := db.SkylineQuery(context.Background(), dataset.PaperQuery(), gdb.QueryOptions{})
	if err != nil {
		panic(err)
	}
	for _, p := range res.Skyline {
		fmt.Printf("%s (%.0f, %.2f, %.2f)\n", p.ID, p.Vec[0], p.Vec[1], p.Vec[2])
	}
	// Output:
	// g1 (4, 0.33, 0.50)
	// g4 (2, 0.50, 0.67)
	// g5 (3, 0.38, 0.44)
	// g7 (4, 0.40, 0.40)
}

// ExampleSkylineResult_DominatedBy shows how to ask why a graph was
// excluded from the skyline.
func ExampleSkylineResult_DominatedBy() {
	db := gdb.New()
	if err := db.InsertAll(dataset.PaperDB()); err != nil {
		panic(err)
	}
	res, err := db.SkylineQuery(context.Background(), dataset.PaperQuery(), gdb.QueryOptions{})
	if err != nil {
		panic(err)
	}
	dom, ok := res.DominatedBy("g3")
	fmt.Println(ok, dom)
	// Output:
	// true g5
}

// ExampleDB_TopKQuery shows the single-measure baseline the
// skyline generalizes: the nearest graph by edit distance alone.
func ExampleDB_TopKQuery() {
	db := gdb.New()
	if err := db.InsertAll(dataset.PaperDB()); err != nil {
		panic(err)
	}
	res, err := db.TopKQuery(context.Background(), dataset.PaperQuery(), measure.DistEd, 1, gdb.QueryOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Items[0].ID, res.Items[0].Score)
	// Output:
	// g4 2
}
