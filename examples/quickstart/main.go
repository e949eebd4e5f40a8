// Quickstart: build a tiny graph database, run a similarity skyline query,
// and see why a vector of similarity measures beats a single one — the
// graph closest by edit distance is not the one sharing the most structure,
// and the skyline keeps both.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"skygraph/internal/gdb"
	"skygraph/internal/graph"
)

func main() {
	// The query: a path of four "A" vertices joined by "x" edges.
	q := graph.Path(4, "A", "x")
	q.SetName("query")

	// relabeled: the query with its second vertex relabeled to "B".
	// One edit away (best DistEd) but the relabel breaks two of the three
	// edges of the common subgraph, so it shares little structure.
	relabeled := graph.Path(4, "A", "x")
	relabeled.RelabelVertex(1, "B")
	relabeled.SetName("relabeled")

	// extended: the query with one extra pendant vertex. Two edits away,
	// but the whole query survives inside it (large common subgraph).
	extended := graph.Path(5, "A", "x")
	extended.SetName("extended")

	// recolored: the query with every edge relabeled to "y". Three edits
	// and no common labeled edge at all.
	recolored := graph.Path(4, "A", "y")
	recolored.SetName("recolored")

	db := gdb.New()
	if err := db.InsertAll([]*graph.Graph{relabeled, extended, recolored}); err != nil {
		log.Fatal(err)
	}

	res, err := db.SkylineQuery(context.Background(), q, gdb.QueryOptions{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("query: %s\n\n", q)
	fmt.Printf("compound similarity vectors (DistEd, DistMcs, DistGu) — smaller is better:\n")
	for _, p := range res.All {
		fmt.Printf("  %-10s (%.0f, %.2f, %.2f)\n", p.ID, p.Vec[0], p.Vec[1], p.Vec[2])
	}

	fmt.Printf("\nsimilarity skyline (Pareto-optimal answers):\n")
	for _, p := range res.Skyline {
		fmt.Printf("  %s\n", p.ID)
	}
	for _, p := range res.All {
		if dom, ok := res.DominatedBy(p.ID); ok {
			fmt.Printf("  (%s is dominated by %s)\n", p.ID, dom)
		}
	}
	fmt.Println("\n'relabeled' wins on edit distance, 'extended' on shared structure;")
	fmt.Println("no single measure would have returned both.")
}
