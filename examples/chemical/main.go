// Chemical: a molecule-like similarity search workload — the use case the
// paper's introduction motivates (chemical compound databases). A synthetic
// database of atom/bond labeled graphs is queried with a noisy variant of
// one of its members; the skyline surfaces every Pareto-optimal match and
// the top-k baseline shows what a single measure would miss.
//
//	go run ./examples/chemical
package main

import (
	"context"
	"fmt"
	"log"

	"skygraph/internal/dataset"
	"skygraph/internal/gdb"
	"skygraph/internal/measure"
)

func main() {
	const n = 30
	graphs := dataset.MoleculeDB(n, 8, 12, 2026)
	// The query is graph #0 with three random edit operations applied —
	// a controlled-noise query, so m000 should score very well.
	q := dataset.NoisyQueries(graphs[:1], 1, 3, 7)[0]

	db := gdb.New()
	if err := db.InsertAll(graphs); err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	res, err := db.SkylineQuery(ctx, q, gdb.QueryOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("database: %d molecules (8-12 atoms)\n", n)
	fmt.Printf("query:    %s = %s with 3 random edits\n\n", q.Name(), graphs[0].Name())
	fmt.Printf("similarity skyline (%d members):\n", len(res.Skyline))
	fmt.Printf("%-8s %8s %8s %8s\n", "graph", "DistEd", "DistMcs", "DistGu")
	for _, p := range res.Skyline {
		fmt.Printf("%-8s %8.2f %8.2f %8.2f\n", p.ID, p.Vec[0], p.Vec[1], p.Vec[2])
	}

	for _, mm := range []measure.Measure{measure.DistEd, measure.DistGu} {
		top, err := db.TopKQuery(ctx, q, mm, 3, gdb.QueryOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\ntop-3 by %s alone:\n", mm.Name())
		for i, it := range top.Items {
			fmt.Printf("%2d. %-8s %.3f\n", i+1, it.ID, it.Score)
		}
	}
	fmt.Println("\n(different single measures already disagree on the ranking —")
	fmt.Println(" the skyline keeps every graph that is best under some trade-off)")
}
