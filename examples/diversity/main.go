// Diversity: reproduce the paper's Section VI + VII walk-through end to
// end on the reconstructed database — compute GSS(D, q), then refine it to
// the most diverse 2-subset; finally rerun the Table IV/V computation on
// the exact pairwise fixture decoded from the paper.
//
//	go run ./examples/diversity
package main

import (
	"context"
	"fmt"
	"log"

	"skygraph/internal/dataset"
	"skygraph/internal/diversity"
	"skygraph/internal/gdb"
)

func main() {
	db := gdb.New()
	if err := db.InsertAll(dataset.PaperDB()); err != nil {
		log.Fatal(err)
	}

	res, err := db.DiverseSkylineQuery(context.Background(), dataset.PaperQuery(), 2, gdb.QueryOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("GSS(D,q) on the reconstructed database:\n")
	for _, p := range res.Skyline {
		fmt.Printf("  %-3s (%.0f, %.2f, %.2f)\n", p.ID, p.Vec[0], p.Vec[1], p.Vec[2])
	}
	fmt.Printf("most diverse 2-subset of the reconstruction: %v\n\n", res.Selected)

	// Table IV/V on the exact pairwise distances decoded from the paper
	// (the reconstruction matches Tables II/III but not the lost figure's
	// pairwise geometry, so the canonical Section VII numbers come from
	// this fixture).
	m := dataset.PaperPairwise()
	best, all, err := diversity.Exhaustive(m, 2, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Table V on the decoded pairwise fixture:")
	fmt.Printf("%-10s %3s %3s %3s %5s\n", "subset", "r1", "r2", "r3", "val")
	for _, c := range all {
		fmt.Printf("{%s,%s} %4d %3d %3d %5d\n",
			dataset.PaperPairwiseIDs[c.Members[0]], dataset.PaperPairwiseIDs[c.Members[1]],
			c.Ranks[0], c.Ranks[1], c.Ranks[2], c.Val)
	}
	fmt.Printf("winner: {%s, %s} with val=%d (paper: {g1, g4}, val=5)\n",
		dataset.PaperPairwiseIDs[best.Members[0]], dataset.PaperPairwiseIDs[best.Members[1]], best.Val)
}
