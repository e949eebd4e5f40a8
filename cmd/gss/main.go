// Command gss is the skygraph command-line tool: generate synthetic graph
// databases, inspect them, and run similarity skyline / diversity / top-k
// queries against a query graph.
//
// Usage:
//
//	gss gen -out db.lgf -n 50 -min 8 -max 12 -seed 1     # synthetic DB
//	gss paper -out paper.lgf                             # the paper's D and q
//	gss info -db db.lgf                                  # database stats
//	gss skyline -db db.lgf -query q.lgf                  # GSS(D, q)
//	gss diverse -db db.lgf -query q.lgf -k 2             # Section VII
//	gss topk -db db.lgf -query q.lgf -measure DistEd -k 3
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"skygraph/internal/dataset"
	"skygraph/internal/gdb"
	"skygraph/internal/graph"
	"skygraph/internal/measure"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "paper":
		err = cmdPaper(os.Args[2:])
	case "info":
		err = cmdInfo(os.Args[2:])
	case "skyline":
		err = cmdSkyline(os.Args[2:])
	case "diverse":
		err = cmdDiverse(os.Args[2:])
	case "topk":
		err = cmdTopK(os.Args[2:])
	case "pair":
		err = cmdPair(os.Args[2:])
	case "convert":
		err = cmdConvert(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "gss: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "gss: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: gss <subcommand> [flags]

subcommands:
  gen      generate a synthetic molecule-like database (LGF)
  paper    write the paper's Section VI database and query
  info     print database statistics
  skyline  run a graph similarity skyline query
  diverse  run a diversity-refined skyline query
  topk     run the single-measure top-k baseline
  pair     print every measure between two graphs
  convert  convert graph files between LGF and JSON

run 'gss <subcommand> -h' for flags.`)
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	out := fs.String("out", "db.lgf", "output LGF file")
	n := fs.Int("n", 50, "number of graphs")
	minV := fs.Int("min", 8, "minimum vertices per graph")
	maxV := fs.Int("max", 12, "maximum vertices per graph")
	seed := fs.Int64("seed", 1, "generator seed")
	fs.Parse(args)
	db := gdb.New()
	if err := db.InsertAll(dataset.MoleculeDB(*n, *minV, *maxV, *seed)); err != nil {
		return err
	}
	if err := db.Save(*out); err != nil {
		return err
	}
	fmt.Printf("wrote %d graphs to %s\n", db.Len(), *out)
	return nil
}

func cmdPaper(args []string) error {
	fs := flag.NewFlagSet("paper", flag.ExitOnError)
	out := fs.String("out", "paper.lgf", "output LGF file for the database")
	qout := fs.String("query", "paper_query.lgf", "output LGF file for the query")
	fs.Parse(args)
	db := gdb.New()
	if err := db.InsertAll(dataset.PaperDB()); err != nil {
		return err
	}
	if err := db.Save(*out); err != nil {
		return err
	}
	qf, err := os.Create(*qout)
	if err != nil {
		return err
	}
	if err := graph.WriteLGF(qf, dataset.PaperQuery()); err != nil {
		qf.Close()
		return err
	}
	if err := qf.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s (7 graphs) and %s (query q)\n", *out, *qout)
	return nil
}

func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	dbPath := fs.String("db", "db.lgf", "database LGF file")
	fs.Parse(args)
	db, err := gdb.Load(*dbPath)
	if err != nil {
		return err
	}
	s := db.Stats()
	fmt.Printf("graphs:        %d\n", s.Graphs)
	fmt.Printf("vertices:      %d\n", s.Vertices)
	fmt.Printf("edges:         %d\n", s.Edges)
	fmt.Printf("vertex labels: %d\n", s.VertexLabels)
	fmt.Printf("edge labels:   %d\n", s.EdgeLabels)
	fmt.Printf("size range:    [%d, %d] edges\n", s.MinSize, s.MaxSize)
	return nil
}

func loadDBAndQuery(dbPath, queryPath string) (*gdb.DB, *graph.Graph, error) {
	db, err := gdb.Load(dbPath)
	if err != nil {
		return nil, nil, err
	}
	qf, err := os.Open(queryPath)
	if err != nil {
		return nil, nil, err
	}
	defer qf.Close()
	qs, err := graph.ReadLGF(qf)
	if err != nil {
		return nil, nil, err
	}
	if len(qs) != 1 {
		return nil, nil, fmt.Errorf("query file must hold exactly one graph, found %d", len(qs))
	}
	return db, qs[0], nil
}

func cmdSkyline(args []string) error {
	fs := flag.NewFlagSet("skyline", flag.ExitOnError)
	dbPath := fs.String("db", "db.lgf", "database LGF file")
	queryPath := fs.String("query", "q.lgf", "query LGF file (one graph)")
	all := fs.Bool("all", false, "also print dominated graphs")
	fs.Parse(args)
	db, q, err := loadDBAndQuery(*dbPath, *queryPath)
	if err != nil {
		return err
	}
	res, err := db.SkylineQuery(context.Background(), q, gdb.QueryOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("skyline (%d of %d graphs):\n", len(res.Skyline), res.Stats.Evaluated)
	fmt.Printf("%-12s %10s %10s %10s\n", "graph", "DistEd", "DistMcs", "DistGu")
	for _, p := range res.Skyline {
		fmt.Printf("%-12s %10.2f %10.2f %10.2f\n", p.ID, p.Vec[0], p.Vec[1], p.Vec[2])
	}
	if *all {
		fmt.Println("dominated:")
		for _, p := range res.All {
			if dom, ok := res.DominatedBy(p.ID); ok {
				fmt.Printf("%-12s %10.2f %10.2f %10.2f  (dominated by %s)\n",
					p.ID, p.Vec[0], p.Vec[1], p.Vec[2], dom)
			}
		}
	}
	return nil
}

func cmdDiverse(args []string) error {
	fs := flag.NewFlagSet("diverse", flag.ExitOnError)
	dbPath := fs.String("db", "db.lgf", "database LGF file")
	queryPath := fs.String("query", "q.lgf", "query LGF file (one graph)")
	k := fs.Int("k", 2, "result size")
	fs.Parse(args)
	db, q, err := loadDBAndQuery(*dbPath, *queryPath)
	if err != nil {
		return err
	}
	res, err := db.DiverseSkylineQuery(context.Background(), q, *k, gdb.QueryOptions{})
	if err != nil {
		return err
	}
	mode := "exhaustive"
	if !res.Exhaustive {
		mode = "greedy"
	}
	fmt.Printf("skyline size %d; diverse %d-subset (%s): %v\n", len(res.Skyline), *k, mode, res.Selected)
	return nil
}

func cmdTopK(args []string) error {
	fs := flag.NewFlagSet("topk", flag.ExitOnError)
	dbPath := fs.String("db", "db.lgf", "database LGF file")
	queryPath := fs.String("query", "q.lgf", "query LGF file (one graph)")
	k := fs.Int("k", 3, "result size")
	name := fs.String("measure", "DistEd", "measure: DistEd|DistNEd|DistMcs|DistGu")
	fs.Parse(args)
	m, err := measure.ByName(*name)
	if err != nil {
		return err
	}
	db, q, err := loadDBAndQuery(*dbPath, *queryPath)
	if err != nil {
		return err
	}
	res, err := db.TopKQuery(context.Background(), q, m, *k, gdb.QueryOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("top-%d by %s:\n", *k, m.Name())
	for i, it := range res.Items {
		fmt.Printf("%2d. %-12s %.3f\n", i+1, it.ID, it.Score)
	}
	return nil
}
