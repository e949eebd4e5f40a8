package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"skygraph/internal/graph"
	"skygraph/internal/measure"
)

// cmdPair prints all similarity measures between two graphs, each given as
// a one-graph LGF file — a diagnostic for understanding why a graph did or
// did not enter a skyline.
func cmdPair(args []string) error {
	fs := flag.NewFlagSet("pair", flag.ExitOnError)
	aPath := fs.String("a", "", "first graph (LGF, one graph)")
	bPath := fs.String("b", "", "second graph (LGF, one graph)")
	fs.Parse(args)
	if *aPath == "" || *bPath == "" {
		return fmt.Errorf("pair: both -a and -b are required")
	}
	a, err := loadOneGraph(*aPath)
	if err != nil {
		return err
	}
	b, err := loadOneGraph(*bPath)
	if err != nil {
		return err
	}
	s := measure.Compute(a, b, measure.Options{})
	fmt.Printf("%s: |V|=%d |E|=%d\n", a.Name(), a.Order(), a.Size())
	fmt.Printf("%s: |V|=%d |E|=%d\n", b.Name(), b.Order(), b.Size())
	fmt.Printf("GED       %g\n", s.GED)
	fmt.Printf("|mcs|     %d\n", s.MCS)
	for _, m := range measure.Extended() {
		fmt.Printf("%-10s %.4f\n", m.Name(), m.FromStats(&s))
	}
	fmt.Printf("%-10s %.4f\n", "DistNEd", measure.DistNEd.FromStats(&s))
	fmt.Printf("%-10s %.4f  %-10s %.4f\n", "SimMcs", measure.SimMcs(s), "SimGu", measure.SimGu(s))
	return nil
}

// cmdConvert converts graph files between LGF and JSON, inferring the
// direction from the extensions.
func cmdConvert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	in := fs.String("in", "", "input file (.lgf or .json)")
	out := fs.String("out", "", "output file (.lgf or .json)")
	fs.Parse(args)
	if *in == "" || *out == "" {
		return fmt.Errorf("convert: both -in and -out are required")
	}
	var graphs []*graph.Graph
	switch filepath.Ext(*in) {
	case ".lgf":
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		graphs, err = graph.ReadLGF(f)
		f.Close()
		if err != nil {
			return err
		}
	case ".json":
		data, err := os.ReadFile(*in)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &graphs); err != nil {
			return err
		}
	default:
		return fmt.Errorf("convert: unsupported input extension %q", filepath.Ext(*in))
	}
	switch filepath.Ext(*out) {
	case ".lgf":
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		for _, g := range graphs {
			if err := graph.WriteLGF(f, g); err != nil {
				f.Close()
				return err
			}
		}
		if err := f.Close(); err != nil {
			return err
		}
	case ".json":
		data, err := json.MarshalIndent(graphs, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			return err
		}
	default:
		return fmt.Errorf("convert: unsupported output extension %q", filepath.Ext(*out))
	}
	fmt.Printf("converted %d graph(s): %s -> %s\n", len(graphs), *in, *out)
	return nil
}

func loadOneGraph(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	gs, err := graph.ReadLGF(f)
	if err != nil {
		return nil, err
	}
	if len(gs) != 1 {
		return nil, fmt.Errorf("%s: want exactly one graph, found %d", path, len(gs))
	}
	return gs[0], nil
}
