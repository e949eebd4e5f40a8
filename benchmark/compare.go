package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// manifest is the part of BENCHMARK.json the comparator needs.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// readRuns loads the untraced records of an -out file, grouped as
// workload → metric → values.
func readRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace {
			continue
		}
		if !rec.Correct {
			return nil, fmt.Errorf("%s:%d: %s run with failed ops cannot be compared", path, line, rec.Workload)
		}
		if runs[rec.Workload] == nil {
			runs[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Metrics {
			runs[rec.Workload][name] = append(runs[rec.Workload][name], m.Value)
		}
	}
	return runs, sc.Err()
}

// quartiles returns the first quartile, median and third quartile by
// the exclusive method (Python's statistics.quantiles(v, n=4)).
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q*float64(len(s)+1) - 1
		i := min(max(int(pos), 0), len(s)-2)
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	return at(0.25), at(0.5), at(0.75)
}

// compareFiles judges every (workload, end-to-end metric) row of B
// against A by BENCHMARK.json's bound and direction:
//
//	worse       B's median is worse than A's by more than the bound
//	unresolved  the run-to-run spread of A or B (interquartile range
//	            over the median) exceeds the bound, so the row cannot
//	            show a change of that size
//	ok          otherwise
//
// It returns the process exit code: 1 if any row is worse.
func compareFiles(pathA, pathB string, w io.Writer) int {
	mf, err := readManifest("BENCHMARK.json")
	if err != nil {
		fatalf("benchmark: %v", err)
	}
	a, err := readRuns(pathA)
	if err != nil {
		fatalf("benchmark: %v", err)
	}
	b, err := readRuns(pathB)
	if err != nil {
		fatalf("benchmark: %v", err)
	}
	code := 0
	fmt.Fprintf(w, "| workload | metric | unit | A median (n) | A spread | B median (n) | B spread | change | bound | verdict |\n")
	fmt.Fprintf(w, "|---|---|---|---|---|---|---|---|---|---|\n")
	for _, wl := range mf.Workloads {
		for _, m := range mf.EndToEnd {
			va, vb := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "| %s | %s | %s | - | - | - | - | - | %.2f | missing |\n", wl.Name, m.Name, m.Unit, m.Bound)
				code = 1
				continue
			}
			a1, am, a3 := quartiles(va)
			b1, bm, b3 := quartiles(vb)
			spreadA, spreadB := ratio(a3-a1, am), ratio(b3-b1, bm)
			change := ratio(bm-am, am) // signed, relative to A
			worsening := change
			if m.Better == "higher" {
				worsening = -change
			}
			verdict := "ok"
			switch {
			case worsening > m.Bound:
				verdict = "worse"
				code = 1
			case m.Name != "setup_s" && max(spreadA, spreadB) > m.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "| %s | %s | %s | %.4g (%d) | %.1f%% | %.4g (%d) | %.1f%% | %+.1f%% | %.0f%% | %s |\n",
				wl.Name, m.Name, m.Unit, am, len(va), 100*spreadA, bm, len(vb), 100*spreadB, 100*change, 100*m.Bound, verdict)
		}
	}
	return code
}
