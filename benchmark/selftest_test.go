package main

import (
	"regexp"
	"testing"
	"time"
)

// TestHarnessMatchesManifest runs every workload at 1/20 scale, traced
// and untraced, and holds the harness to BENCHMARK.json: same workload
// names, every end-to-end and per-layer metric emitted under its
// declared name and unit, and no failed op — so an internal rename that
// would break the benchmark fails here, before a change is measured.
func TestHarnessMatchesManifest(t *testing.T) {
	mf, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv("TMPDIR", t.TempDir())
	probeBudget = 2 * time.Millisecond
	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

	if len(mf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(mf.Workloads), len(specs))
	}
	for i, wl := range mf.Workloads {
		s := specs[i]
		if wl.Name != s.name {
			t.Fatalf("workload %d: BENCHMARK.json says %q, the harness %q", i, wl.Name, s.name)
		}
		for _, trace := range []bool{false, true} {
			rec, err := runWorkload(s, options{seed: 7, seconds: 5, maxOps: 24, trace: trace, scale: 0.05, outDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s (trace=%t): %v", s.name, trace, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("%s (trace=%t): attempted %d, failed %d: %v", s.name, trace, rec.Attempted, rec.Failed, rec.Info["failures"])
			}
			want := map[string]string{}
			if trace {
				for _, m := range mf.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range mf.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			for name, unit := range want {
				got, ok := rec.Metrics[name]
				switch {
				case !nameOK.MatchString(name):
					t.Errorf("metric name %q is outside the allowed alphabet", name)
				case !ok:
					t.Errorf("%s (trace=%t): metric %s is in BENCHMARK.json but was not emitted", s.name, trace, name)
				case got.Unit != unit:
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", s.name, name, got.Unit, unit)
				}
			}
			for name, m := range rec.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s (trace=%t): metric %s is emitted but not in BENCHMARK.json", s.name, trace, name)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %g, must never be 0", s.name, name, m.Value)
				}
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 37, 7, 11, 16, 22, 29})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Fatalf("quartiles = %g %g %g, want 3.5 13.5 31", q1, q2, q3)
	}
}
