// Package pivot is what remains of the metric pivot tier, which the
// ranked scan no longer has: the one configuration type the benchmark
// harness still passes to the no-op gdb.DB.EnablePivots. The
// harness catch-up change of ROADMAP.md item 1 deletes the package.
package pivot

// Config is accepted and ignored by gdb.DB.EnablePivots.
//
// Deprecated: the pivot tier is gone.
type Config struct {
	// Pivots was the number of pivots.
	Pivots int
}
