package gdb

import (
	"skygraph/internal/pivot"
	"skygraph/internal/vector"
)

// The four methods below are what is left of the metric pivot tier and
// the vector candidate tier, which the ranked scan no longer has: the
// branch bound (tier 1) proves out what they pruned, for less than they
// cost. They are no-ops kept only so the benchmark harness
// (benchmark/sut.go), which still calls them, keeps compiling. The
// harness catch-up change of ROADMAP.md item 1 removes both those calls
// and these shims, together with the pivot.Config and vector.Config
// they take. Nothing else may call them.

// EnablePivots does nothing.
//
// Deprecated: the pivot tier is gone; the harness catch-up change
// (ROADMAP.md item 1) removes this shim and its last caller.
func (sh *Sharded) EnablePivots(pivot.Config) {}

// EnableVector does nothing.
//
// Deprecated: the vector tier is gone; the harness catch-up change
// (ROADMAP.md item 1) removes this shim and its last caller.
func (sh *Sharded) EnableVector(vector.Config) {}

// WaitPivots returns at once: there is no background pivot work.
//
// Deprecated: the pivot tier is gone; the harness catch-up change
// (ROADMAP.md item 1) removes this shim and its last caller.
func (sh *Sharded) WaitPivots() {}

// WaitVector returns at once: there is no background vector work.
//
// Deprecated: the vector tier is gone; the harness catch-up change
// (ROADMAP.md item 1) removes this shim and its last caller.
func (sh *Sharded) WaitVector() {}
