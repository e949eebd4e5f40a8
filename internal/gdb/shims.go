package gdb

import (
	"skygraph/internal/pivot"
	"skygraph/internal/vector"
)

// Everything in this file is a no-op kept only so the benchmark harness
// (benchmark/sut.go), which still calls it, keeps compiling. The harness
// catch-up change of ROADMAP.md item 1 removes those calls and these
// shims, together with the pivot.Config and vector.Config they take and
// DurableOptions.Shards. Nothing else may call them.
//
// Sharded and NewSharded are what is left of the partitioned store: one
// store costs nothing the grid can measure, and the partition bought
// nothing once every query became one scan over all of it. Four of the
// methods are what is left of the metric pivot tier and the vector
// candidate tier, which the ranked scan no longer has: the branch bound
// (tier 1) proves out what they pruned, for less than they cost.
// EnableScoreMemo is what is left of the cross-query score memo, whose
// hit ratio was too small for any workload to show what it saved.

// Sharded is the database's name from when it was partitioned.
//
// Deprecated: use DB; the harness catch-up change (ROADMAP.md item 1)
// removes this alias and its last user.
type Sharded = DB

// NewSharded returns an empty database; the count is ignored.
//
// Deprecated: use New; the harness catch-up change (ROADMAP.md item 1)
// removes this shim and its last caller.
func NewSharded(int) *DB { return New() }

// EnablePivots does nothing.
//
// Deprecated: the pivot tier is gone; the harness catch-up change
// (ROADMAP.md item 1) removes this shim and its last caller.
func (db *DB) EnablePivots(pivot.Config) {}

// EnableVector does nothing.
//
// Deprecated: the vector tier is gone; the harness catch-up change
// (ROADMAP.md item 1) removes this shim and its last caller.
func (db *DB) EnableVector(vector.Config) {}

// WaitPivots returns at once: there is no background pivot work.
//
// Deprecated: the pivot tier is gone; the harness catch-up change
// (ROADMAP.md item 1) removes this shim and its last caller.
func (db *DB) WaitPivots() {}

// EnableScoreMemo does nothing.
//
// Deprecated: the cross-query score memo is gone; the harness catch-up
// change (ROADMAP.md item 1) removes this shim and its last caller.
func (db *DB) EnableScoreMemo(int) {}

// WaitVector returns at once: there is no background vector work.
//
// Deprecated: the vector tier is gone; the harness catch-up change
// (ROADMAP.md item 1) removes this shim and its last caller.
func (db *DB) WaitVector() {}
