// Package vector is what remains of the vector candidate tier, which
// the ranked scan no longer has: the one configuration type the
// benchmark harness still passes to the no-op gdb.Sharded.EnableVector.
// The harness catch-up change of ROADMAP.md item 1 deletes the package.
package vector

// Config is accepted and ignored by gdb.Sharded.EnableVector.
//
// Deprecated: the vector tier is gone.
type Config struct {
	// Cells was the number of partition cells per shard.
	Cells int
}
