// Package vector implements the candidate-generation tier below the
// bound cascade: fixed-length per-graph embeddings (a feature-hashed
// Weisfeiler–Leman color histogram concatenated with pivot-distance
// midpoints) organized in an IVF-style coarse partition — deterministic
// farthest-first centroids over the embedding space with one inverted
// list per cell.
//
// The tier never answers anything by itself. It orders the cells by
// proximity to the query embedding so the ranked scan's monotone
// threshold tightens early, and it summarizes each cell (vertex/edge
// count ranges, per-pivot distance ranges) so the query layer can
// derive an ADMISSIBLE per-cell floor on any measure: every stored
// member of the cell is provably at least that far from the query, so
// once the live threshold drops below a cell's floor the whole cell —
// and every farther cell — is skipped without touching a single
// signature. Answers stay byte-identical to a full scan because
// exclusion always carries that proof; when the proof is unavailable
// (membership changed mid-query, pivot epochs diverged) the caller
// falls back to the plain pass.
//
// Like internal/pivot, the structure is epoch-guarded and rebuilds when
// the collection doubles past the last build. Rebuilds run off the
// mutation path: Add snapshots the membership and queues the centroid
// selection for a background worker, assigns the new member to its
// nearest existing cell so it serves immediately, and the previous
// epoch's partition keeps answering until the worker swaps the new one
// in. Queries never see a half-built partition — staleness is detected
// by the generation tag and answered by the plain-scan fallback, never
// by a wrong answer.
package vector

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"skygraph/internal/graph"
	"skygraph/internal/measure"
	"skygraph/internal/pivot"
)

// Defaults for Config zero values.
const (
	DefaultDims    = 32
	DefaultCells   = 16
	DefaultWLIters = 2
)

// Config tunes an Index.
type Config struct {
	// Dims is the feature-hashed WL histogram width (0 = DefaultDims).
	Dims int
	// Cells is the number of IVF cells (0 = DefaultCells). The index
	// stays dormant — Snapshot returns nil — until the collection
	// reaches Cells members.
	Cells int
	// WLIters caps the WL refinement rounds feeding the embedding
	// (0 = DefaultWLIters; refinement to stability would make embedding
	// cost grow with graph diameter for no retrieval benefit).
	WLIters int
}

func (c Config) withDefaults() Config {
	if c.Dims <= 0 {
		c.Dims = DefaultDims
	}
	if c.Cells <= 0 {
		c.Cells = DefaultCells
	}
	if c.WLIters <= 0 {
		c.WLIters = DefaultWLIters
	}
	return c
}

// member is one indexed graph: its signature (cell summaries) and the
// WL part of its embedding, both computed once at Add time.
type member struct {
	sig *measure.Signature
	wl  []float64
}

// Cell is one inverted list plus the optimistic summaries the query
// layer derives floors from. Every numeric range covers EVERY member of
// the cell, so a bound built from the favorable end of each range is a
// lower bound on any member's distance to the query.
type Cell struct {
	// Members are indices into the collection's insertion order (the
	// same order a database snapshot at the partition's generation
	// holds its graphs in).
	Members []int
	// OrderMin..SizeMax bracket the members' vertex and edge counts.
	OrderMin, OrderMax int
	SizeMin, SizeMax   int
	// PivLo[j], PivHi[j] bracket the members' certified distance
	// intervals to pivot j (selection order of the pivot epoch below).
	// Valid only when PivAll is true: every member had a published
	// column when the summaries were built.
	PivLo, PivHi []float64
	PivAll       bool
}

// Partition is the immutable query-facing snapshot of the index: the
// coarse centroids, the inverted lists with their summaries, and the
// tags that gate its use (collection generation, pivot epoch).
type Partition struct {
	// Gen is the database generation after the last membership change
	// folded in. A query may consume the partition only when its own
	// snapshot carries the same generation — otherwise the inverted
	// lists describe a different collection.
	Gen uint64
	// Epoch counts centroid rebuilds.
	Epoch uint64
	// PivotEpoch is the pivot-index selection epoch the cell summaries
	// (and embedding midpoints) were read at; 0 with no pivot index.
	// Per-pivot floors require the query's pivot bounds to carry the
	// same epoch.
	PivotEpoch uint64
	// WLDims is the width of the WL block; centroid vectors are
	// WLDims + (pivot count at build) long.
	WLDims    int
	Centroids [][]float64
	Cells     []Cell
	// N is the total member count (sum of the inverted list lengths).
	N int
}

// QueryVec assembles a query embedding in this partition's layout: the
// WL histogram followed by the pivot-distance midpoints. mids may be
// nil (no pivot bounds, or a different epoch) — the pivot block is then
// zero, which only loosens the proximity ordering, never correctness.
func (p *Partition) QueryVec(wl, mids []float64) []float64 {
	dims := p.WLDims
	if len(p.Centroids) > 0 {
		dims = len(p.Centroids[0])
	}
	out := make([]float64, dims)
	copy(out, wl)
	for i := 0; i < len(mids) && p.WLDims+i < dims; i++ {
		out[p.WLDims+i] = mids[i]
	}
	return out
}

// CentroidDist returns the L2 distance from qvec to cell i's centroid.
func (p *Partition) CentroidDist(qvec []float64, i int) float64 {
	return l2(qvec, p.Centroids[i])
}

func l2(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	s := 0.0
	for i := 0; i < n; i++ {
		d := a[i] - b[i]
		s += d * d
	}
	for i := n; i < len(a); i++ {
		s += a[i] * a[i]
	}
	for i := n; i < len(b); i++ {
		s += b[i] * b[i]
	}
	return math.Sqrt(s)
}

// Index maintains the embeddings and the partition for one collection.
// All methods are safe for concurrent use; mutations are expected to
// arrive synchronously from the owning database's write path (the
// generation tags rely on it).
type Index struct {
	cfg Config

	mu   sync.Mutex
	pidx *pivot.Index // optional; nil = WL-only embeddings

	order   []string
	members map[string]*member
	assign  map[string]int // name -> cell of the current epoch

	// Build state: centroids in the embedding layout of the build
	// (WL block + one coordinate per pivot in pnames order).
	centroids  [][]float64
	pnames     []string
	pivEpoch   uint64
	epoch      uint64
	selectedAt int // member count at the last rebuild

	gen uint64 // database generation after the last mutation

	// Background rebuild state: queued membership snapshots, whether the
	// worker goroutine is running, and the drain signal WaitRebuild
	// blocks on.
	jobs    []rebuildJob
	working bool
	drained *sync.Cond

	snap      *Partition
	snapDirty bool
	// snapPivEpoch/snapPivCols fingerprint the pivot columns the cached
	// snapshot summarized; background column publishes change it.
	snapPivEpoch uint64
	snapPivCols  int

	rebuilds     atomic.Int64
	rebuildNanos atomic.Int64
}

// New returns an empty index. pidx may be nil (embeddings are then the
// WL block alone) and may also be attached later via AttachPivots.
func New(cfg Config, pidx *pivot.Index) *Index {
	ix := &Index{
		cfg:     cfg.withDefaults(),
		pidx:    pidx,
		members: make(map[string]*member),
		assign:  make(map[string]int),
	}
	ix.drained = sync.NewCond(&ix.mu)
	return ix
}

// Config returns the resolved configuration.
func (ix *Index) Config() Config { return ix.cfg }

// AttachPivots wires a pivot index in after construction (EnablePivots
// called after EnableVector). The next rebuild picks its midpoints up;
// summaries refresh on the next snapshot.
func (ix *Index) AttachPivots(p *pivot.Index) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.pidx = p
	ix.snapDirty = true
}

// Add registers a stored graph under the database generation its
// insertion produced. The WL block of its embedding is computed here,
// once — like the signature itself. Crossing the doubling threshold
// queues a background centroid rebuild; either way the member is
// assigned to its nearest EXISTING cell so it serves immediately — the
// old partition keeps answering until the rebuild swaps in.
func (ix *Index) Add(name string, g *graph.Graph, sig *measure.Signature, gen uint64) {
	wl := graph.WLHistogram(g, ix.cfg.WLIters, ix.cfg.Dims)
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.gen = gen
	if _, dup := ix.members[name]; dup {
		return
	}
	ix.members[name] = &member{sig: sig, wl: wl}
	ix.order = append(ix.order, name)
	ix.snapDirty = true
	n := len(ix.order)
	if (ix.selectedAt == 0 && n >= ix.cfg.Cells) || (ix.selectedAt > 0 && n >= 2*ix.selectedAt) {
		ix.scheduleRebuildLocked()
	}
	if ix.centroids != nil {
		ix.assign[name] = ix.assignLocked(name)
	}
}

// rebuildJob captures the membership a centroid rebuild was triggered
// over. Member records are immutable after Add, so the worker can embed
// them without the lock; snapshotting at trigger time makes the
// selection input — and therefore the chosen centroids — independent of
// how long the job waited in the queue.
type rebuildJob struct {
	names []string
	mems  []*member
}

// scheduleRebuildLocked snapshots the current membership and queues a
// centroid re-selection. selectedAt advances at TRIGGER time, not at
// completion: the doubling test compares against the size the queued
// build will cover, so a sustained insert burst queues one build per
// doubling — O(log growth) builds total — not one per insert.
func (ix *Index) scheduleRebuildLocked() {
	job := rebuildJob{
		names: append([]string(nil), ix.order...),
		mems:  make([]*member, len(ix.order)),
	}
	for i, name := range job.names {
		job.mems[i] = ix.members[name]
	}
	ix.selectedAt = len(ix.order)
	ix.jobs = append(ix.jobs, job)
	if !ix.working {
		ix.working = true
		go ix.rebuildWorker()
	}
}

// rebuildWorker drains the rebuild queue serially. Selection runs
// outside the lock — Add, Remove, Snapshot and queries keep using the
// previous epoch's partition meanwhile — and the swap is one short
// critical section: bump the epoch, install the centroids, reassign the
// CURRENT membership (members deleted while selecting drop out, members
// added while selecting get their final cells).
func (ix *Index) rebuildWorker() {
	ix.mu.Lock()
	for len(ix.jobs) > 0 {
		job := ix.jobs[0]
		ix.jobs = ix.jobs[1:]
		pidx := ix.pidx
		ix.mu.Unlock()

		start := time.Now()
		centroids, pnames, pivEpoch := selectCentroids(job, ix.cfg, pidx)

		ix.mu.Lock()
		ix.epoch++
		ix.centroids = centroids
		ix.pnames, ix.pivEpoch = pnames, pivEpoch
		ix.assign = make(map[string]int, len(ix.order))
		for _, name := range ix.order {
			ix.assign[name] = ix.assignLocked(name)
		}
		ix.snapDirty = true
		ix.rebuilds.Add(1)
		ix.rebuildNanos.Add(int64(time.Since(start)))
	}
	ix.working = false
	ix.drained.Broadcast()
	ix.mu.Unlock()
}

// WaitRebuild blocks until every queued centroid rebuild has completed
// and swapped in. Tests, benchmarks and metrics probes use it to
// observe the post-rebuild state; serving paths never need it — a query
// that races a rebuild just keeps using the previous partition.
func (ix *Index) WaitRebuild() {
	ix.mu.Lock()
	for ix.working {
		ix.drained.Wait()
	}
	ix.mu.Unlock()
}

// Remove forgets a graph under the generation its deletion produced.
// Centroids are value copies, so no rebuild is needed — the member just
// leaves its inverted list (summaries get conservatively loose until
// the next rebuild, which is always sound).
func (ix *Index) Remove(name string, gen uint64) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.gen = gen
	if _, ok := ix.members[name]; !ok {
		return
	}
	delete(ix.members, name)
	delete(ix.assign, name)
	for i, n := range ix.order {
		if n == name {
			ix.order = append(ix.order[:i], ix.order[i+1:]...)
			break
		}
	}
	ix.snapDirty = true
}

// embedLocked assembles a member's full embedding in the current build
// layout: the stored WL block plus the pivot-distance midpoints from
// cols (zeros for members whose column is missing or from another
// epoch).
func (ix *Index) embedLocked(m *member, cols map[string][]pivot.Entry, name string) []float64 {
	out := make([]float64, ix.cfg.Dims+len(ix.pnames))
	copy(out, m.wl)
	if cols != nil {
		if col, ok := cols[name]; ok && len(col) == len(ix.pnames) {
			for j, e := range col {
				out[ix.cfg.Dims+j] = (e.Lo + e.Hi) / 2
			}
		}
	}
	return out
}

// pivotColsLocked reads the pivot columns consistent with the CURRENT
// build layout, or nil when no pivot index is attached. Columns from an
// epoch other than the build's are rejected wholesale — midpoints from
// different pivot sets must never mix in one embedding space.
func (ix *Index) pivotColsLocked() map[string][]pivot.Entry {
	if ix.pidx == nil {
		return nil
	}
	epoch, _, cols := ix.pidx.ColumnsSnapshot()
	if epoch != ix.pivEpoch {
		return nil
	}
	return cols
}

// assignLocked returns the nearest cell for a member (ties to the
// lowest cell index).
func (ix *Index) assignLocked(name string) int {
	emb := ix.embedLocked(ix.members[name], ix.pivotColsLocked(), name)
	best, bestD := 0, math.Inf(1)
	for c, cent := range ix.centroids {
		if d := l2(emb, cent); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// selectCentroids re-selects the coarse centroids with a deterministic
// farthest-first sweep over the job's membership snapshot (seeded by
// the oldest member, ties by insertion order — mirroring the pivot
// index's pivot selection). Lock-free: member records are immutable and
// the pivot column snapshot is itself epoch-tagged. The returned layout
// is the WL block plus one coordinate per pivot of the read epoch.
func selectCentroids(job rebuildJob, cfg Config, pidx *pivot.Index) (centroids [][]float64, pnames []string, pivEpoch uint64) {
	if len(job.names) == 0 {
		return nil, nil, 0
	}
	var cols map[string][]pivot.Entry
	if pidx != nil {
		pivEpoch, pnames, cols = pidx.ColumnsSnapshot()
	}
	embs := make([][]float64, len(job.names))
	for i := range job.names {
		emb := make([]float64, cfg.Dims+len(pnames))
		copy(emb, job.mems[i].wl)
		if col, ok := cols[job.names[i]]; ok && len(col) == len(pnames) {
			for j, e := range col {
				emb[cfg.Dims+j] = (e.Lo + e.Hi) / 2
			}
		}
		embs[i] = emb
	}
	k := cfg.Cells
	if k > len(job.names) {
		k = len(job.names)
	}
	minDist := make([]float64, len(job.names))
	for i := range minDist {
		minDist[i] = math.Inf(1)
	}
	chosen := make([]bool, len(job.names))
	pick := 0
	for len(centroids) < k {
		chosen[pick] = true
		centroids = append(centroids, append([]float64(nil), embs[pick]...))
		best, bestAt := -1.0, -1
		for i := range job.names {
			if chosen[i] {
				continue
			}
			if d := l2(embs[i], embs[pick]); d < minDist[i] {
				minDist[i] = d
			}
			if minDist[i] > best {
				best, bestAt = minDist[i], i
			}
		}
		if bestAt < 0 {
			break
		}
		pick = bestAt
	}
	return centroids, pnames, pivEpoch
}

// Snapshot returns the immutable query-facing partition, rebuilding it
// lazily when membership changed or new pivot columns landed. Nil until
// the collection has reached Config.Cells members (the tier is then
// simply off — not an error, not a fallback).
func (ix *Index) Snapshot() *Partition {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.centroids == nil {
		return nil
	}
	var (
		pe   uint64
		pn   []string
		cols map[string][]pivot.Entry
	)
	if ix.pidx != nil {
		pe, pn, cols = ix.pidx.ColumnsSnapshot()
	}
	if ix.snap != nil && !ix.snapDirty && ix.snapPivEpoch == pe && ix.snapPivCols == len(cols) {
		return ix.snap
	}
	p := &Partition{
		Gen:        ix.gen,
		Epoch:      ix.epoch,
		PivotEpoch: pe,
		WLDims:     ix.cfg.Dims,
		Centroids:  ix.centroids,
		Cells:      make([]Cell, len(ix.centroids)),
		N:          len(ix.order),
	}
	np := 0
	if len(cols) > 0 {
		np = len(pn)
	}
	for c := range p.Cells {
		cell := &p.Cells[c]
		cell.PivAll = np > 0
		if np > 0 {
			cell.PivLo = make([]float64, np)
			cell.PivHi = make([]float64, np)
			for j := 0; j < np; j++ {
				cell.PivLo[j] = math.Inf(1)
				cell.PivHi[j] = math.Inf(-1)
			}
		}
	}
	for i, name := range ix.order {
		c, ok := ix.assign[name]
		if !ok || c >= len(p.Cells) {
			c = 0 // unassigned members (pre-first-build adds) pool in cell 0
		}
		cell := &p.Cells[c]
		sig := ix.members[name].sig
		if len(cell.Members) == 0 {
			cell.OrderMin, cell.OrderMax = sig.Order, sig.Order
			cell.SizeMin, cell.SizeMax = sig.Size, sig.Size
		} else {
			if sig.Order < cell.OrderMin {
				cell.OrderMin = sig.Order
			}
			if sig.Order > cell.OrderMax {
				cell.OrderMax = sig.Order
			}
			if sig.Size < cell.SizeMin {
				cell.SizeMin = sig.Size
			}
			if sig.Size > cell.SizeMax {
				cell.SizeMax = sig.Size
			}
		}
		cell.Members = append(cell.Members, i)
		if cell.PivAll {
			col, ok := cols[name]
			if !ok || len(col) != np {
				cell.PivAll = false
			} else {
				for j, e := range col {
					if e.Lo < cell.PivLo[j] {
						cell.PivLo[j] = e.Lo
					}
					if e.Hi > cell.PivHi[j] {
						cell.PivHi[j] = e.Hi
					}
				}
			}
		}
	}
	ix.snap = p
	ix.snapDirty = false
	ix.snapPivEpoch = pe
	ix.snapPivCols = len(cols)
	return p
}

// Occupancy is a point-in-time view of the partition for metrics
// exporters: cell count, indexed members, mean inverted-list length,
// and the monotone rebuild counters.
type Occupancy struct {
	Cells        int
	Members      int
	MeanList     float64
	Epoch        uint64
	Rebuilds     int64
	RebuildNanos int64
}

// Occupancy returns the current occupancy.
func (ix *Index) Occupancy() Occupancy {
	ix.mu.Lock()
	cells := len(ix.centroids)
	members := len(ix.order)
	epoch := ix.epoch
	ix.mu.Unlock()
	o := Occupancy{
		Cells:        cells,
		Members:      members,
		Epoch:        epoch,
		Rebuilds:     ix.rebuilds.Load(),
		RebuildNanos: ix.rebuildNanos.Load(),
	}
	if cells > 0 {
		o.MeanList = float64(members) / float64(cells)
	}
	return o
}
