package gdb

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"
	"sync/atomic"

	"skygraph/internal/graph"
	"skygraph/internal/measure"
)

// ScoreMemo is the cross-query exact-score memo: a bounded LRU of raw
// engine results keyed by
//
//	(canonical query hash, engine budgets) -> stored graph insert sequence
//
// A memo hit replays the recorded GED/MCS engine output instead of
// re-running the exponential engines — the engines are deterministic
// for a fixed (pair, options), so replayed scores are byte-identical.
// The invalidation rule is generational, like every cache in the
// system: entries are keyed by the stored graph's process-unique
// insert sequence, so deleting and re-inserting a name mints a new
// sequence and strands the old entries (the LRU ages them out), while
// an unrelated insert or delete invalidates *nothing* — which is
// exactly the cross-query win. The serving layer's vector-table cache
// dies wholesale on the owning shard's generation bump; the memo
// survives it, so rebuilding a table after one insert only pays
// engines for the new graph.
//
// Entries are grouped by query: one fixed-size comparable key per
// query, then a map from insert sequence to results. A scan publishes
// some fifty pairs under one query, so the query half of the key is
// stored once instead of fifty times and a pair costs one small map
// slot — a miss-heavy workload's resident heap is mostly this memo.
// Recency and eviction work on whole groups (a query's pairs are read
// and written together); capacity still counts pairs. A pair's
// results are stored packed (memoVal, 16 bytes) and converted to and
// from measure.EngineResults only at the get/merge boundary.
//
// One memo is safely shared across the shards of a Sharded database
// (sequences are process-unique, names shard-stable).
type ScoreMemo struct {
	capacity int
	hits     atomic.Uint64
	misses   atomic.Uint64

	mu      sync.Mutex
	entries int // pairs across all groups
	groups  map[memoQuery]*memoGroup
	// Recency ring: sentinel.next is the most recently used group,
	// sentinel.prev the eviction candidate.
	sentinel memoGroup
}

// memoQuery is the per-query half of a memo key: the 16 raw bytes of
// graph.QueryHash and the engine budgets the results were computed
// under.
type memoQuery struct {
	hash [16]byte
	eval measure.Options
}

// memoGroup holds one query's recorded pairs by stored-graph insert
// sequence.
type memoGroup struct {
	key        memoQuery
	pairs      map[uint64]memoVal
	prev, next *memoGroup
}

// memoVal is one pair's measure.EngineResults packed into 16 bytes
// instead of 24: the GED value, the MCS value as an int32 (an edge
// count; no stored graph comes near 2^31 edges) and the four flags as
// bits. The memo's resident heap is mostly these slots.
type memoVal struct {
	ged   float64
	mcs   int32
	flags uint32
}

const (
	memoHasGED uint32 = 1 << iota
	memoGEDExact
	memoHasMCS
	memoMCSExact
)

func packMemo(r measure.EngineResults) memoVal {
	v := memoVal{ged: r.GED, mcs: int32(r.MCS)}
	if r.HasGED {
		v.flags |= memoHasGED
	}
	if r.GEDExact {
		v.flags |= memoGEDExact
	}
	if r.HasMCS {
		v.flags |= memoHasMCS
	}
	if r.MCSExact {
		v.flags |= memoMCSExact
	}
	return v
}

func (v memoVal) unpack() measure.EngineResults {
	return measure.EngineResults{
		GED:      v.ged,
		MCS:      int(v.mcs),
		HasGED:   v.flags&memoHasGED != 0,
		GEDExact: v.flags&memoGEDExact != 0,
		HasMCS:   v.flags&memoHasMCS != 0,
		MCSExact: v.flags&memoMCSExact != 0,
	}
}

// NewScoreMemo returns a memo holding at most capacity pair entries
// (< 1 disables it).
func NewScoreMemo(capacity int) *ScoreMemo {
	m := &ScoreMemo{capacity: capacity, groups: make(map[memoQuery]*memoGroup)}
	m.sentinel.prev, m.sentinel.next = &m.sentinel, &m.sentinel
	return m
}

// newMemoQuery builds the per-query key. qh is graph.QueryHash's
// 32-hex-digit rendering; anything else a caller passed as
// QueryOptions.QueryHash is hashed down to the same width.
func newMemoQuery(qh string, eval measure.Options) memoQuery {
	k := memoQuery{eval: eval}
	if len(qh) == hex.EncodedLen(len(k.hash)) {
		if _, err := hex.Decode(k.hash[:], []byte(qh)); err == nil {
			return k
		}
	}
	sum := sha256.Sum256([]byte(qh))
	copy(k.hash[:], sum[:])
	return k
}

func (g *memoGroup) unlink() {
	g.prev.next, g.next.prev = g.next, g.prev
}

// touch makes g the most recently used group. Caller holds m.mu.
func (m *ScoreMemo) touch(g *memoGroup) {
	if g.prev != nil {
		g.unlink()
	}
	g.prev, g.next = &m.sentinel, m.sentinel.next
	g.prev.next, g.next.prev = g, g
}

// get returns the recorded results of one pair, marking its query most
// recently used.
func (m *ScoreMemo) get(q memoQuery, seq uint64) (measure.EngineResults, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	g := m.groups[q]
	if g == nil {
		return measure.EngineResults{}, false
	}
	v, ok := g.pairs[seq]
	if !ok {
		return measure.EngineResults{}, false
	}
	m.touch(g)
	return v.unpack(), true
}

// merge records got for one pair, keeping whichever engine halves an
// existing entry already holds (two engines finishing the same pair
// concurrently must not overwrite each other's half), then evicts
// least recently used queries while the memo is over capacity — down
// to and including this one, should a single query outgrow the whole
// memo.
func (m *ScoreMemo) merge(q memoQuery, seq uint64, got measure.EngineResults) {
	if m.capacity < 1 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	g := m.groups[q]
	if g == nil {
		g = &memoGroup{key: q, pairs: make(map[uint64]memoVal)}
		m.groups[q] = g
	}
	m.touch(g)
	if oldv, ok := g.pairs[seq]; ok {
		old := oldv.unpack()
		if old.HasGED {
			got.GED, got.GEDExact, got.HasGED = old.GED, old.GEDExact, true
		}
		if old.HasMCS {
			got.MCS, got.MCSExact, got.HasMCS = old.MCS, old.MCSExact, true
		}
	} else {
		m.entries++
	}
	g.pairs[seq] = packMemo(got)
	for m.entries > m.capacity {
		oldest := m.sentinel.prev
		oldest.unlink()
		delete(m.groups, oldest.key)
		m.entries -= len(oldest.pairs)
	}
}

// MemoStats is a point-in-time snapshot of memo counters.
type MemoStats struct {
	Capacity int    `json:"capacity"`
	Entries  int    `json:"entries"`
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
}

// Stats returns the current counters.
func (m *ScoreMemo) Stats() MemoStats {
	m.mu.Lock()
	entries := m.entries
	m.mu.Unlock()
	return MemoStats{
		Capacity: m.capacity,
		Entries:  entries,
		Hits:     m.hits.Load(),
		Misses:   m.misses.Load(),
	}
}

// evalCtx carries the per-query score-memo handles every evaluation
// path over one snapshot shares, and the memo counters the wire stats
// surface. A nil *evalCtx (no memo) is valid everywhere and turns every
// method into a cheap no-op.
type evalCtx struct {
	memo *ScoreMemo
	mq   memoQuery

	memoHits   atomic.Int64
	memoMisses atomic.Int64
}

// newEvalCtx assembles the per-query context: nil unless the shard has
// a score memo.
func (db *DB) newEvalCtx(q *graph.Graph, opts QueryOptions) *evalCtx {
	memo := db.Memo()
	if memo == nil {
		return nil
	}
	qh := opts.QueryHash
	if qh == "" {
		qh = graph.QueryHash(q)
	}
	return &evalCtx{memo: memo, mq: newMemoQuery(qh, opts.Eval)}
}

// memoGet looks up the pair's recorded engine results, succeeding only
// when they cover the given needs. Hit/miss counters (per query and
// global) move on every call, so the ratio reflects what the memo
// actually served.
func (ec *evalCtx) memoGet(seq uint64, needGED, needMCS bool) (measure.EngineResults, bool) {
	if ec == nil || ec.memo == nil {
		return measure.EngineResults{}, false
	}
	r, ok := ec.memo.get(ec.mq, seq)
	if ok && r.Covers(needGED, needMCS) {
		ec.memoHits.Add(1)
		ec.memo.hits.Add(1)
		return r, true
	}
	ec.memoMisses.Add(1)
	ec.memo.misses.Add(1)
	if ok {
		// Partial entry: reuse what is there, the caller runs the rest.
		return r, false
	}
	return measure.EngineResults{}, false
}

// memoPeek is memoGet for an opportunistic probe — the pruned skyline
// path's tier-0 interval collapse, which checks every snapshot graph
// even though most get pruned without ever needing engines. Hits count
// (the memo really served them); absences do not count as misses, so
// the wire hit-ratio keeps meaning "share of engine-needing lookups
// the memo answered" — the authoritative miss is counted where the
// engines would otherwise run.
func (ec *evalCtx) memoPeek(seq uint64, needGED, needMCS bool) (measure.EngineResults, bool) {
	if ec == nil || ec.memo == nil {
		return measure.EngineResults{}, false
	}
	r, ok := ec.memo.get(ec.mq, seq)
	if ok && r.Covers(needGED, needMCS) {
		ec.memoHits.Add(1)
		ec.memo.hits.Add(1)
		return r, true
	}
	return measure.EngineResults{}, false
}

// memoPublish merges freshly computed engine results into the memo.
func (ec *evalCtx) memoPublish(seq uint64, got measure.EngineResults) {
	if ec == nil || ec.memo == nil || (!got.HasGED && !got.HasMCS) {
		return
	}
	ec.memo.merge(ec.mq, seq, got)
}

// computeFull evaluates a pair's full statistics with memo interplay:
// replayed entirely on a covering hit, completed from a partial entry,
// published after a fresh run. h must carry both signatures.
func (ec *evalCtx) computeFull(g, q *graph.Graph, seq uint64, eval measure.Options, h measure.PairHints) measure.PairStats {
	if ec == nil || ec.memo == nil || h.Sig1 == nil || h.Sig2 == nil {
		return measure.ComputeHinted(g, q, eval, h)
	}
	have, hit := ec.memoGet(seq, true, true)
	if hit {
		return measure.PairStatsFrom(h.Sig1, h.Sig2, have)
	}
	ps, got := measure.ComputeWith(g, q, eval, h, have)
	ec.memoPublish(seq, got)
	return ps
}

// work reports the per-query counters the context itself maintains:
// the score-memo lookups.
func (ec *evalCtx) work() Work {
	if ec == nil {
		return Work{}
	}
	return Work{
		MemoHits:   int(ec.memoHits.Load()),
		MemoMisses: int(ec.memoMisses.Load()),
	}
}
