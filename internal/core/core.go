// Package core is the public face of skygraph: a graph similarity search
// engine answering queries with the *graph similarity skyline* of Abbaci,
// Hadjali, Liétard & Rocacher (GDM/ICDE 2011) instead of a single-measure
// ranking.
//
// Similarity between a database graph g and the query q is the compound
// vector GCS(g,q) = (DistEd, DistMcs, DistGu): edit distance, maximum-
// common-subgraph distance and graph-union (Jaccard-style) distance. The
// answer set is the Pareto-optimal subset of the database under this
// vector — graphs no other graph beats on every dimension — optionally
// refined to a maximally diverse k-subset.
//
// Basic usage:
//
//	eng := core.NewEngine()
//	_ = eng.Add(g1, g2, g3)
//	res, _ := eng.Skyline(q)
//	for _, m := range res.Members {
//	    fmt.Println(m.Name, m.Vector)
//	}
package core

import (
	"context"
	"fmt"

	"skygraph/internal/gdb"
	"skygraph/internal/graph"
	"skygraph/internal/measure"
	"skygraph/internal/skyline"
)

// Engine wraps a graph database with the measure basis and evaluation
// budget used to answer similarity skyline queries. Engines are safe for
// concurrent use.
type Engine struct {
	db   *gdb.Sharded
	opts gdb.QueryOptions
}

// Option customizes an Engine.
type Option func(*Engine)

// WithBasis replaces the default (DistEd, DistMcs, DistGu) measure basis.
func WithBasis(basis ...measure.Measure) Option {
	return func(e *Engine) { e.opts.Basis = basis }
}

// WithBudget caps the exact GED/MCS searches at the given node counts;
// capped evaluations degrade to guaranteed bounds and are counted in
// Result.Inexact. Zero means exact, unbounded computation.
func WithBudget(gedMaxNodes, mcsMaxNodes int64) Option {
	return func(e *Engine) {
		e.opts.Eval = measure.Options{GEDMaxNodes: gedMaxNodes, MCSMaxNodes: mcsMaxNodes}
	}
}

// WithWorkers sets the parallelism of vector evaluation (default:
// GOMAXPROCS).
func WithWorkers(n int) Option {
	return func(e *Engine) { e.opts.Workers = n }
}

// WithPrune enables bound-index filter-and-refine evaluation of
// skyline queries: graphs the signature bounds or the progressive scan
// prove dominated are never scored exactly. The skyline is identical
// to unpruned evaluation, but Result.All then holds only the scored
// candidates. TopK always runs its best-first scan, with or without it.
func WithPrune() Option {
	return func(e *Engine) { e.opts.Prune = true }
}

// NewEngine returns an empty engine.
func NewEngine(options ...Option) *Engine {
	e := &Engine{db: gdb.New()}
	for _, o := range options {
		o(e)
	}
	return e
}

// Load returns an engine populated from an LGF file.
func Load(path string, options ...Option) (*Engine, error) {
	db, err := gdb.Load(path)
	if err != nil {
		return nil, err
	}
	e := NewEngine(options...)
	e.db = db
	return e, nil
}

// Save writes the engine's database to an LGF file.
func (e *Engine) Save(path string) error { return e.db.Save(path) }

// Add inserts graphs into the database. Each graph needs a unique non-empty
// name; the engine takes ownership (do not mutate afterwards).
func (e *Engine) Add(gs ...*graph.Graph) error { return e.db.InsertAll(gs) }

// Remove deletes the named graph, reporting whether it existed.
func (e *Engine) Remove(name string) bool {
	ack, err := e.db.Delete(name, "")
	return ack.Existed && err == nil
}

// Get returns the named graph.
func (e *Engine) Get(name string) (*graph.Graph, bool) { return e.db.Get(name) }

// Len returns the number of stored graphs.
func (e *Engine) Len() int { return e.db.Len() }

// Names returns the stored graph names in insertion order.
func (e *Engine) Names() []string { return e.db.Names() }

// Member is one answer graph with its compound similarity vector.
type Member struct {
	// Name identifies the database graph.
	Name string
	// Vector is the GCS vector under the engine's basis (all dimensions:
	// smaller = more similar).
	Vector []float64
}

// Result is the answer to a Skyline query.
type Result struct {
	// Members is the graph similarity skyline GSS(D, q), in database
	// insertion order.
	Members []Member
	// All carries the vector of every database graph (the full comparison
	// table), in insertion order.
	All []Member
	// Evaluated and Inexact count vector computations and capped (bounded
	// rather than exact) pair evaluations.
	Evaluated, Inexact int
}

// Skyline answers a graph similarity query with the Pareto-optimal set of
// database graphs (Definition 12 / Eq. 4 of the paper).
func (e *Engine) Skyline(q *graph.Graph) (Result, error) {
	res, err := e.db.SkylineQuery(context.Background(), q, e.opts)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Members:   toMembers(res.Skyline),
		All:       toMembers(res.All),
		Evaluated: res.Stats.Evaluated,
		Inexact:   res.Stats.Inexact,
	}, nil
}

// DiverseResult extends Result with the Section VII refinement.
type DiverseResult struct {
	Result
	// Selected is the maximally diverse k-subset of the skyline.
	Selected []string
	// Exhaustive is true when the optimal subset search ran (false: greedy
	// fallback because the skyline was too large to enumerate).
	Exhaustive bool
}

// DiverseSkyline answers a query with the skyline refined to its most
// diverse k graphs: pairwise distances between skyline members are ranked
// per dimension and the k-subset minimizing the rank sum wins.
func (e *Engine) DiverseSkyline(q *graph.Graph, k int) (DiverseResult, error) {
	res, err := e.db.DiverseSkylineQuery(context.Background(), q, k, e.opts)
	if err != nil {
		return DiverseResult{}, err
	}
	return DiverseResult{
		Result: Result{
			Members:   toMembers(res.Skyline),
			All:       toMembers(res.All),
			Evaluated: res.Stats.Evaluated,
			Inexact:   res.Stats.Inexact,
		},
		Selected:   res.Selected,
		Exhaustive: res.Exhaustive,
	}, nil
}

// TopK is the single-measure baseline: the k nearest graphs under one
// measure (the retrieval model the skyline approach generalizes). m
// must be one of the built-in measures.
func (e *Engine) TopK(q *graph.Graph, m measure.Measure, k int) ([]Member, error) {
	res, err := e.db.TopKQuery(context.Background(), q, m, k, e.opts)
	if err != nil {
		return nil, err
	}
	out := make([]Member, len(res.Items))
	for i, it := range res.Items {
		out[i] = Member{Name: it.ID, Vector: []float64{it.Score}}
	}
	return out, nil
}

// Explain reports, for a non-skyline graph, one skyline member that
// dominates it; for skyline members it returns ok=false.
func Explain(res Result, name string) (dominator string, ok bool) {
	var target []float64
	for _, m := range res.All {
		if m.Name == name {
			target = m.Vector
			break
		}
	}
	if target == nil {
		return "", false
	}
	for _, m := range res.Members {
		if m.Name != name && skyline.Dominates(m.Vector, target) {
			return m.Name, true
		}
	}
	return "", false
}

func toMembers(pts []skyline.Point) []Member {
	out := make([]Member, len(pts))
	for i, p := range pts {
		out[i] = Member{Name: p.ID, Vector: p.Vec}
	}
	return out
}

// Version identifies the library release.
const Version = "1.0.0"

// String renders a member compactly.
func (m Member) String() string { return fmt.Sprintf("%s%v", m.Name, m.Vector) }
