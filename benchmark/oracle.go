package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sort"
	"sync"

	"skygraph/internal/graph"
	"skygraph/internal/measure"
	"skygraph/internal/skyline"
)

// The oracle recomputes answers straight from the paper's Definitions
// 11–12 with leaf functions only: the GCS vector of every graph against
// the query, a block-nested-loop skyline over all of them, and a sort
// for the single-measure baselines. No cache, bound, shard, index or
// WAL is involved, so agreement is evidence about the whole serving
// stack. It runs outside the timed phase.

const oracleSamples = 8

// reference is the full GCS table of one query over a collection.
type reference struct {
	q    *graph.Graph
	pts  []skyline.Point // one per graph, collection order
	byID map[string][]float64
}

func buildReference(db []*graph.Graph, q *graph.Graph) *reference {
	ref := &reference{q: q, pts: make([]skyline.Point, len(db)), byID: make(map[string][]float64, len(db))}
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(db); i += workers {
				ref.pts[i] = skyline.Point{ID: db[i].Name(), Vec: measure.ComputeGCS(db[i], q, measure.Options{})}
			}
		}()
	}
	wg.Wait()
	for _, p := range ref.pts {
		ref.byID[p.ID] = p.Vec
	}
	return ref
}

func same(a, b float64) bool { return math.Abs(a-b) <= 1e-9 }

// check asks the system all three query kinds for ref.q and compares
// tie-robustly: the skyline as a set of (id, vector) rows; top-k by its
// score sequence plus each returned id's own reference score (which id
// fills a tied last place is free); range as an id set. It returns a
// canonical rendering of the answers for answers_sha256.
func (ref *reference) check(c *httpClient) (string, error) {
	canon := ""

	var sky wireAnswer
	if err := c.do(http.MethodPost, queryPaths[opSkyline], queryBody(opSkyline, ref.q, false), &sky); err != nil {
		return "", err
	}
	want := skyline.BNL(ref.pts)
	if len(sky.Skyline) != len(want) {
		return "", fmt.Errorf("skyline of %s: %d rows, reference has %d", ref.q.Name(), len(sky.Skyline), len(want))
	}
	wantIDs := map[string]bool{}
	for _, p := range want {
		wantIDs[p.ID] = true
	}
	rows := make([]string, 0, len(sky.Skyline))
	for _, p := range sky.Skyline {
		rv := ref.byID[p.ID]
		if !wantIDs[p.ID] || len(p.Vec) != len(rv) {
			return "", fmt.Errorf("skyline of %s: row %s is not in the reference skyline", ref.q.Name(), p.ID)
		}
		for d := range rv {
			if !same(p.Vec[d], rv[d]) {
				return "", fmt.Errorf("skyline of %s: row %s has %v, reference %v", ref.q.Name(), p.ID, p.Vec, rv)
			}
		}
		delete(wantIDs, p.ID) // a duplicated row would now fail the membership test
		rows = append(rows, fmt.Sprintf("%s%.9f", p.ID, p.Vec))
	}
	sort.Strings(rows)
	canon += fmt.Sprint("skyline", rows)

	scores := make([]float64, len(ref.pts))
	for i, p := range ref.pts {
		scores[i] = p.Vec[0] // DistEd leads the default basis
	}
	sort.Float64s(scores)

	var top wireAnswer
	if err := c.do(http.MethodPost, queryPaths[opTopK], queryBody(opTopK, ref.q, false), &top); err != nil {
		return "", err
	}
	if len(top.Items) != min(topK, len(scores)) {
		return "", fmt.Errorf("top-k of %s: %d items", ref.q.Name(), len(top.Items))
	}
	seen := map[string]bool{}
	for i, it := range top.Items {
		rv, ok := ref.byID[it.ID]
		if !ok || seen[it.ID] || !same(it.Score, scores[i]) || !same(it.Score, rv[0]) {
			return "", fmt.Errorf("top-k of %s: rank %d is %s at %g, reference score %g", ref.q.Name(), i, it.ID, it.Score, scores[i])
		}
		seen[it.ID] = true
		canon += fmt.Sprintf("top%.9f", it.Score)
	}

	var rng wireAnswer
	if err := c.do(http.MethodPost, queryPaths[opRange], queryBody(opRange, ref.q, false), &rng); err != nil {
		return "", err
	}
	inRange := map[string]bool{}
	for _, p := range ref.pts {
		if p.Vec[0] <= rangeRadius {
			inRange[p.ID] = true
		}
	}
	ids := make([]string, 0, len(rng.Items))
	for _, it := range rng.Items {
		if !inRange[it.ID] || !same(it.Score, ref.byID[it.ID][0]) {
			return "", fmt.Errorf("range of %s: %s at %g is not within the reference radius", ref.q.Name(), it.ID, it.Score)
		}
		delete(inRange, it.ID)
		ids = append(ids, it.ID)
	}
	if len(inRange) != 0 {
		return "", fmt.Errorf("range of %s: %d reference rows missing", ref.q.Name(), len(inRange))
	}
	sort.Strings(ids)
	canon += fmt.Sprint("range", ids)
	return canon, nil
}

// sampleQueries picks up to oracleSamples query graphs evenly from the
// first n of the plan's queries (the ones the run actually sent).
func sampleQueries(p *plan, n int) []*graph.Graph {
	n = min(max(n, 1), len(p.queries))
	k := min(oracleSamples, n)
	out := make([]*graph.Graph, k)
	for j := range out {
		out[j] = p.queries[j*n/k]
	}
	return out
}

// checkAll checks every reference against the system and returns the
// digest of its answers and the mismatches found.
func checkAll(c *httpClient, refs []*reference) (string, []string) {
	h := sha256.New()
	var bad []string
	for _, ref := range refs {
		canon, err := ref.check(c)
		if err != nil {
			bad = append(bad, err.Error())
			continue
		}
		h.Write([]byte(canon))
	}
	return hex.EncodeToString(h.Sum(nil)), bad
}
