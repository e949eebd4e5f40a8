package graph

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
)

// QueryHash returns a stable identifier for g suitable as a cache key
// for query results. It never collides for structurally different
// graphs, so a cache keyed by it can never serve one query's results as
// another's.
//
// Small graphs (up to canonHashOrder vertices) are hashed from their
// exact canonical string, making the hash a complete isomorphism
// invariant: a renumbered but isomorphic query reuses the same cache
// entry. The canonical search is budgeted — highly symmetric graphs
// (e.g. a uniformly-labeled K10) would otherwise take exponential time
// on a synchronous, unauthenticated code path. Budget-exhausted and
// larger graphs are hashed from their exact literal encoding instead —
// still deterministic and collision-free, but vertex-order-sensitive,
// so isomorphic re-numberings of such queries hash apart and merely
// miss the cache. (A WL-signature fallback would stay order-invariant
// but collides with certainty on regular graphs — e.g. one 12-cycle vs
// two 6-cycles — which a cache must never risk.)
const (
	canonHashOrder  = 10
	canonHashBudget = 50000 // search nodes; sub-millisecond cutoff
)

func QueryHash(g *Graph) string {
	var payload string
	if c, ok := canonPayload(g); ok {
		payload = c
	} else {
		payload = fmt.Sprintf("exact|%d|%d|%s", g.Order(), g.Size(), literalEncoding(g))
	}
	sum := sha256.Sum256([]byte(payload))
	return hex.EncodeToString(sum[:16])
}

func canonPayload(g *Graph) (string, bool) {
	if g.Order() > canonHashOrder {
		return "", false
	}
	c, ok := CanonicalStringBudget(g, canonHashBudget)
	if !ok {
		return "", false
	}
	return "canon|" + c, true
}

// literalEncoding renders g exactly as stored (vertex labels in index
// order, edges sorted), excluding the name. Equal encodings imply equal
// graphs.
func literalEncoding(g *Graph) string {
	var b strings.Builder
	for v := 0; v < g.Order(); v++ {
		fmt.Fprintf(&b, "v%q", g.VertexLabel(v))
	}
	edges := g.Edges()
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})
	for _, e := range edges {
		fmt.Fprintf(&b, "e%d,%d%q", e.U, e.V, e.Label)
	}
	return b.String()
}
