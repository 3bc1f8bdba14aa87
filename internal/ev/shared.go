package ev

import (
	"sync"

	"github.com/factcheck/cleansel/internal/model"
	"github.com/factcheck/cleansel/internal/query"
)

// SharedEVCache is the memo of the GroupEngines built over it with
// NewGroupEngineShared: one memo table per term signature
// (query.Term.Sig) and one per ordered pair of signatures, keyed by the
// cleaned-mask as an engine's own tables are, under one lock that is
// every such engine's lock. It is the cross-claim amortization behind
// bulk triage: claims over one dataset that share terms (duplicity
// indicators anchored to the same reference, say) pay for each
// term/pair enumeration once per batch instead of once per claim.
//
// Sharing is exact-reuse only, so it cannot move a bit: a cached value
// is the output of the very same enumeration (same variables in the
// same declared order, same parameters, same distributions) that an
// engine of its own would run. Pair tables are keyed by the ORDERED
// signature pair (term k first) — pairEV groups its float products
// around the k-side value, so a (k,l)-swapped pair is the same real
// number but not necessarily the same float64, and it must recompute
// rather than share. A term or pair without a signature keeps a table
// of the engine's own.
//
// A SharedEVCache must never be used with engines over different
// databases or discretizations: keys do not include the distributions,
// that invariant is the caller's (core.TriageContext's) job.
//
// All methods are safe for concurrent use.
type SharedEVCache struct {
	mu    sync.Mutex
	terms map[string]map[uint64]float64
	pairs map[string]map[uint64]float64

	hits, misses uint64
}

// NewSharedEVCache returns an empty cache ready to hand to
// NewGroupEngineShared.
func NewSharedEVCache() *SharedEVCache {
	return &SharedEVCache{
		terms: make(map[string]map[uint64]float64),
		pairs: make(map[string]map[uint64]float64),
	}
}

// Stats reports lifetime lookup outcomes (a lookup for an unsigned or
// uncacheable term counts as neither).
func (c *SharedEVCache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Len returns the number of resident term and pair entries.
func (c *SharedEVCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, tables := range [...]map[string]map[uint64]float64{c.terms, c.pairs} {
		for _, t := range tables {
			n += len(t)
		}
	}
	return n
}

// memoTable returns the memo table tables holds for sig, created on
// first use; an unsigned entry ("") gets none. Callers hold the cache's
// lock.
func memoTable(tables map[string]map[uint64]float64, sig string) map[uint64]float64 {
	if sig == "" {
		return nil
	}
	t, ok := tables[sig]
	if !ok {
		t = make(map[uint64]float64)
		tables[sig] = t
	}
	return t
}

// NewGroupEngineShared is NewGroupEngine with the cache as its memo:
// each signed term and pair reads and writes the cache's table for its
// signature, under the cache's lock. Engines sharing a cache MUST be
// built over the same database value (same objects, same
// discretization); see the SharedEVCache contract.
func NewGroupEngineShared(db *model.DB, g *query.GroupSum, shared *SharedEVCache) (*GroupEngine, error) {
	e, err := NewGroupEngine(db, g)
	if err != nil {
		return nil, err
	}
	e.mu, e.shared = &shared.mu, shared
	shared.mu.Lock()
	defer shared.mu.Unlock()
	for k := range e.terms {
		e.termCache[k] = memoTable(shared.terms, e.terms[k].Sig)
	}
	for pi := range e.pairs {
		e.pairCache[pi] = memoTable(shared.pairs, e.pairs[pi].sig)
	}
	return e, nil
}
