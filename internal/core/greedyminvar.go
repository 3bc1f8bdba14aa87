package core

import (
	"container/heap"
	"context"
	"errors"

	"github.com/factcheck/cleansel/internal/ev"
	"github.com/factcheck/cleansel/internal/model"
	"github.com/factcheck/cleansel/internal/query"
)

// GreedyMinVarModular is GreedyMinVar for affine query functions with
// uncorrelated errors: the benefit of cleaning o is exactly
// w_o = a_o²·Var[X_o] (Lemma 3.1), so the benefits are static and the
// algorithm is the 2-approximate knapsack greedy.
type GreedyMinVarModular struct {
	db      *model.DB
	weights []float64
}

// NewGreedyMinVarModular builds the selector.
func NewGreedyMinVarModular(db *model.DB, f *query.Affine) (*GreedyMinVarModular, error) {
	if db == nil {
		return nil, errNilDB
	}
	eng, err := ev.NewModular(db, f)
	if err != nil {
		return nil, err
	}
	return &GreedyMinVarModular{db: db, weights: eng.Weights()}, nil
}

// Name implements Selector.
func (g *GreedyMinVarModular) Name() string { return "GreedyMinVar" }

// Select implements Selector.
func (g *GreedyMinVarModular) Select(budget float64) (model.Set, error) {
	if err := validateBudget(budget); err != nil {
		return nil, err
	}
	return staticGreedy(g.db, g.weights, budget), nil
}

// GreedyMinVarGroup is GreedyMinVar for decomposed (GroupSum) query
// functions over independent discrete values: benefits are the exact
// objective deltas of the group engine, maintained incrementally. Because
// cleaning an object only changes the benefits of objects sharing a claim
// with it, the selector keeps a priority queue whose entries are refreshed
// only on those local invalidations — the whole run costs near-linear work
// on disjoint-window workloads (Figure 10).
type GreedyMinVarGroup struct {
	db     *model.DB
	engine *ev.GroupEngine
}

// NewGreedyMinVarGroup builds the selector.
func NewGreedyMinVarGroup(db *model.DB, g *query.GroupSum) (*GreedyMinVarGroup, error) {
	if db == nil {
		return nil, errNilDB
	}
	engine, err := ev.NewGroupEngine(db, g)
	if err != nil {
		return nil, err
	}
	return NewGreedyMinVarGroupEngine(db, engine)
}

// NewGreedyMinVarGroupEngine builds the selector over an existing group
// engine, which must have been built over db. The selector's State
// writes every value it computes through to the engine's memo, so
// evaluating EV on the same engine afterwards (a caller's Before/After)
// reads those values instead of enumerating them again.
func NewGreedyMinVarGroupEngine(db *model.DB, engine *ev.GroupEngine) (*GreedyMinVarGroup, error) {
	if db == nil {
		return nil, errNilDB
	}
	if engine == nil {
		return nil, errors.New("core: nil engine")
	}
	return &GreedyMinVarGroup{db: db, engine: engine}, nil
}

// Name implements Selector.
func (g *GreedyMinVarGroup) Name() string { return "GreedyMinVar" }

// benefit-queue entry; ver guards against stale benefits after local
// invalidation.
type pqEntry struct {
	ratio   float64
	benefit float64
	obj     int
	ver     int
}

type pq []pqEntry

func (q pq) Len() int { return len(q) }
func (q pq) Less(i, j int) bool {
	if q[i].ratio != q[j].ratio {
		return q[i].ratio > q[j].ratio
	}
	return q[i].obj < q[j].obj
}
func (q pq) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x interface{}) { *q = append(*q, x.(pqEntry)) }
func (q *pq) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// Select implements Selector.
func (g *GreedyMinVarGroup) Select(budget float64) (model.Set, error) {
	return g.SelectContext(context.Background(), budget)
}

// SelectContext implements ContextSelector: the initial benefit pass
// runs on the parallel worker pool and the queue loop checks the
// context between cleans, so a timed-out solve stops promptly.
func (g *GreedyMinVarGroup) SelectContext(ctx context.Context, budget float64) (model.Set, error) {
	if err := validateBudget(budget); err != nil {
		return nil, err
	}
	st, singles, err := g.engine.NewStateCtx(ctx) // singles also serve the final check
	if err != nil {
		return nil, err
	}
	n := g.db.N()
	version := make([]int, n)
	q := make(pq, 0, n)
	for o := 0; o < n; o++ {
		if singles[o] <= 0 {
			continue
		}
		q = append(q, pqEntry{ratio: ratio(singles[o], g.db.Objects[o].Cost), benefit: singles[o], obj: o})
	}
	heap.Init(&q)

	var T model.Set
	remaining := budget
	gainSum := 0.0
	for q.Len() > 0 {
		if err := ctx.Err(); err != nil {
			return nil, context.Cause(ctx)
		}
		top := heap.Pop(&q).(pqEntry)
		o := top.obj
		if st.Cleaned(o) || top.ver != version[o] {
			continue // superseded entry
		}
		if !fitsBudget(0, g.db.Objects[o].Cost, remaining) {
			continue // budget only shrinks: never affordable again
		}
		gain := -st.Clean(o)
		T = T.Add(o)
		remaining -= g.db.Objects[o].Cost
		gainSum += gain
		// Refresh the benefits of locally affected objects so the queue
		// max stays exact (EV is submodular: stale entries underestimate).
		// DeltasCtx walks each affected term once for all of its live
		// objects, then reads every delta's term values from the engine
		// memo; the deltas come back in Affected order, so the queue is
		// the same at every worker count.
		stale := st.Affected(o)
		live := stale[:0]
		for _, a := range stale {
			if !st.Cleaned(a) {
				live = append(live, a)
			}
		}
		deltas, err := st.DeltasCtx(ctx, live)
		if err != nil {
			return nil, err
		}
		for i, a := range live {
			version[a]++
			b := -deltas[i]
			if b < 0 {
				b = 0
			}
			heap.Push(&q, pqEntry{ratio: ratio(b, g.db.Objects[a].Cost), benefit: b, obj: a, ver: version[a]})
		}
	}
	// Final check against the best single object (by singleton benefit).
	if o := bestUnchosen(g.db, singles, T, budget); o >= 0 && singles[o] > gainSum {
		return model.NewSet(o), nil
	}
	return T, nil
}

// GreedyEngine is the generic adaptive GreedyMinVar over any EV engine:
// each round re-evaluates the benefit EV(T) − EV(T ∪ {o}) for every
// affordable candidate (the O(n²·γ) form discussed in §3.1). It also
// serves as GreedyDep when given the Schur-complement MVN engine.
type GreedyEngine struct {
	name   string
	db     *model.DB
	engine ev.Engine
}

// NewGreedyEngine wraps an EV engine in the adaptive greedy.
func NewGreedyEngine(name string, db *model.DB, engine ev.Engine) (*GreedyEngine, error) {
	if db == nil {
		return nil, errNilDB
	}
	if engine == nil {
		return nil, errors.New("core: nil engine")
	}
	return &GreedyEngine{name: name, db: db, engine: engine}, nil
}

// NewGreedyDep builds the dependency-aware greedy of §4.5: benefits are
// exact conditional-variance reductions under the full covariance model.
func NewGreedyDep(db *model.DB, f *query.Affine) (*GreedyEngine, error) {
	engine, err := ev.NewMVN(db, f)
	if err != nil {
		return nil, err
	}
	return NewGreedyEngine("GreedyDep", db, engine)
}

// Name implements Selector.
func (g *GreedyEngine) Name() string { return g.name }

// Select implements Selector.
func (g *GreedyEngine) Select(budget float64) (model.Set, error) {
	return g.SelectContext(context.Background(), budget)
}

// SelectContext implements ContextSelector, checking the context
// between candidate evaluations (each one is a full EV solve — the
// expensive unit of this adaptive greedy).
func (g *GreedyEngine) SelectContext(ctx context.Context, budget float64) (model.Set, error) {
	if err := validateBudget(budget); err != nil {
		return nil, err
	}
	n := g.db.N()
	var T model.Set
	remaining := budget
	cur, err := ev.EVWithContext(ctx, g.engine, nil)
	if err != nil {
		return nil, err
	}
	gainSum := 0.0
	// singles[o] = EV(∅) − EV({o}), filled in the first round (T = ∅),
	// whose candidates are exactly the affordable objects the final
	// single-item check may return.
	singles := make([]float64, n)
	for {
		best, bestR, bestEV := -1, -1.0, 0.0
		for o := 0; o < n; o++ {
			if T.Has(o) || !fitsBudget(0, g.db.Objects[o].Cost, remaining) {
				continue
			}
			after, err := ev.EVWithContext(ctx, g.engine, T.Add(o))
			if err != nil {
				return nil, err
			}
			b := cur - after
			if b <= 0 {
				continue // no variance reduction: not worth any budget
			}
			if len(T) == 0 {
				singles[o] = b
			}
			if r := ratio(b, g.db.Objects[o].Cost); r > bestR {
				best, bestR, bestEV = o, r, after
			}
		}
		if best < 0 {
			break
		}
		gainSum += cur - bestEV
		cur = bestEV
		remaining -= g.db.Objects[best].Cost
		T = T.Add(best)
	}
	if o := bestUnchosen(g.db, singles, T, budget); o >= 0 && singles[o] > gainSum {
		return model.NewSet(o), nil
	}
	return T, nil
}
