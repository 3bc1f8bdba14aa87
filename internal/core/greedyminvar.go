package core

import (
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
	return g.SelectContext(context.Background(), budget)
}

// SelectContext implements ContextSelector.
func (g *GreedyMinVarModular) SelectContext(ctx context.Context, budget float64) (model.Set, error) {
	return greedy(ctx, g.db, budget, 0, benefits(g.weights))
}

// GreedyMinVarGroup is GreedyMinVar for decomposed (GroupSum) query
// functions over independent discrete values: benefits are the exact
// objective deltas of the group engine, maintained incrementally. Cleaning
// an object changes only the benefits of objects sharing a term or pair
// with it (State.Affected), so only those are refreshed on greedy's lazy
// queue: near-linear work on disjoint-window workloads (Figure 10).
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

// Select implements Selector.
func (g *GreedyMinVarGroup) Select(budget float64) (model.Set, error) {
	return g.SelectContext(context.Background(), budget)
}

// SelectContext implements ContextSelector: the initial benefit pass
// and each refresh run on the parallel worker pool, and the loop checks
// the context between cleans, so a timed-out solve stops promptly.
func (g *GreedyMinVarGroup) SelectContext(ctx context.Context, budget float64) (model.Set, error) {
	return greedy(ctx, g.db, budget, 0, &groupRound{engine: g.engine})
}

// groupRound is the group engine's round. Round 1 builds the State and
// reads the singleton benefits NewStateCtx returns with it. A refresh is
// one DeltasCtx, which walks each affected term once for all of its live
// objects and returns the deltas in Affected order, so the queue is the
// same at every worker count.
type groupRound struct {
	engine *ev.GroupEngine
	st     *ev.State
	objs   []int // DeltasCtx's argument, reused
}

func (g *groupRound) score(ctx context.Context, T model.Set, total float64, cands []entry) (float64, error) {
	if len(T) == 0 {
		st, singles, err := g.engine.NewStateCtx(ctx)
		if err != nil {
			return 0, err
		}
		g.st = st
		for i := range cands {
			cands[i].gain = singles[cands[i].obj]
		}
		return total, nil
	}
	g.objs = g.objs[:0]
	for _, e := range cands {
		g.objs = append(g.objs, e.obj)
	}
	deltas, err := g.st.DeltasCtx(ctx, g.objs)
	if err != nil {
		return 0, err
	}
	for i, d := range deltas {
		cands[i].gain = -d
	}
	return total, nil
}

func (g *groupRound) commit(e entry, total float64) (float64, []int, bool) {
	return total - g.st.Clean(e.obj), g.st.Affected(e.obj), false
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
	return greedy(ctx, g.db, budget, 0, &engineRound{engine: g.engine})
}

// engineRound scores each candidate by a full solve, EV(T) − EV(T ∪ {o}),
// and a commit makes every gain stale. Round 1 evaluates EV(∅) first.
type engineRound struct {
	engine ev.Engine
	cur    float64 // EV(T)
}

func (r *engineRound) score(ctx context.Context, T model.Set, total float64, cands []entry) (float64, error) {
	var err error
	if len(T) == 0 {
		if r.cur, err = ev.EVWithContext(ctx, r.engine, nil); err != nil {
			return 0, err
		}
	}
	for i := range cands {
		c := &cands[i]
		if c.after, err = ev.EVWithContext(ctx, r.engine, T.Add(c.obj)); err != nil {
			return 0, err
		}
		c.gain = r.cur - c.after
	}
	return total, nil
}

func (r *engineRound) commit(e entry, total float64) (float64, []int, bool) {
	r.cur = e.after
	return total + e.gain, nil, true
}
