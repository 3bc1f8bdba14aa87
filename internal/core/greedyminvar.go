package core

import (
	"context"

	"github.com/factcheck/cleansel/internal/ev"
	"github.com/factcheck/cleansel/internal/model"
	"github.com/factcheck/cleansel/internal/query"
)

// NewGreedyMinVarModular builds GreedyMinVar for affine query functions
// with uncorrelated errors: the benefit of cleaning o is exactly
// w_o = a_o²·Var[X_o] (Lemma 3.1), so the benefits are static and the
// algorithm is the 2-approximate knapsack greedy.
func NewGreedyMinVarModular(db *model.DB, f *query.Affine) (*Greedy, error) {
	if db == nil {
		return nil, errNilDB
	}
	eng, err := ev.NewModular(db, f)
	if err != nil {
		return nil, err
	}
	return &Greedy{name: "GreedyMinVar", db: db, newRound: shared(benefits(eng.Weights()))}, nil
}

// NewGreedyMinVarGroup builds GreedyMinVar for decomposed (GroupSum)
// query functions over independent discrete values: benefits are the
// exact objective deltas of the group engine, maintained incrementally.
// Cleaning an object changes only the benefits of objects sharing a term
// or pair with it (State.Affected), so only those are refreshed on
// greedy's lazy queue: near-linear work on disjoint-window workloads
// (Figure 10).
func NewGreedyMinVarGroup(db *model.DB, g *query.GroupSum) (*Greedy, error) {
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
// engine, which must have been built over db. Each solve's State writes
// every value it computes through to the engine's memo, so evaluating EV
// on the same engine afterwards (a caller's Before/After) reads those
// values instead of enumerating them again.
func NewGreedyMinVarGroupEngine(db *model.DB, engine *ev.GroupEngine) (*Greedy, error) {
	if db == nil {
		return nil, errNilDB
	}
	if engine == nil {
		return nil, errNilEngine
	}
	return &Greedy{name: "GreedyMinVar", db: db, newRound: func() round { return &groupRound{engine: engine} }}, nil
}

// groupRound is the group engine's round, one per solve. Round 1 builds
// the State and reads the singleton benefits NewStateCtx returns with
// it, on the parallel worker pool. A refresh is one DeltasCtx, which
// walks each affected term once for all of its live objects and returns
// the deltas in Affected order, so the queue is the same at every worker
// count.
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

// NewGreedyEngine builds the generic adaptive GreedyMinVar over any EV
// engine: each round re-evaluates the benefit EV(T) − EV(T ∪ {o}) for
// every affordable candidate (the O(n²·γ) form discussed in §3.1). It
// also serves as GreedyDep when given the Schur-complement MVN engine.
func NewGreedyEngine(name string, db *model.DB, engine ev.Engine) (*Greedy, error) {
	if db == nil {
		return nil, errNilDB
	}
	if engine == nil {
		return nil, errNilEngine
	}
	return &Greedy{name: name, db: db, newRound: func() round { return &engineRound{engine: engine} }}, nil
}

// NewGreedyDep builds the dependency-aware greedy of §4.5: benefits are
// exact conditional-variance reductions under the full covariance model.
func NewGreedyDep(db *model.DB, f *query.Affine) (*Greedy, error) {
	engine, err := ev.NewMVN(db, f)
	if err != nil {
		return nil, err
	}
	return NewGreedyEngine("GreedyDep", db, engine)
}

// engineRound scores each candidate by a full solve, EV(T) − EV(T ∪ {o}),
// checking the context between solves (each is the expensive unit of
// this greedy), and a commit makes every gain stale. Round 1 evaluates
// EV(∅) first; cur is the solve's own EV(T).
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
