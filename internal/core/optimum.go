package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"github.com/factcheck/cleansel/internal/ev"
	"github.com/factcheck/cleansel/internal/knapsack"
	"github.com/factcheck/cleansel/internal/model"
	"github.com/factcheck/cleansel/internal/query"
	"github.com/factcheck/cleansel/internal/submod"
)

// Optimum solves modular MinVar/MaxPr instances exactly as a 0/1 knapsack
// with the pseudo-polynomial DP (Lemmas 3.2/3.3): weights w_o = a_o²·Var[X_o]
// (MinVar for affine claims) or a_o²·σ_o² (MaxPr for centered normals).
type Optimum struct {
	db      *model.DB
	weights []float64
}

// optimumPrecision is the DP's cost grid. Real-valued costs (the
// datasets draw them from continuous ranges) need a fine grid or the
// DP's ceil/floor rounding can lose the true optimum to the exact-cost
// greedy.
const optimumPrecision = 0.01

// NewOptimumModular builds the DP selector from an affine query function.
func NewOptimumModular(db *model.DB, f *query.Affine) (*Optimum, error) {
	if db == nil {
		return nil, errNilDB
	}
	eng, err := ev.NewModular(db, f)
	if err != nil {
		return nil, err
	}
	return &Optimum{db: db, weights: eng.Weights()}, nil
}

// Name implements Selector.
func (o *Optimum) Name() string { return "Optimum" }

// Select implements Selector.
func (o *Optimum) Select(budget float64) (model.Set, error) {
	if err := ValidateBudget(budget); err != nil {
		return nil, err
	}
	res, err := knapsack.MaxDP(o.weights, o.db.Costs(), budget, optimumPrecision)
	if err != nil {
		return nil, err
	}
	return model.NewSet(res.Indices...), nil
}

// Best is the Theorem 3.7 algorithm: MinVar as minimization of the
// non-decreasing submodular complement objective under a knapsack covering
// constraint, solved with the Iyer–Bilmes majorize–minimize scheme over
// exact min-knapsacks. EV evaluations are memoized — the inner loops
// revisit the same sets many times.
type Best struct {
	db     *model.DB
	engine ev.Engine
}

// bestPrecision and bestMaxIters are Best's min-knapsack cost grid and
// its cap on majorize–minimize iterations.
const (
	bestPrecision = 1
	bestMaxIters  = 12
)

// NewBest builds the selector over the group engine of a decomposed
// query function, which must have been built over db. Its EV
// evaluations write through to the engine's memo, so evaluating EV on
// the same engine afterwards (a caller's Before/After) reads them.
func NewBest(db *model.DB, engine *ev.GroupEngine) (*Best, error) {
	if db == nil {
		return nil, errNilDB
	}
	if engine == nil {
		return nil, errNilEngine
	}
	return &Best{db: db, engine: engine}, nil
}

// Name implements Selector.
func (b *Best) Name() string { return "Best" }

// Select implements Selector.
func (b *Best) Select(budget float64) (model.Set, error) {
	return b.SelectContext(context.Background(), budget)
}

// selectAborted carries a cancellation out of the majorize–minimize
// machinery, which has no error channel of its own: the EV closure
// panics with it and SelectContext recovers, so a done context
// surfaces at the next EV evaluation instead of letting MinimizeCover
// grind through its remaining iterations on a poisoned objective.
type selectAborted struct{ err error }

// SelectContext implements ContextSelector. The majorize–minimize
// iterations run through the engine's cancellable EV path, so a done
// context surfaces at the next EV evaluation.
func (b *Best) SelectContext(ctx context.Context, budget float64) (T model.Set, retErr error) {
	if err := ValidateBudget(budget); err != nil {
		return nil, err
	}
	defer func() {
		if r := recover(); r != nil {
			sa, ok := r.(selectAborted)
			if !ok {
				panic(r)
			}
			T, retErr = nil, sa.err
		}
	}()
	n := b.db.N()
	evMemo := memoizeSetFunc(func(S model.Set) float64 {
		v, err := ev.EVWithContext(ctx, b.engine, S)
		if err != nil {
			panic(selectAborted{err})
		}
		return v
	})
	// f̄(K) = EV(O \ K) over keep-dirty sets K; constraint c(K) ≥ C̄.
	fbar := submod.Func{
		N:    n,
		Eval: func(K model.Set) float64 { return evMemo(K.Complement(n)) },
	}
	costs := b.db.Costs()
	lower := b.db.TotalCost() - budget
	if lower < 0 {
		lower = 0
	}
	K, _, err := submod.MinimizeCover(fbar, costs, lower, bestMaxIters, bestPrecision)
	if err != nil {
		return nil, err
	}
	T = K.Complement(n)
	// Discretized min-knapsack can keep slightly too little; repair by
	// dropping the cheapest-benefit cleaned objects until feasible.
	for T.Cost(b.db) > budget+1e-9 && len(T) > 0 {
		worst, worstScore := -1, math.Inf(1)
		for _, o := range T {
			drop := T.Minus(model.NewSet(o))
			score := evMemo(drop) - evMemo(T) // EV increase from dropping o
			c := b.db.Objects[o].Cost
			if c <= 0 {
				c = 1e-12
			}
			if s := score / c; s < worstScore {
				worst, worstScore = o, s
			}
		}
		if worst < 0 {
			break
		}
		T = T.Minus(model.NewSet(worst))
	}
	return T, nil
}

// memoizeSetFunc caches a set function by the canonical key of its input.
func memoizeSetFunc(f func(model.Set) float64) func(model.Set) float64 {
	cache := map[string]float64{}
	return func(S model.Set) float64 {
		key := model.SetKey(S)
		if v, ok := cache[key]; ok {
			return v
		}
		v := f(S)
		cache[key] = v
		return v
	}
}

// OPT exhaustively enumerates all subsets within budget and returns the
// one with the best objective — the yardstick of §4.5. The ground set must
// be small (≤ MaxExhaustiveN objects).
type OPT struct {
	db        *model.DB
	objective func(model.Set) float64
	maximize  bool
	name      string
}

// MaxExhaustiveN caps exhaustive enumeration (2^22 subsets ≈ seconds).
const MaxExhaustiveN = 22

// NewOPT builds the exhaustive selector over an arbitrary set objective.
func NewOPT(name string, db *model.DB, objective func(model.Set) float64, maximize bool) (*OPT, error) {
	if db == nil {
		return nil, errNilDB
	}
	if db.N() > MaxExhaustiveN {
		return nil, fmt.Errorf("core: OPT limited to %d objects, got %d", MaxExhaustiveN, db.N())
	}
	if objective == nil {
		return nil, errors.New("core: nil objective")
	}
	return &OPT{db: db, objective: objective, maximize: maximize, name: name}, nil
}

// NewOPTMinVar builds the exhaustive MinVar yardstick over an EV engine.
func NewOPTMinVar(db *model.DB, engine ev.Engine) (*OPT, error) {
	return NewOPT("OPT", db, engine.EV, false)
}

// Name implements Selector.
func (o *OPT) Name() string { return o.name }

// Select implements Selector.
func (o *OPT) Select(budget float64) (model.Set, error) {
	if err := ValidateBudget(budget); err != nil {
		return nil, err
	}
	n := o.db.N()
	costs := o.db.Costs()
	bestVal := math.Inf(1)
	if o.maximize {
		bestVal = math.Inf(-1)
	}
	var best model.Set
	scratch := make(model.Set, 0, n)
	for mask := 0; mask < 1<<n; mask++ {
		var c float64
		scratch = scratch[:0]
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				c += costs[i]
				scratch = append(scratch, i)
			}
		}
		if c > budget+1e-9 {
			continue
		}
		v := o.objective(scratch)
		if (o.maximize && v > bestVal) || (!o.maximize && v < bestVal) {
			bestVal = v
			best = scratch.Clone()
		}
	}
	return best, nil
}
