// Package core implements the paper's primary contribution: the selection
// algorithms that decide which uncertain values to clean under a cost
// budget (§3). Every greedy selector is Algorithm 1, one type (Greedy)
// running one loop (greedy): pick the affordable object with the best
// benefit-per-cost, then apply the final best-single-item check that
// upgrades density greedy to a constant-factor approximation on modular
// objectives. A constructor supplies only the round that scores
// candidates; the last column says which gains a pick makes stale, and
// so what the loop rescores.
//
//	Random                → Random
//	GreedyNaiveCostBlind  → GreedyNaiveCostBlind
//	GreedyNaive           → NewGreedyNaive          none: static benefits
//	GreedyMinVar          → NewGreedyMinVarModular  none: static benefits
//	                        NewGreedyMinVarGroup    State.Affected: lazy queue
//	                        NewGreedyEngine         all: EV re-solved
//	GreedyMaxPr           → NewGreedyMaxPr          all: P not submodular
//	GreedyDep (§4.5)      → NewGreedyDep (NewGreedyEngine over the MVN engine)
//	adaptive decide-step  → NextAdaptiveStep (the loop's one-round form)
//	Optimum (knapsack DP) → Optimum
//	Best (Theorem 3.7)    → Best
//	OPT (exhaustive)      → OPT
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/factcheck/cleansel/internal/model"
	"github.com/factcheck/cleansel/internal/rng"
)

// Selector chooses a subset of objects to clean within a budget.
type Selector interface {
	// Name identifies the algorithm in experiment output.
	Name() string
	// Select returns the chosen subset; its cost never exceeds budget.
	Select(budget float64) (model.Set, error)
}

// ContextSelector is a Selector whose solve cooperates with context
// cancellation: SelectContext returns the context's error promptly
// (between benefit evaluations) once the context is done. The selected
// set of an uncancelled SelectContext equals Select's, bit for bit.
type ContextSelector interface {
	Selector
	SelectContext(ctx context.Context, budget float64) (model.Set, error)
}

// SelectWithContext runs sel under ctx: cancellation-aware selectors
// solve cooperatively; for plain selectors the context is checked once
// up front (their solves are the cheap sort-and-fill algorithms).
func SelectWithContext(ctx context.Context, sel Selector, budget float64) (model.Set, error) {
	if cs, ok := sel.(ContextSelector); ok {
		return cs.SelectContext(ctx, budget)
	}
	if err := ctx.Err(); err != nil {
		return nil, context.Cause(ctx)
	}
	return sel.Select(budget)
}

// FitsBudget is the budget filter: whether adding cost c to spent stays
// within budget, tolerating float round-off proportional to the budget's
// magnitude (sums accumulated in different orders may differ in the last
// bits, and the full-budget sweep point must still take every object).
// The session layer accepts a reveal exactly when it holds.
func FitsBudget(spent, c, budget float64) bool {
	return spent+c <= budget+1e-9*(1+math.Abs(budget))
}

// Ratio is benefit-per-unit-cost with the zero-cost convention of
// Algorithm 1: free objects with positive benefit come first.
func Ratio(benefit, cost float64) float64 {
	if cost == 0 {
		if benefit > 0 {
			return math.Inf(1)
		}
		return 0
	}
	return benefit / cost
}

// Random cleans objects in a uniformly random order, taking every object
// that still fits the remaining budget (§4.1 baseline). Use a fresh seed
// per run and average, as the experiments do.
type Random struct {
	DB   *model.DB
	Seed uint64
}

// Name implements Selector.
func (r *Random) Name() string { return "Random" }

// Select implements Selector.
func (r *Random) Select(budget float64) (model.Set, error) {
	return fill(r.DB, rng.New(r.Seed).Perm(r.DB.N()), budget)
}

// GreedyNaiveCostBlind cleans objects in descending order of marginal
// variance, ignoring costs entirely (§4.1 baseline). Objects outside Vars
// (when non-nil) are skipped — cleaning values the query never touches is
// pure waste.
type GreedyNaiveCostBlind struct {
	DB   *model.DB
	Vars []int // referenced objects; nil means all
}

// Name implements Selector.
func (g *GreedyNaiveCostBlind) Name() string { return "GreedyNaiveCostBlind" }

// Select implements Selector.
func (g *GreedyNaiveCostBlind) Select(budget float64) (model.Set, error) {
	v := func(o int) float64 { return g.DB.Objects[o].Value.Variance() }
	order := append([]int(nil), candidateList(g.DB, g.Vars)...)
	sort.SliceStable(order, func(a, b int) bool { return Ahead(v(order[a]), order[a], v(order[b]), order[b]) })
	return fill(g.DB, order, budget)
}

// fill checks the budget, then takes the objects in order, each one that
// still fits it.
func fill(db *model.DB, order []int, budget float64) (model.Set, error) {
	if err := ValidateBudget(budget); err != nil {
		return nil, err
	}
	var T model.Set
	spent := 0.0
	for _, o := range order {
		if c := db.Objects[o].Cost; FitsBudget(spent, c, budget) {
			T, spent = T.Add(o), spent+c
		}
	}
	return T, nil
}

// NewGreedyNaive builds Algorithm 1 with the naive benefit
// β(o) = Var[X_o] (§3.1): cost-aware but objective-blind. Objects outside
// vars (when non-nil; nil means all) are never cleaned.
func NewGreedyNaive(db *model.DB, vars []int) *Greedy {
	b := make(benefits, db.N())
	for _, o := range candidateList(db, vars) {
		b[o] = db.Objects[o].Value.Variance()
	}
	return &Greedy{name: "GreedyNaive", db: db, newRound: shared(b)}
}

// candidateList returns vars, or all object IDs when vars is nil.
func candidateList(db *model.DB, vars []int) []int {
	if vars != nil {
		return vars
	}
	all := make([]int, db.N())
	for i := range all {
		all[i] = i
	}
	return all
}

// benefits is the round of a benefit function that does not depend on
// the chosen set (NewGreedyNaive's variances, NewGreedyMinVarModular's
// weights): no commit makes a gain stale.
type benefits []float64

func (b benefits) score(_ context.Context, _ model.Set, total float64, cands []entry) (float64, error) {
	for i := range cands {
		cands[i].gain = b[cands[i].obj]
	}
	return total, nil
}

func (b benefits) commit(e entry, total float64) (float64, []int, bool) {
	return total + e.gain, nil, false
}

// ValidateBudget rejects NaN or negative budgets, for every selector.
func ValidateBudget(budget float64) error {
	if math.IsNaN(budget) || budget < 0 {
		return fmt.Errorf("core: invalid budget %v", budget)
	}
	return nil
}

// errNilDB and errNilEngine are shared by constructors.
var (
	errNilDB     = errors.New("core: nil database")
	errNilEngine = errors.New("core: nil engine")
)
