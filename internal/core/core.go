// Package core implements the paper's primary contribution: the selection
// algorithms that decide which uncertain values to clean under a cost
// budget (§3). All greedy selectors instantiate Algorithm 1 — pick the
// affordable object with the best benefit-per-cost, then apply the final
// best-single-item check that upgrades density greedy to a constant-factor
// approximation on modular objectives.
//
// Selectors (paper name → type):
//
//	Random                → Random
//	GreedyNaiveCostBlind  → GreedyNaiveCostBlind
//	GreedyNaive           → GreedyNaive
//	GreedyMinVar          → GreedyMinVarModular / GreedyMinVarGroup / GreedyEngine
//	GreedyMaxPr           → GreedyMaxPr
//	Optimum (knapsack DP) → Optimum
//	Best (Theorem 3.7)    → Best
//	OPT (exhaustive)      → OPT
//	GreedyDep (§4.5)      → GreedyDep (= GreedyEngine over the MVN engine)
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

// fitsBudget reports whether adding cost c to spent stays within budget,
// tolerating float round-off proportional to the budget's magnitude (sums
// accumulated in different orders may differ in the last bits, and the
// full-budget sweep point must still take every object).
func fitsBudget(spent, c, budget float64) bool {
	return spent+c <= budget+1e-9*(1+math.Abs(budget))
}

// ratio is benefit-per-unit-cost with the zero-cost convention of
// Algorithm 1: free objects with positive benefit come first.
func ratio(benefit, cost float64) float64 {
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
	if err := validateBudget(budget); err != nil {
		return nil, err
	}
	gen := rng.New(r.Seed)
	perm := gen.Perm(r.DB.N())
	var T model.Set
	spent := 0.0
	for _, o := range perm {
		c := r.DB.Objects[o].Cost
		if fitsBudget(spent, c, budget) {
			T = T.Add(o)
			spent += c
		}
	}
	return T, nil
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
	if err := validateBudget(budget); err != nil {
		return nil, err
	}
	order := referencedOrder(g.DB, g.Vars, func(o int) float64 {
		return g.DB.Objects[o].Value.Variance()
	})
	var T model.Set
	spent := 0.0
	for _, o := range order {
		c := g.DB.Objects[o].Cost
		if fitsBudget(spent, c, budget) {
			T = T.Add(o)
			spent += c
		}
	}
	return T, nil
}

// GreedyNaive is Algorithm 1 with the naive benefit β(o) = Var[X_o]
// (§3.1): cost-aware but objective-blind.
type GreedyNaive struct {
	DB   *model.DB
	Vars []int // referenced objects; nil means all
}

// Name implements Selector.
func (g *GreedyNaive) Name() string { return "GreedyNaive" }

// Select implements Selector.
func (g *GreedyNaive) Select(budget float64) (model.Set, error) {
	if err := validateBudget(budget); err != nil {
		return nil, err
	}
	benefits := make([]float64, g.DB.N())
	for _, o := range candidateList(g.DB, g.Vars) {
		benefits[o] = g.DB.Objects[o].Value.Variance()
	}
	return staticGreedy(g.DB, benefits, budget), nil
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

// referencedOrder sorts the candidates by score descending (stable by id).
func referencedOrder(db *model.DB, vars []int, score func(o int) float64) []int {
	cand := append([]int(nil), candidateList(db, vars)...)
	sort.SliceStable(cand, func(a, b int) bool {
		sa, sb := score(cand[a]), score(cand[b])
		if sa != sb {
			return sa > sb
		}
		return cand[a] < cand[b]
	})
	return cand
}

// staticGreedy runs Algorithm 1 for a benefit function that does not
// depend on the chosen set: sort once by benefit/cost, fill the budget,
// then apply the final single-item check.
func staticGreedy(db *model.DB, benefits []float64, budget float64) model.Set {
	n := db.N()
	order := make([]int, 0, n)
	for o := 0; o < n; o++ {
		if benefits[o] > 0 {
			order = append(order, o)
		}
	}
	sort.SliceStable(order, func(a, b int) bool {
		ra := ratio(benefits[order[a]], db.Objects[order[a]].Cost)
		rb := ratio(benefits[order[b]], db.Objects[order[b]].Cost)
		if ra != rb {
			return ra > rb
		}
		return order[a] < order[b]
	})
	var T model.Set
	spent, gain := 0.0, 0.0
	for _, o := range order {
		c := db.Objects[o].Cost
		if fitsBudget(spent, c, budget) {
			T = T.Add(o)
			spent += c
			gain += benefits[o]
		}
	}
	// Final check (Algorithm 1 lines 5–8): the best affordable object not
	// in T, by ratio; replace T if its benefit alone beats the total.
	if o := bestUnchosen(db, benefits, T, budget); o >= 0 && benefits[o] > gain {
		return model.NewSet(o)
	}
	return T
}

// bestUnchosen returns the argmax of benefit/cost over affordable objects
// outside T, or −1.
func bestUnchosen(db *model.DB, benefits []float64, T model.Set, budget float64) int {
	best, bestR := -1, math.Inf(-1)
	for o := 0; o < db.N(); o++ {
		if T.Has(o) || !fitsBudget(0, db.Objects[o].Cost, budget) || benefits[o] <= 0 {
			continue
		}
		if r := ratio(benefits[o], db.Objects[o].Cost); r > bestR {
			best, bestR = o, r
		}
	}
	return best
}

// validateBudget rejects NaN or negative budgets.
func validateBudget(budget float64) error {
	if math.IsNaN(budget) || budget < 0 {
		return fmt.Errorf("core: invalid budget %v", budget)
	}
	return nil
}

// errNilDB is shared by constructors.
var errNilDB = errors.New("core: nil database")
