package core

import (
	"context"
	"errors"
	"math"

	"github.com/factcheck/cleansel/internal/maxpr"
	"github.com/factcheck/cleansel/internal/model"
)

// GreedyMaxPr is Algorithm 1 with benefits taken from the MaxPr objective:
// β(o) = P(T ∪ {o}) − P(T). Unlike MinVar the objective is not monotone —
// cleaning a value can *reduce* the chance of finding a counterargument by
// adding noise — so the greedy stops as soon as no candidate improves the
// probability. That refusal to spend more budget is exactly the flat tail
// of Figure 12(b).
//
// When the evaluator is a maxpr.ExtensionScorer, each round convolves the
// drop law of T once and reads every candidate's gain off it; a candidate
// the scorer cannot cover, and every candidate of any other evaluator, is
// scored by evaluating P(T ∪ {o}) on its own, in id order. Both routes
// refuse gains below gainFloor, so they choose the same sets.
type GreedyMaxPr struct {
	db   *model.DB
	eval maxpr.Evaluator
}

// gainFloor is the relative size below which a gain is rounding, not
// improvement: a candidate is worth budget only when P(T ∪ {o}) − P(T)
// exceeds gainFloor·max(P(T ∪ {o}), P(T)). Without it the greedy can
// spend budget on a 1-ulp difference between two orders of summing the
// same probability, and then which set it returns depends on how the gain
// was computed rather than on the data.
const gainFloor = 1e-12

// worthBuying reports whether moving the objective from cur to p, a gain
// of gain = p − cur, clears gainFloor.
func worthBuying(gain, p, cur float64) bool {
	return gain > gainFloor*math.Max(p, cur)
}

// NewGreedyMaxPr builds the selector around any MaxPr evaluator.
func NewGreedyMaxPr(db *model.DB, eval maxpr.Evaluator) (*GreedyMaxPr, error) {
	if db == nil {
		return nil, errNilDB
	}
	if eval == nil {
		return nil, errors.New("core: nil MaxPr evaluator")
	}
	return &GreedyMaxPr{db: db, eval: eval}, nil
}

// Name implements Selector.
func (g *GreedyMaxPr) Name() string { return "GreedyMaxPr" }

// Select implements Selector.
func (g *GreedyMaxPr) Select(budget float64) (model.Set, error) {
	return g.SelectContext(context.Background(), budget)
}

// SelectContext implements ContextSelector, checking the context before
// each candidate is scored.
func (g *GreedyMaxPr) SelectContext(ctx context.Context, budget float64) (model.Set, error) {
	if err := validateBudget(budget); err != nil {
		return nil, err
	}
	scorer, _ := g.eval.(maxpr.ExtensionScorer)
	n := g.db.N()
	var T model.Set
	remaining := budget
	cur := 0.0 // P(T); P(∅) = 0 by definition
	// singles[o] = P({o}), filled in the first round (T = ∅), whose
	// candidates are exactly the affordable objects the final single-item
	// check may return.
	singles := make([]float64, n)
	for {
		var x *maxpr.Extensions
		built := false // x is built lazily: a round with no affordable candidate convolves nothing
		best, bestR, bestP := -1, 0.0, cur
		for o := 0; o < n; o++ {
			if T.Has(o) || !fitsBudget(0, g.db.Objects[o].Cost, remaining) {
				continue
			}
			if err := ctx.Err(); err != nil {
				return nil, context.Cause(ctx)
			}
			if !built && scorer != nil {
				built = true
				if x = scorer.Extensions(T); x != nil {
					cur = x.Prob() // exact, where the last pick left a sum of scored gains
				}
			}
			gain, ok := x.Gain(o)
			p := cur + gain
			if !ok {
				p = g.eval.Prob(T.Add(o))
				gain = p - cur
			}
			if len(T) == 0 && p > 0 {
				singles[o] = p
			}
			if !worthBuying(gain, p, cur) {
				continue
			}
			if r := ratio(gain, g.db.Objects[o].Cost); r > bestR {
				best, bestR, bestP = o, r, p
			}
		}
		if best < 0 {
			break
		}
		T = T.Add(best)
		remaining -= g.db.Objects[best].Cost
		cur = bestP
	}
	// Final check: a single object can beat the whole greedy set because
	// P is not additive. Its advantage is a gain like any other, so it
	// must clear the same floor.
	if o := bestUnchosen(g.db, singles, T, budget); o >= 0 && worthBuying(singles[o]-cur, singles[o], cur) {
		return model.NewSet(o), nil
	}
	return T, nil
}
