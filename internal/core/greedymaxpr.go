package core

import (
	"context"
	"errors"

	"github.com/factcheck/cleansel/internal/maxpr"
	"github.com/factcheck/cleansel/internal/model"
)

// GreedyMaxPr is Algorithm 1 with benefits taken from the MaxPr objective:
// β(o) = P(T ∪ {o}) − P(T). Unlike MinVar the objective is not monotone —
// cleaning a value can *reduce* the chance of finding a counterargument by
// adding noise — so the greedy stops as soon as no candidate improves the
// probability. That refusal to spend more budget is exactly the flat tail
// of Figure 12(b).
type GreedyMaxPr struct {
	db   *model.DB
	eval maxpr.Evaluator
}

// gainFloor is the relative size below which a gain is rounding, not
// improvement (see clears), for candidates and the final check alike.
// Without it the greedy can spend budget on a 1-ulp difference between
// two orders of summing one probability, and then its set depends on
// how the gain was computed rather than on the data.
const gainFloor = 1e-12

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
	return greedy(ctx, g.db, budget, gainFloor, g)
}

// score is GreedyMaxPr's round, whose total is P(T) (P(∅) = 0). With a
// maxpr.ExtensionScorer it convolves T's drop law once, at the first
// candidate, and reads P(T) exactly and every gain off it; any other
// candidate costs one Prob(T ∪ {o}), in the loop's order. With the
// floor, both routes choose the same sets.
func (g *GreedyMaxPr) score(ctx context.Context, T model.Set, cur float64, cands []entry) (float64, error) {
	scorer, _ := g.eval.(maxpr.ExtensionScorer)
	var x *maxpr.Extensions
	for i := range cands {
		if err := ctx.Err(); err != nil {
			return 0, context.Cause(ctx)
		}
		if i == 0 && scorer != nil {
			if x = scorer.Extensions(T); x != nil {
				cur = x.Prob()
			}
		}
		o := cands[i].obj
		gain, ok := x.Gain(o)
		p := cur + gain
		if !ok {
			p = g.eval.Prob(T.Add(o))
			gain = p - cur
		}
		cands[i].gain, cands[i].after = gain, p
	}
	return cur, nil
}

// commit makes every gain stale: P is not submodular, so the loop
// rescores every candidate each round.
func (g *GreedyMaxPr) commit(e entry, _ float64) (float64, []int, bool) {
	return e.after, nil, true
}
