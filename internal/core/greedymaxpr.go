package core

import (
	"context"
	"errors"

	"github.com/factcheck/cleansel/internal/maxpr"
	"github.com/factcheck/cleansel/internal/model"
)

// gainFloor is the relative size below which a gain is rounding, not
// improvement (see clears), for candidates and the final check alike.
// Without it the greedy can spend budget on a 1-ulp difference between
// two orders of summing one probability, and then its set depends on
// how the gain was computed rather than on the data.
const gainFloor = 1e-12

// NewGreedyMaxPr builds GreedyMaxPr around any MaxPr evaluator: Algorithm
// 1 with benefits taken from the MaxPr objective, β(o) = P(T ∪ {o}) − P(T).
// Unlike MinVar the objective is not monotone — cleaning a value can
// *reduce* the chance of finding a counterargument by adding noise — so
// the greedy stops as soon as no candidate improves the probability. That
// refusal to spend more budget is exactly the flat tail of Figure 12(b).
func NewGreedyMaxPr(db *model.DB, eval maxpr.Evaluator) (*Greedy, error) {
	if db == nil {
		return nil, errNilDB
	}
	if eval == nil {
		return nil, errors.New("core: nil MaxPr evaluator")
	}
	return &Greedy{name: "GreedyMaxPr", db: db, floor: gainFloor, newRound: shared(maxprRound{eval: eval})}, nil
}

// maxprRound is GreedyMaxPr's round, whose total is P(T) (P(∅) = 0).
type maxprRound struct {
	eval maxpr.Evaluator
}

// score checks the context before each candidate. With a
// maxpr.ExtensionScorer it convolves T's drop law once, at the first
// candidate, and reads P(T) exactly and every gain off it; any other
// candidate costs one Prob(T ∪ {o}), in the loop's order. With the
// floor, both routes choose the same sets.
func (r maxprRound) score(ctx context.Context, T model.Set, cur float64, cands []entry) (float64, error) {
	scorer, _ := r.eval.(maxpr.ExtensionScorer)
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
			p = r.eval.Prob(T.Add(o))
			gain = p - cur
		}
		cands[i].gain, cands[i].after = gain, p
	}
	return cur, nil
}

// commit makes every gain stale: P is not submodular, so the loop
// rescores every candidate each round.
func (maxprRound) commit(e entry, _ float64) (float64, []int, bool) {
	return e.after, nil, true
}
