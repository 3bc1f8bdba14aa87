package core

import (
	"context"
	"math"

	"github.com/factcheck/cleansel/internal/model"
)

// round is a Greedy's side of Algorithm 1. score sets the gain of
// adding each candidate to T (and the objective after, where the round
// has it), in cands order, in round 1 (T = ∅: a round builds its state
// there) and after every pick, even with no candidate. commit adds e.obj
// to the round's state and reports the gains it made stale: all, the
// listed objects', or (nil, false) none. Both pass on total, the gain
// from ∅ to T, as the round keeps it (maxprRound's is P(T) itself).
type round interface {
	score(ctx context.Context, T model.Set, total float64, cands []entry) (float64, error)
	commit(e entry, total float64) (newTotal float64, stale []int, all bool)
}

// Greedy is Algorithm 1: the one selector type of every greedy
// constructor, which sets its name, its database, its zero-gain floor
// (gainFloor for MaxPr, 0 otherwise) and newRound. Every solve runs
// greedy over the round newRound gives it, a fresh one wherever a round
// keeps state, so concurrent solves of one selector (a budget sweep)
// share nothing a solve writes.
type Greedy struct {
	name     string
	db       *model.DB
	floor    float64
	newRound func() round
}

// Name implements Selector.
func (g *Greedy) Name() string { return g.name }

// Select implements Selector.
func (g *Greedy) Select(budget float64) (model.Set, error) {
	return g.SelectContext(context.Background(), budget)
}

// SelectContext implements ContextSelector: greedy checks the context
// before every pick, and a round while it scores, so a timed-out solve
// stops promptly.
func (g *Greedy) SelectContext(ctx context.Context, budget float64) (model.Set, error) {
	return greedy(ctx, g.db, budget, g.floor, g.newRound())
}

// shared is the newRound of a round that keeps no state between picks
// (benefits, maxprRound): every solve gets r itself.
func shared(r round) func() round { return func() round { return r } }

// entry is one scored candidate; ver versions its gain on a lazy queue.
type entry struct {
	obj, ver           int
	gain, after, ratio float64
}

// Ahead is Algorithm 1's order: ratio r of object o ranks ahead of ratio
// r2 of object o2 when it is larger, or equal with the lower id.
// RankObjects and GreedyNaiveCostBlind sort by it too.
func Ahead(r float64, o int, r2 float64, o2 int) bool {
	if r != r2 {
		return r > r2
	}
	return o < o2
}

// clears is the zero-gain rule: a gain is worth budget when positive and,
// under a floor above 0 (MaxPr's gainFloor; MinVar's is 0), above
// floor·level, level being the larger probability on either side.
func clears(gain, floor, level float64) bool {
	return gain > 0 && (floor == 0 || gain > floor*level)
}

// greedy is Algorithm 1's loop, run by Greedy.SelectContext. It owns
// the budget filter (FitsBudget), the zero-gain rule (clears), the ratio,
// the order (Ahead) and the final single-item check. Round 1 scores every
// object the budget affords, in ascending id, into a priority queue and
// the final check's singles. The loop pops the best entry, skips it when
// chosen, superseded or unaffordable (for good: the budget only shrinks),
// else buys it and rescores what the commit made stale: listed objects
// are pushed again as new versions, or, when all gains are stale, the
// queue is rebuilt from the affordable objects outside T.
func greedy(ctx context.Context, db *model.DB, budget, floor float64, r round) (model.Set, error) {
	if err := ValidateBudget(budget); err != nil {
		return nil, err
	}
	var T model.Set
	var stale, version []int
	var all bool
	remaining, total := budget, 0.0
	affordable := func(q queue) queue {
		for o := range db.Objects {
			if !T.Has(o) && FitsBudget(0, db.Objects[o].Cost, remaining) {
				q = append(q, entry{obj: o})
			}
		}
		return q
	}
	// rescore scores q[from:] and keeps those that clear, with ratios.
	rescore := func(q queue, from int) (queue, error) {
		var err error
		if total, err = r.score(ctx, T, total, q[from:]); err != nil {
			return nil, err
		}
		kept := q[:from]
		for _, e := range q[from:] {
			if clears(e.gain, floor, math.Max(e.after, total)) {
				e.ratio = Ratio(e.gain, db.Objects[e.obj].Cost)
				kept = append(kept, e)
			}
		}
		return kept, nil
	}
	// One allocation: the queue in n slots (a lazy queue that outgrows
	// them moves out), round 1's entries after it.
	n := db.N()
	buf := make([]entry, 2*n)
	q, err := rescore(affordable(buf[:0:n]), 0)
	if err != nil {
		return nil, err
	}
	singles := buf[n : n+copy(buf[n:], q)]
	q.init()
	for len(q) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, context.Cause(ctx)
		}
		e := q.pop()
		c := db.Objects[e.obj].Cost
		if T.Has(e.obj) || version != nil && e.ver != version[e.obj] || !FitsBudget(0, c, remaining) {
			continue
		}
		T, remaining = T.Add(e.obj), remaining-c
		if total, stale, all = r.commit(e, total); all {
			if q, err = rescore(affordable(q[:0]), 0); err != nil {
				return nil, err
			}
			q.init()
			continue
		}
		if version == nil && len(stale) > 0 {
			version = make([]int, n)
		}
		from := len(q)
		for _, a := range stale {
			if !T.Has(a) && FitsBudget(0, db.Objects[a].Cost, remaining) {
				version[a]++
				q = append(q, entry{obj: a, ver: version[a]})
			}
		}
		if q, err = rescore(q, from); err != nil {
			return nil, err
		}
		for i := from; i < len(q); i++ {
			q[:i+1].up(i) // as if pushed one at a time
		}
	}
	// Final check (Algorithm 1 lines 5–8): the best single outside T
	// replaces T when its gain alone clears T's.
	best := -1
	for i, e := range singles {
		if !T.Has(e.obj) && (best < 0 || Ahead(e.ratio, e.obj, singles[best].ratio, singles[best].obj)) {
			best = i
		}
	}
	if best >= 0 && clears(singles[best].gain-total, floor, math.Max(singles[best].gain, total)) {
		return model.NewSet(singles[best].obj), nil
	}
	return T, nil
}

// queue is a binary heap of entries, best first by Ahead, typed so no
// solve boxes an entry or moves the queue to the heap.
type queue []entry

func (q queue) less(i, j int) bool { return Ahead(q[i].ratio, q[i].obj, q[j].ratio, q[j].obj) }

func (q queue) up(i int) {
	for p := (i - 1) / 2; i > 0 && q.less(i, p); i, p = p, (p-1)/2 {
		q[i], q[p] = q[p], q[i]
	}
}

func (q queue) down(i int) {
	for c := 2*i + 1; c < len(q); i, c = c, 2*c+1 {
		if c+1 < len(q) && q.less(c+1, c) {
			c++
		}
		if !q.less(c, i) {
			return
		}
		q[i], q[c] = q[c], q[i]
	}
}

func (q queue) init() {
	for i := len(q)/2 - 1; i >= 0; i-- {
		q.down(i)
	}
}

func (q *queue) pop() entry {
	h := *q
	top, n := h[0], len(h)-1
	h[0], *q = h[n], h[:n]
	q.down(0)
	return top
}

// NextAdaptiveStep is greedy's one-round form, the decide-step of the
// adaptive cleaning loop (session.Stepper): one allocation-free pass in
// ascending id, where a candidate is Ahead of the best so far exactly
// when its ratio is larger, consulting benefit once for each uncleaned
// object the remaining budget affords. It returns greedy's pick with its
// benefit and ratio, or best = -1 when no gain clears the rule.
func NextAdaptiveStep(costs []float64, cleaned []bool, remaining float64,
	benefit func(o int) float64) (best int, bestB, bestR float64) {
	best = -1
	for o, c := range costs {
		if cleaned[o] || !FitsBudget(0, c, remaining) {
			continue
		}
		if b := benefit(o); clears(b, 0, 0) {
			if r := Ratio(b, c); best < 0 || r > bestR {
				best, bestB, bestR = o, b, r
			}
		}
	}
	return best, bestB, bestR
}
