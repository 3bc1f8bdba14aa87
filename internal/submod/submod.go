// Package submod implements the submodular-optimization route to MinVar
// (§3.3, Theorem 3.7): under mutually independent values, EV(·) is
// monotone non-increasing and submodular (Lemmas 3.4/3.5), and choosing
// the complement — the objects NOT to clean — turns MinVar into minimizing
// a non-decreasing submodular function under a knapsack *lower bound*
// (Lemma 3.6). That problem is solved with the Iyer–Bilmes
// majorize–minimize scheme: iteratively replace the objective with a
// modular upper bound tight at the current set and solve the resulting
// min-knapsack exactly.
package submod

import (
	"errors"
	"math"

	"github.com/factcheck/cleansel/internal/knapsack"
	"github.com/factcheck/cleansel/internal/model"
)

// Func is a set function over the ground set {0..N−1}.
type Func struct {
	N    int
	Eval func(S model.Set) float64
}

// Marginal returns f(j | S) = f(S ∪ {j}) − f(S).
func Marginal(f Func, S model.Set, j int) float64 {
	return f.Eval(S.Add(j)) - f.Eval(S)
}

// MinimizeCover minimizes a non-decreasing submodular f subject to the
// covering constraint Σ_{i∈S} costs[i] ≥ lower, using majorize–minimize
// with the two standard modular upper bounds of the superdifferential
// (Iyer & Bilmes). Each round solves a min-knapsack exactly via MinDP.
//
// maxIters bounds the outer loop (each iteration strictly improves f or
// stops); precision is the cost-discretization grid of the inner DP.
func MinimizeCover(f Func, costs []float64, lower float64, maxIters int, precision float64) (model.Set, float64, error) {
	if len(costs) != f.N {
		return nil, 0, errors.New("submod: costs length mismatch")
	}
	if maxIters <= 0 {
		maxIters = 12
	}
	full := model.Set(nil).Complement(f.N)
	var totalCost float64
	for _, c := range costs {
		totalCost += c
	}
	if lower > totalCost+1e-9 {
		return nil, 0, errors.New("submod: covering requirement exceeds total cost")
	}
	// Two starts: the full set (always feasible) and the greedy cover —
	// majorize–minimize only descends, so a good start matters on
	// high-curvature instances.
	best := full.Clone()
	bestVal := f.Eval(best)
	greedyS, greedyV := GreedyCover(f, costs, lower)
	if setCost(greedyS, costs) >= lower-1e-9 && greedyV < bestVal {
		best, bestVal = greedyS, greedyV
	}

	for _, start := range []model.Set{full.Clone(), greedyS} {
		cur := start
		curVal := f.Eval(cur)
		for iter := 0; iter < maxIters; iter++ {
			improved := false
			for _, bound := range []int{1, 2} {
				w := modularUpperBound(f, cur, bound)
				res, err := knapsack.MinDP(w, costs, lower, precision)
				if err != nil {
					continue
				}
				cand := model.NewSet(res.Indices...)
				if setCost(cand, costs) < lower-1e-9 {
					continue
				}
				v := f.Eval(cand)
				if v < bestVal-1e-12 {
					best, bestVal = cand, v
				}
				if v < curVal-1e-12 {
					cur, curVal = cand, v
					improved = true
				}
			}
			if !improved {
				break
			}
		}
	}
	return best, bestVal, nil
}

// modularUpperBound returns per-element weights w such that
// m(Y) = const + Σ_{j∈Y} w_j upper-bounds f(Y) and is tight at X. Since
// the constant does not affect the argmin, only the weights are returned.
//
// Bound 1: w_j = f(j | X∖{j}) for j ∈ X, f(j | ∅) for j ∉ X.
// Bound 2: w_j = f(j | V∖{j}) for j ∈ X, f(j | X) for j ∉ X.
//
// For non-decreasing f all weights are ≥ 0 (tiny negatives from round-off
// are clamped).
func modularUpperBound(f Func, X model.Set, bound int) []float64 {
	w := make([]float64, f.N)
	full := model.Set(nil).Complement(f.N)
	fX := f.Eval(X)
	fFull := f.Eval(full)
	for j := 0; j < f.N; j++ {
		var g float64
		if X.Has(j) {
			if bound == 1 {
				g = fX - f.Eval(X.Minus(model.NewSet(j)))
			} else {
				g = fFull - f.Eval(full.Minus(model.NewSet(j)))
			}
		} else {
			if bound == 1 {
				g = Marginal(f, nil, j)
			} else {
				g = f.Eval(X.Add(j)) - fX
			}
		}
		if g < 0 {
			g = 0
		}
		w[j] = g
	}
	return w
}

// GreedyCover grows a covering set by repeatedly adding the element with
// the smallest marginal increase of f per unit of still-needed cost, until
// the constraint Σ c_i ≥ lower holds. MinimizeCover seeds its
// majorize–minimize iterations with it and keeps whichever cover is
// better.
func GreedyCover(f Func, costs []float64, lower float64) (model.Set, float64) {
	var S model.Set
	var covered float64
	fS := f.Eval(S)
	inS := make([]bool, f.N)
	for covered < lower-1e-9 {
		bestJ, bestScore, bestVal := -1, math.Inf(1), 0.0
		for j := 0; j < f.N; j++ {
			if inS[j] {
				continue
			}
			v := f.Eval(S.Add(j))
			gain := v - fS
			c := costs[j]
			if c <= 0 {
				c = 1e-12
			}
			score := gain / c
			if score < bestScore {
				bestJ, bestScore, bestVal = j, score, v
			}
		}
		if bestJ < 0 {
			break
		}
		S = S.Add(bestJ)
		inS[bestJ] = true
		covered += costs[bestJ]
		fS = bestVal
	}
	return S, fS
}

func setCost(S model.Set, costs []float64) float64 {
	var tot float64
	for _, i := range S {
		tot += costs[i]
	}
	return tot
}
