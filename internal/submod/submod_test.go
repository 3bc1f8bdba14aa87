package submod

import (
	"math"
	"testing"

	"github.com/factcheck/cleansel/internal/model"
	"github.com/factcheck/cleansel/internal/numeric"
	"github.com/factcheck/cleansel/internal/rng"
)

// modularFunc builds f(S) = Σ_{i∈S} w_i.
func modularFunc(w []float64) Func {
	return Func{
		N: len(w),
		Eval: func(S model.Set) float64 {
			var s float64
			for _, i := range S {
				s += w[i]
			}
			return s
		},
	}
}

// coverageFunc builds a non-decreasing submodular weighted-coverage
// function: elements cover random subsets of a universe with weights.
func coverageFunc(r *rng.RNG, n, universe int) Func {
	covers := make([][]int, n)
	for i := range covers {
		k := 1 + r.Intn(universe)
		covers[i] = r.SampleWithoutReplacement(0, universe-1, k)
	}
	weights := make([]float64, universe)
	for i := range weights {
		weights[i] = r.Float64() + 0.1
	}
	return Func{
		N: n,
		Eval: func(S model.Set) float64 {
			seen := make([]bool, universe)
			var v float64
			for _, i := range S {
				for _, u := range covers[i] {
					if !seen[u] {
						seen[u] = true
						v += weights[u]
					}
				}
			}
			return v
		},
	}
}

func bruteMinCover(f Func, costs []float64, lower float64) (model.Set, float64) {
	bestVal := math.Inf(1)
	var best model.Set
	for mask := 0; mask < 1<<f.N; mask++ {
		var S model.Set
		var c float64
		for i := 0; i < f.N; i++ {
			if mask&(1<<i) != 0 {
				S = append(S, i)
				c += costs[i]
			}
		}
		if c < lower-1e-9 {
			continue
		}
		if v := f.Eval(S); v < bestVal {
			bestVal, best = v, S
		}
	}
	return best, bestVal
}

func TestMarginal(t *testing.T) {
	f := modularFunc([]float64{1, 2, 4})
	if got := Marginal(f, model.NewSet(0), 2); got != 4 {
		t.Fatalf("marginal = %v, want 4", got)
	}
}

func TestMinimizeCoverModularExact(t *testing.T) {
	// With a modular objective the upper bound is tight everywhere, so the
	// first inner knapsack already returns the global optimum.
	r := rng.New(11)
	for trial := 0; trial < 30; trial++ {
		n := 2 + r.Intn(8)
		w := make([]float64, n)
		costs := make([]float64, n)
		var total float64
		for i := range w {
			w[i] = float64(r.IntRange(0, 20))
			costs[i] = float64(r.IntRange(1, 8))
			total += costs[i]
		}
		lower := r.Float64() * total
		f := modularFunc(w)
		got, gotVal, err := MinimizeCover(f, costs, lower, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		_, wantVal := bruteMinCover(f, costs, lower)
		if !numeric.AlmostEqual(gotVal, wantVal, 1e-9) {
			t.Fatalf("trial %d: MMin %v vs OPT %v", trial, gotVal, wantVal)
		}
		if setCost(got, costs) < lower-1e-9 {
			t.Fatalf("trial %d: infeasible result", trial)
		}
	}
}

func TestMinimizeCoverSubmodularNearOptimal(t *testing.T) {
	r := rng.New(13)
	worstRatio := 1.0
	for trial := 0; trial < 25; trial++ {
		n := 3 + r.Intn(6)
		f := coverageFunc(r, n, 6)
		costs := make([]float64, n)
		var total float64
		for i := range costs {
			costs[i] = float64(r.IntRange(1, 6))
			total += costs[i]
		}
		lower := (0.3 + 0.5*r.Float64()) * total
		got, gotVal, err := MinimizeCover(f, costs, lower, 10, 1)
		if err != nil {
			t.Fatal(err)
		}
		if setCost(got, costs) < lower-1e-9 {
			t.Fatalf("trial %d: infeasible", trial)
		}
		_, opt := bruteMinCover(f, costs, lower)
		if gotVal < opt-1e-9 {
			t.Fatalf("trial %d: better than OPT?! %v < %v", trial, gotVal, opt)
		}
		if opt > 0 {
			if ratio := gotVal / opt; ratio > worstRatio {
				worstRatio = ratio
			}
		}
	}
	// MMin carries a curvature-dependent guarantee, not a constant one;
	// with the greedy-seeded restart it stays close to optimal on these
	// instances. Treat a blow-up as a regression.
	if worstRatio > 2.0 {
		t.Fatalf("MMin ratio degraded: worst %v", worstRatio)
	}
}

func TestMinimizeCoverInfeasible(t *testing.T) {
	f := modularFunc([]float64{1, 1})
	if _, _, err := MinimizeCover(f, []float64{1, 1}, 5, 4, 1); err == nil {
		t.Fatal("infeasible covering accepted")
	}
	if _, _, err := MinimizeCover(f, []float64{1}, 1, 4, 1); err == nil {
		t.Fatal("cost length mismatch accepted")
	}
}

func TestGreedyCover(t *testing.T) {
	r := rng.New(17)
	for trial := 0; trial < 30; trial++ {
		n := 3 + r.Intn(6)
		f := coverageFunc(r, n, 5)
		costs := make([]float64, n)
		var total float64
		for i := range costs {
			costs[i] = float64(r.IntRange(1, 5))
			total += costs[i]
		}
		lower := 0.5 * total
		S, v := GreedyCover(f, costs, lower)
		if setCost(S, costs) < lower-1e-9 {
			t.Fatalf("trial %d: greedy cover infeasible", trial)
		}
		if v != f.Eval(S) {
			t.Fatalf("trial %d: returned value stale", trial)
		}
	}
}
