package knapsack

import (
	"errors"
	"math"
	"slices"
	"testing"

	"github.com/factcheck/cleansel/internal/rng"
)

// bruteMax solves max-knapsack exactly by enumeration (n <= ~20).
func bruteMax(values, costs []float64, budget float64) float64 {
	n := len(values)
	best := 0.0
	for mask := 0; mask < 1<<n; mask++ {
		var v, c float64
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				v += values[i]
				c += costs[i]
			}
		}
		if c <= budget+1e-9 && v > best {
			best = v
		}
	}
	return best
}

// bruteMin solves the covering knapsack exactly by enumeration.
func bruteMin(values, costs []float64, lower float64) (float64, bool) {
	n := len(values)
	best, found := math.Inf(1), false
	for mask := 0; mask < 1<<n; mask++ {
		var v, c float64
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				v += values[i]
				c += costs[i]
			}
		}
		if c >= lower-1e-9 && v < best {
			best, found = v, true
		}
	}
	return best, found
}

func randInstance(r *rng.RNG, n int) (values, costs []float64) {
	values = make([]float64, n)
	costs = make([]float64, n)
	for i := 0; i < n; i++ {
		values[i] = float64(r.IntRange(0, 30))
		costs[i] = float64(r.IntRange(1, 12))
	}
	return values, costs
}

func TestMaxDPAgainstBruteForce(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 60; trial++ {
		n := 1 + r.Intn(10)
		values, costs := randInstance(r, n)
		budget := float64(r.IntRange(0, 40))
		res, err := MaxDP(values, costs, budget, 1)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteMax(values, costs, budget); res.Value != want {
			t.Fatalf("trial %d: DP %v vs brute %v", trial, res.Value, want)
		}
		if res.Cost > budget+1e-9 {
			t.Fatalf("trial %d: over budget: %v > %v", trial, res.Cost, budget)
		}
		// Reconstruction must reproduce the claimed value.
		var v float64
		for _, i := range res.Indices {
			v += values[i]
		}
		if v != res.Value {
			t.Fatalf("trial %d: indices sum %v != value %v", trial, v, res.Value)
		}
	}
}

func TestMinDPAgainstBruteForce(t *testing.T) {
	r := rng.New(2)
	for trial := 0; trial < 60; trial++ {
		n := 1 + r.Intn(10)
		values, costs := randInstance(r, n)
		var total float64
		for _, c := range costs {
			total += c
		}
		lower := r.Float64() * total
		res, err := MinDP(values, costs, lower, 1)
		want, feasible := bruteMin(values, costs, lower)
		if !feasible {
			if err == nil {
				t.Fatalf("trial %d: infeasible instance solved", trial)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Integer costs, so discretization is exact; values must match.
		if math.Abs(res.Value-want) > 1e-9 {
			t.Fatalf("trial %d: MinDP %v vs brute %v (lower %v, costs %v, values %v)",
				trial, res.Value, want, lower, costs, values)
		}
		if res.Cost < lower-1e-9 {
			t.Fatalf("trial %d: constraint violated: %v < %v", trial, res.Cost, lower)
		}
		var v float64
		for _, i := range res.Indices {
			v += values[i]
		}
		if math.Abs(v-res.Value) > 1e-9 {
			t.Fatalf("trial %d: reconstruction mismatch %v vs %v", trial, v, res.Value)
		}
	}
}

func TestMinDPTrivial(t *testing.T) {
	res, err := MinDP([]float64{5, 1}, []float64{3, 2}, 0, 1)
	if err != nil || len(res.Indices) != 0 || res.Value != 0 {
		t.Fatalf("zero requirement should pick nothing: %+v, %v", res, err)
	}
	if _, err := MinDP([]float64{1}, []float64{1}, 10, 1); err == nil {
		t.Fatal("infeasible requirement accepted")
	}
}

func TestValidation(t *testing.T) {
	if _, err := MaxDP([]float64{1}, []float64{1, 2}, 3, 1); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := MaxDP([]float64{-1}, []float64{1}, 3, 1); err == nil {
		t.Fatal("negative value accepted")
	}
	if _, err := MaxDP([]float64{1}, []float64{-1}, 3, 1); err == nil {
		t.Fatal("negative cost accepted")
	}
	if _, err := MaxDP([]float64{1}, []float64{1}, 3, 0); err == nil {
		t.Fatal("zero precision accepted")
	}
	if _, err := MinDP([]float64{1}, []float64{1}, 1, 0); err == nil {
		t.Fatal("zero precision accepted in MinDP")
	}
	if _, err := MaxDP([]float64{math.NaN()}, []float64{1}, 3, 1); err == nil {
		t.Fatal("NaN value accepted")
	}
}

func TestFractionalCostsPrecision(t *testing.T) {
	// Costs 1.5 and 1.4 with budget 2.9: at precision 0.1 both fit.
	res, err := MaxDP([]float64{3, 4}, []float64{1.5, 1.4}, 2.9, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 7 {
		t.Fatalf("precision scaling lost the optimum: %+v", res)
	}
	// At coarse precision 1 the ceil makes each cost 2: only one fits.
	res2, err := MaxDP([]float64{3, 4}, []float64{1.5, 1.4}, 2.9, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Value != 4 {
		t.Fatalf("coarse precision should be conservative: %+v", res2)
	}
}

func TestZeroCostItems(t *testing.T) {
	res, err := MaxDP([]float64{2, 5}, []float64{0, 3}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 2 {
		t.Fatalf("free item should always be taken: %+v", res)
	}
}

// TestMaxDPHugeBudgetAndCosts feeds budgets and costs whose scaled
// values overflow int or no table could hold: a budget past the total
// cost answers what the total cost answers, an item dearer than the
// budget is dropped, and a capacity past the table bound is an error.
func TestMaxDPHugeBudgetAndCosts(t *testing.T) {
	values, costs := []float64{3, 0, 2}, []float64{1, 1, 1}
	want, err := MaxDP(values, costs, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []float64{1e16, 1e300, math.Inf(1)} {
		got, err := MaxDP(values, costs, budget, 1)
		if err != nil || !slices.Equal(got.Indices, want.Indices) || got.Value != want.Value {
			t.Errorf("budget %v: %+v, %v; want %+v", budget, got, err, want)
		}
	}
	got, err := MaxDP([]float64{3, 5, 2}, []float64{1, 1e300, 1}, 5, 1)
	if err != nil || !slices.Equal(got.Indices, []int{0, 2}) {
		t.Errorf("cost 1e300: %+v, %v; want items [0 2]", got, err)
	}
	if _, err := MaxDP(values, []float64{1e10, 1e10, 1e10}, 1e16, 1); err == nil {
		t.Error("a 3 × 3e10 table was allocated")
	}
	if _, err := MaxDP(values, costs, math.NaN(), 1); err == nil {
		t.Error("a NaN budget solved")
	}
}

// TestMinDPHugeCosts feeds covering requirements no table could hold:
// an infeasible one is an error before anything is allocated, a
// feasible one past the table bound is an error, and an item covering
// far more than the requirement counts as covering it.
func TestMinDPHugeCosts(t *testing.T) {
	if _, err := MinDP([]float64{1}, []float64{1e17}, 1e18, 1); !errors.Is(err, errInfeasible) {
		t.Errorf("requirement 1e18 over coverage 1e17: %v, want errInfeasible", err)
	}
	if _, err := MinDP([]float64{1, 2}, []float64{1e17, 1e17}, 1e17, 1); err == nil {
		t.Error("a 3 × 1e17 table was allocated")
	}
	got, err := MinDP([]float64{5, 1, 4}, []float64{1e300, 2, 1}, 2, 1)
	if err != nil || !slices.Equal(got.Indices, []int{1}) || got.Value != 1 {
		t.Errorf("coverage 1e300: %+v, %v; want item [1] at value 1", got, err)
	}
}
