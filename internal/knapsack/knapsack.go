// Package knapsack implements the 0/1 knapsack solvers that the modular
// MinVar reduction of §3.2 and the submodular algorithm of §3.3 need:
//
//   - MaxDP — exact pseudo-polynomial maximization (Lemma 3.2's
//     "Optimum" baseline): max Σ v_i s.t. Σ c_i ≤ C.
//   - MinDP — exact pseudo-polynomial minimum-knapsack (covering) solver:
//     min Σ v_i s.t. Σ c_i ≥ C̄; the inner step of the submodular MinVar
//     algorithm (§3.3).
//
// Costs are arbitrary non-negative floats; both solvers discretize them at a
// configurable precision (costs in all paper workloads are integers, so
// precision 1 is exact there).
package knapsack

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

var errInfeasible = errors.New("knapsack: covering requirement infeasible")

// Result is a solved knapsack instance.
type Result struct {
	Indices []int   // chosen item indices, ascending
	Value   float64 // Σ value over chosen
	Cost    float64 // Σ cost over chosen
}

func validate(values, costs []float64) error {
	if len(values) != len(costs) {
		return fmt.Errorf("knapsack: %d values vs %d costs", len(values), len(costs))
	}
	for i, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("knapsack: invalid value %v at %d", v, i)
		}
		if c := costs[i]; math.IsNaN(c) || math.IsInf(c, 0) || c < 0 {
			return fmt.Errorf("knapsack: invalid cost %v at %d", c, i)
		}
	}
	return nil
}

// maxCells bounds the table either solver allocates, in cells (one
// item row by one capacity column each); past it they return an error
// instead of allocating.
const maxCells = 1 << 28

// checkCells returns an error when a table of rows × (cols + 1) cells,
// with cols a whole float, exceeds maxCells.
func checkCells(rows int, cols float64) error {
	if float64(rows)*(cols+1) > maxCells {
		return fmt.Errorf("knapsack: a %d × %.0f table exceeds %d cells", rows, cols+1, maxCells)
	}
	return nil
}

func sum(xs []float64, idx []int) float64 {
	var s float64
	for _, i := range idx {
		s += xs[i]
	}
	return s
}

// MaxDP solves max Σ v_i s.t. Σ c_i ≤ budget exactly (after cost
// discretization at precision: ceil for item costs — never understate
// what an item consumes — and floor for the budget — never allow more
// than the real budget). Time O(n·C), memory O(n·C) bits for
// reconstruction.
//
// The scaling runs in floats. Items that cost more than the capacity C
// are dropped, and C is capped at the sum S of the remaining items'
// scaled costs: at every capacity c ≥ S all of them fit, so the dp
// value and every take-or-skip decision of the reconstruction are those
// at S, and capping changes no answer.
func MaxDP(values, costs []float64, budget, precision float64) (Result, error) {
	if err := validate(values, costs); err != nil {
		return Result{}, err
	}
	if !(precision > 0) {
		return Result{}, errors.New("knapsack: precision must be positive")
	}
	if math.IsNaN(budget) {
		return Result{}, errors.New("knapsack: budget is NaN")
	}
	n := len(values)
	capacity := max(math.Floor(budget/precision+1e-9), 0)
	scaled := make([]float64, n)
	var fits float64
	for i, c := range costs {
		scaled[i] = math.Ceil(c/precision - 1e-9)
		if scaled[i] <= capacity {
			fits += scaled[i]
		}
	}
	capacity = min(capacity, fits)
	if err := checkCells(n, capacity); err != nil {
		return Result{}, err
	}
	C := int(capacity)
	ic := make([]int, n)
	for i, sc := range scaled {
		ic[i] = C + 1 // dropped: more than the capacity
		if sc <= capacity {
			ic[i] = int(sc)
		}
	}
	// dp[c] = best value with capacity c; keep[i][c] = item i taken at c.
	dp := make([]float64, C+1)
	keep := make([][]bool, n)
	for i := 0; i < n; i++ {
		keep[i] = make([]bool, C+1)
		ci, vi := ic[i], values[i]
		if ci > C {
			continue
		}
		for c := C; c >= ci; c-- {
			if cand := dp[c-ci] + vi; cand > dp[c] {
				dp[c] = cand
				keep[i][c] = true
			}
		}
	}
	// Reconstruct.
	res := Result{Value: dp[C]}
	c := C
	for i := n - 1; i >= 0; i-- {
		if keep[i][c] {
			res.Indices = append(res.Indices, i)
			c -= ic[i]
		}
	}
	sort.Ints(res.Indices)
	res.Cost = sum(costs, res.Indices)
	return res, nil
}

// MinDP solves the covering knapsack min Σ v_i s.t. Σ c_i ≥ lower exactly
// (after cost discretization: floor for item coverage — never overstate
// what an item covers — and ceil for the requirement).
func MinDP(values, costs []float64, lower, precision float64) (Result, error) {
	if err := validate(values, costs); err != nil {
		return Result{}, err
	}
	if !(precision > 0) {
		return Result{}, errors.New("knapsack: precision must be positive")
	}
	n := len(values)
	req := math.Ceil(lower/precision - 1e-9)
	if !(req > 0) {
		return Result{}, nil // empty set covers a non-positive requirement
	}
	// Coverage past the requirement counts like the requirement itself
	// (a taken item leaves max(0, j − c_i)), so capping it changes no
	// cell; all items together cover the most, so the requirement is
	// feasible exactly when their capped coverage reaches it.
	covers := make([]float64, n)
	var total float64
	for i, c := range costs {
		covers[i] = min(math.Floor(c/precision+1e-9), req)
		total += covers[i]
	}
	if total < req {
		return Result{}, errInfeasible
	}
	if err := checkCells(n+1, req); err != nil {
		return Result{}, err
	}
	L := int(req)
	ic := make([]int, n)
	for i, c := range covers {
		ic[i] = int(c)
	}
	const inf = math.MaxFloat64 / 4
	// dp[i][j] = min value over items 0..i−1 with covered cost ≥ j.
	// Taking item i from requirement j leaves requirement max(0, j−c_i).
	dp := make([][]float64, n+1)
	dp[0] = make([]float64, L+1)
	for j := 1; j <= L; j++ {
		dp[0][j] = inf
	}
	for i := 0; i < n; i++ {
		dp[i+1] = make([]float64, L+1)
		ci, vi := ic[i], values[i]
		for j := 0; j <= L; j++ {
			best := dp[i][j] // skip item i
			prev := j - ci
			if prev < 0 {
				prev = 0
			}
			if dp[i][prev] < inf {
				if cand := dp[i][prev] + vi; cand < best {
					best = cand
				}
			}
			dp[i+1][j] = best
		}
	}
	if dp[n][L] >= inf {
		return Result{}, errInfeasible
	}
	res := Result{Value: dp[n][L]}
	j := L
	//lint:allow floateq — DP backtrack asks whether item i changed the cell; when it did not, dp[i][j] was copied from dp[i-1][j], so the equality is an identity on the same stored float
	for i := n; i >= 1; i-- {
		if dp[i][j] == dp[i-1][j] {
			continue
		}
		res.Indices = append(res.Indices, i-1)
		j -= ic[i-1]
		if j < 0 {
			j = 0
		}
	}
	sort.Ints(res.Indices)
	res.Cost = sum(costs, res.Indices)
	return res, nil
}
