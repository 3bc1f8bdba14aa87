package dist

import (
	"errors"
	"fmt"
	"math"

	"github.com/factcheck/cleansel/internal/numeric"
	"github.com/factcheck/cleansel/internal/obs"
)

// convStats counts the elementary work of one convolution:
// ops is the number of atom products visited and merged the number that
// collided with an existing grid key. The counts are write-only
// observability — nothing reads them back into the computation.
type convStats struct {
	ops    int64
	merged int64
}

// report ticks the stats into a recorder (nil-safe).
func (st *convStats) report(rec *obs.Recorder) {
	rec.Add("conv_ops", st.ops)
	rec.Add("conv_atoms_merged", st.merged)
}

// Mixture pools conflicting source laws for one object into the
// credibility-weighted opinion pool Σ_k w̄_k·p_k(v) with w̄ = w/Σw (the
// §2.1 discussion of merging source reports). Weights must be
// non-negative with positive total. Atoms that collide on the pooling
// grid merge — the same regime ladder WeightedSum convolves on (legacy
// 1e-9 grid inside ±1e8, exact dyadic grid for integral/dyadic atoms,
// relative quantization otherwise; see ConvGrid), so two sources
// reporting the same quantity up to round-off pool into one atom
// instead of two spuriously distinct ones. Each merged atom keeps the
// first exact value seen; the pooled support comes out sorted
// ascending.
func Mixture(dists []*Discrete, weights []float64) (*Discrete, error) {
	if len(dists) == 0 {
		return nil, errors.New("dist: Mixture needs at least one component")
	}
	if len(dists) != len(weights) {
		return nil, fmt.Errorf("dist: %d components vs %d weights", len(dists), len(weights))
	}
	var wsum numeric.KahanAcc
	for k, w := range weights {
		if dists[k] == nil {
			return nil, fmt.Errorf("dist: component %d is nil", k)
		}
		if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
			return nil, fmt.Errorf("dist: weight %d is %v", k, w)
		}
		wsum.Add(w)
	}
	if wsum.Value() <= 0 {
		return nil, errors.New("dist: Mixture weights sum to zero")
	}
	// Pooling never scales a value, so the grid is the one a convolution
	// of the pooled atoms alone would run on.
	var atoms []float64
	for k, d := range dists {
		if weights[k] != 0 {
			atoms = append(atoms, d.Values...)
		}
	}
	grid, _, err := ConvGrid(0, []float64{1}, []*Discrete{{Values: atoms}})
	if err != nil {
		return nil, err
	}
	// Mass w_k·p_k(v) accumulates per grid key in component order, then
	// support order, which fixes the fp addition order.
	pooled := map[int64]float64{}
	vals := map[int64]float64{}
	for k, d := range dists {
		if weights[k] == 0 {
			continue
		}
		for j, v := range d.Values {
			key := grid.Key(v)
			if _, seen := vals[key]; !seen {
				vals[key] = v
			}
			pooled[key] += weights[k] * d.Probs[j]
		}
	}
	keys := numeric.SortedKeys(pooled)
	values := make([]float64, len(keys))
	masses := make([]float64, len(keys))
	for i, key := range keys {
		values[i] = vals[key]
		masses[i] = pooled[key]
	}
	return NewDiscrete(values, masses)
}

// WeightedSum returns the exact law of D = offset + Σ_i weights[i]·X_i
// for independent discrete X_i — the drop variable of Eq. (2), built by
// support convolution. Sums that collide on the quantization grid merge,
// which keeps the state space at the number of distinct outcomes rather
// than the raw product. Callers bound the product of support sizes
// beforehand; see maxpr.Hybrid.
//
// The grid is chosen per convolution from the reachable magnitude
// |offset| + Σ|wᵢ|·max|Xᵢ| (see ConvGrid):
//
//   - reach ≤ numeric.QuantizeMaxAbs: the legacy fixed 1e-9 grid,
//     bit-identical with every result the library ever produced there;
//   - integral supports (or integral after scaling by a common
//     power-of-two denominator) with reach·scale ≤ 2^53: an exact
//     integer grid — zero rounding at any magnitude, so integer-count
//     datasets in the 1e9..1e15 range convolve exactly;
//   - everything else: relative quantization on the finest power-of-ten
//     grid whose keys fit ±numeric.GridKeyMax, pinning the relative
//     resolution at the top of the range to ~1e-15 — at the round-off
//     float64 arithmetic itself accumulates.
//
// Merged outcomes keep the first exact sum seen, so the grid never
// perturbs a support value by more than one resolution. The only
// magnitude WeightedSum still rejects is a reach that overflows float64
// entirely.
//
// The kernel is a K-way merge of key-sorted streams (merge.go): the
// support comes out in ascending order, and each layer adds its products
// into a key in (source atom, support atom) order.
func WeightedSum(offset float64, weights []float64, parts []*Discrete) (*Discrete, error) {
	return weightedSum(nil, offset, weights, parts)
}

// WeightedSumRec is WeightedSum with write-only trace counters: the
// number of atom products convolved (conv_ops) and the grid-collision
// merges (conv_atoms_merged) tick into rec (nil rec is the plain
// WeightedSum). The returned law is bit-identical either way.
func WeightedSumRec(rec *obs.Recorder, offset float64, weights []float64, parts []*Discrete) (*Discrete, error) {
	if rec == nil {
		return weightedSum(nil, offset, weights, parts)
	}
	var st convStats
	d, err := weightedSum(&st, offset, weights, parts)
	st.report(rec)
	return d, err
}

func weightedSum(st *convStats, offset float64, weights []float64, parts []*Discrete) (*Discrete, error) {
	grid, _, err := ConvGrid(offset, weights, parts)
	if err != nil {
		return nil, err
	}
	return weightedSumMerge(st, grid, offset, weights, parts)
}

// maxDyadicShift bounds the common-denominator search of the exact
// integer path: supports integral after scaling by 2^k for some
// k ≤ maxDyadicShift (denominators up to 4096 — halves, quarters,
// dyadic rates) qualify. Scaling a float by a power of two is lossless,
// which is what makes the detected path provably exact.
const maxDyadicShift = 12

// maxExactInt is the largest magnitude at which float64 represents every
// integer exactly (2^53); integer-grid convolutions are exact while
// reach·scale stays within it.
const maxExactInt = 1 << 53

// ConvGrid validates the inputs and returns the quantization grid
// WeightedSum will convolve on, together with the reachable magnitude
// |offset| + Σ|wᵢ|·max|Xᵢ| the choice was derived from. Exposed so tests
// and diagnostics can reason about the resolution a given workload gets.
func ConvGrid(offset float64, weights []float64, parts []*Discrete) (numeric.Grid, float64, error) {
	if len(weights) != len(parts) {
		return numeric.Grid{}, 0, fmt.Errorf("dist: %d weights vs %d parts", len(weights), len(parts))
	}
	if math.IsNaN(offset) || math.IsInf(offset, 0) {
		return numeric.Grid{}, 0, fmt.Errorf("dist: offset %v must be finite", offset)
	}
	reach := math.Abs(offset)
	for i, w := range weights {
		if parts[i] == nil {
			return numeric.Grid{}, 0, fmt.Errorf("dist: part %d is nil", i)
		}
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return numeric.Grid{}, 0, fmt.Errorf("dist: weight %d is %v", i, w)
		}
		var maxAbs float64
		for _, v := range parts[i].Values {
			if a := math.Abs(v); a > maxAbs {
				maxAbs = a
			}
		}
		reach += math.Abs(w) * maxAbs
	}
	if math.IsInf(reach, 0) {
		return numeric.Grid{}, 0, fmt.Errorf(
			"dist: WeightedSum reachable magnitude overflows float64; rescale the weights or supports (the law of c·D determines the law of D exactly)")
	}
	if reach <= numeric.QuantizeMaxAbs {
		// The historical regime: every figure ever produced used this
		// grid, and within the bound it is exact — keep it bit-identical.
		return numeric.DefaultGrid(), reach, nil
	}
	if scale, ok := exactPow2Scale(offset, reach, weights, parts); ok {
		return numeric.ExactGrid(scale), reach, nil
	}
	return numeric.GridFor(reach), reach, nil
}

// exactPow2Scale looks for the smallest power-of-two scale making the
// offset and every weighted support value integral, so the convolution
// can run on an exact integer grid. The products weights[i]·v are tested
// because those are the exact terms the convolution adds.
func exactPow2Scale(offset, reach float64, weights []float64, parts []*Discrete) (float64, bool) {
	shift, ok := dyadicShift(offset)
	if !ok {
		return 0, false
	}
	for i, w := range weights {
		if w == 0 {
			continue
		}
		for _, v := range parts[i].Values {
			s, ok := dyadicShift(w * v)
			if !ok {
				return 0, false
			}
			if s > shift {
				shift = s
			}
		}
	}
	scale := float64(int64(1) << shift)
	if reach*scale > maxExactInt {
		return 0, false
	}
	return scale, true
}

// dyadicShift returns the smallest k ≤ maxDyadicShift with x·2^k
// integral. Multiplying by 2^k only adjusts the exponent, so the test is
// exact.
//
//lint:allow floateq — both compares are exact-representation predicates: Trunc(x·2^k)==x·2^k tests integrality after an exponent-only shift, and σ²!=0 tests underflow to literal zero
func dyadicShift(x float64) (int, bool) {
	s := 1.0
	for k := 0; k <= maxDyadicShift; k++ {
		if xs := x * s; math.Trunc(xs) == xs {
			return k, true
		}
		s *= 2
	}
	return 0, false
}

// FuseNormals resolves independent normal reports of the same quantity
// by precision weighting (§2.1 discussion of conflicting sources): with
// precisions λ_i = 1/σ_i², the fused law is N(Σλ_iμ_i / Σλ_i, 1/Σλ_i).
// Its variance is strictly below every input's when two or more
// uncertain reports are fused. A zero-sigma report is exact and
// dominates; two exact reports that disagree are contradictory and
// return an error.
func FuseNormals(reports []Normal) (Normal, error) {
	if len(reports) == 0 {
		return Normal{}, errors.New("dist: FuseNormals needs at least one report")
	}
	for i, n := range reports {
		if math.IsNaN(n.Mu) || math.IsInf(n.Mu, 0) || math.IsNaN(n.Sigma) || math.IsInf(n.Sigma, 0) || n.Sigma < 0 {
			return Normal{}, fmt.Errorf("dist: report %d is not a valid normal (mu %v, sigma %v)", i, n.Mu, n.Sigma)
		}
	}
	if len(reports) == 1 {
		return reports[0], nil
	}
	exact := false
	var exactMu float64
	for _, n := range reports {
		// A sigma whose square underflows to zero carries effectively
		// infinite precision; treat it as exact so the weighting below
		// never divides by zero.
		if n.Sigma*n.Sigma != 0 {
			continue
		}
		if exact && exactMu != n.Mu {
			return Normal{}, fmt.Errorf("dist: contradictory exact reports %v and %v", exactMu, n.Mu)
		}
		exact = true
		exactMu = n.Mu
	}
	if exact {
		return Normal{Mu: exactMu, Sigma: 0}, nil
	}
	var lambda, weighted numeric.KahanAcc
	for _, n := range reports {
		l := 1 / (n.Sigma * n.Sigma)
		lambda.Add(l)
		weighted.Add(l * n.Mu)
	}
	return Normal{
		Mu:    weighted.Value() / lambda.Value(),
		Sigma: math.Sqrt(1 / lambda.Value()),
	}, nil
}
