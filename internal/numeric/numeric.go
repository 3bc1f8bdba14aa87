// Package numeric provides the scalar numerical routines shared by the
// probability and optimization substrates: compensated summation, the
// standard normal CDF and quantile, tolerant float comparison, and the
// quantization grids that merge round-off twins.
package numeric

import (
	"math"
	"sort"
)

// AlmostEqual reports whether a and b are equal within tol absolutely or
// relatively (whichever is larger in magnitude terms).
func AlmostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*scale
}

// KahanAcc is a running Neumaier-compensated accumulator. It is accurate
// even when the terms vary wildly in magnitude (e.g. probabilities times
// squared claim values in the CDC datasets, which span 1e-6 .. 1e13).
type KahanAcc struct {
	sum, comp float64
}

// Add folds x into the accumulator.
func (k *KahanAcc) Add(x float64) {
	t := k.sum + x
	if math.Abs(k.sum) >= math.Abs(x) {
		k.comp += (k.sum - t) + x
	} else {
		k.comp += (x - t) + k.sum
	}
	k.sum = t
}

// Value returns the compensated total.
func (k *KahanAcc) Value() float64 { return k.sum + k.comp }

// NormalCDF returns P(Z <= z) for a standard normal Z.
func NormalCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// NormalQuantile returns the z with NormalCDF(z) = p, for p in (0, 1).
// It uses the Acklam rational approximation refined by one Halley step,
// giving ~1e-15 relative accuracy — plenty for discretizing CDC error
// models into a handful of equal-probability bins.
func NormalQuantile(p float64) float64 {
	if math.IsNaN(p) || p <= 0 || p >= 1 {
		switch {
		case p == 0:
			return math.Inf(-1)
		case p == 1:
			return math.Inf(1)
		}
		return math.NaN()
	}
	// Coefficients for Acklam's approximation.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}
	const pLow = 0.02425
	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One Halley refinement step.
	e := NormalCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x = x - u/(1+x*u/2)
	return x
}

// QuantizeMaxAbs is the magnitude ceiling within which the legacy 1e-9
// quantization grid (DefaultGrid) is trustworthy. Beyond ~1e8 the
// float64 spacing approaches the grid resolution (ulp(1e8) ≈ 1.5e-8),
// so distinct sums can alias a key — and past ±9.2e9 the scaled value
// overflows int64 outright. Callers that build keys from data-derived
// magnitudes (support convolution) switch to a scale-aware Grid beyond
// this bound instead of silently degrading; see GridFor.
const QuantizeMaxAbs = 1e8

// SortedKeys returns the keys of m sorted ascending; dist.Mixture, its
// one caller outside tests, iterates its pooling map in this order so
// the pooled masses are bit-stable.
func SortedKeys(m map[int64]float64) []int64 {
	ks := make([]int64, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}
