package numeric

import "math"

// Grid is a quantization scheme for collapsing nearby floats onto shared
// int64 map keys: Key(x) = round(x·scale), so the grid's resolution (the
// width of one cell) is 1/scale. Convolution and pooling code uses a Grid
// to merge outcomes that are equal up to round-off while keeping the
// state space at the number of distinct outcomes.
//
// Three regimes, chosen by the constructors:
//
//   - DefaultGrid (scale 1e9): the legacy fixed 1e-9 absolute grid. Exact
//     for every workload whose reachable magnitude stays inside
//     ±QuantizeMaxAbs; all historical figures were produced on it, so
//     callers whose reach fits MUST keep using it bit-identically.
//   - ExactGrid (dyadic scale 2^k): for supports that are integral after
//     scaling by a power of two. Multiplying a float by 2^k is lossless,
//     and integers are exact in float64 up to 2^53, so convolution on
//     this grid has zero rounding at any magnitude ≤ 2^53/2^k.
//   - GridFor (power-of-ten scale from the reachable magnitude): relative
//     quantization for everything else. The scale is the largest power of
//     ten keeping every key inside ±GridKeyMax, which pins the relative
//     resolution at the top of the range to 1e-15..1e-14 — at or below
//     the relative error float64 arithmetic itself accumulates — while
//     keys stay far from int64 overflow and inside float64's exact
//     integer range.
//
// The zero Grid is invalid; always build one with a constructor.
type Grid struct {
	scale float64
}

// GridKeyMax bounds |Key(x)| for grids built by GridFor: 1e15 < 2^53, so
// a key is always an exactly representable float64 integer and the
// round-half-away rounding of x·scale is computed on a product that still
// carries sub-cell precision.
const GridKeyMax = 1e15

// DefaultGrid returns the legacy absolute grid with 1e-9 resolution.
// Callers whose reachable magnitude is within ±QuantizeMaxAbs use it so
// that results stay bit-identical with everything ever computed on the
// fixed grid.
func DefaultGrid() Grid { return Grid{scale: 1e9} }

// ExactGrid returns the grid with the given power-of-two scale: keys are
// round(x·2^k). For values that are integral after scaling by 2^k the
// grid is exact (no value aliasing, no rounding) while |x|·2^k ≤ 2^53.
func ExactGrid(pow2Scale float64) Grid { return Grid{scale: pow2Scale} }

// GridFor returns the quantization grid for a convolution whose
// reachable magnitude is reach: the legacy 1e-9 grid whenever reach fits
// inside ±QuantizeMaxAbs (bit-for-bit the historical behavior), and
// otherwise the finest power-of-ten grid whose keys stay inside
// ±GridKeyMax. A NaN reach gets the legacy grid and an infinite one the
// coarsest finite grid, so the function is total.
func GridFor(reach float64) Grid {
	if math.IsInf(reach, 0) {
		reach = math.MaxFloat64
	}
	if !(reach > QuantizeMaxAbs) {
		return DefaultGrid()
	}
	exp := math.Floor(math.Log10(GridKeyMax / reach))
	scale := math.Pow(10, exp)
	// Guard against log/pow round-off landing one decade too fine.
	if reach*scale > GridKeyMax {
		scale /= 10
	}
	return Grid{scale: scale}
}

// maxInt64Float is 2^63, the smallest float64 magnitude that no longer
// fits an int64 (−2^63 itself is exactly MinInt64, so only the open
// upper side saturates); used by Key to make the float→int conversion
// total instead of implementation-defined.
const maxInt64Float = 9.223372036854775808e18

// Key collapses x onto the grid: the index of the cell containing x.
// The conversion is total: a scaled product beyond ±2^63 — far outside
// every constructor's documented key range — saturates to
// MinInt64/MaxInt64 instead of hitting Go's implementation-defined
// float→int conversion, and a NaN input keys to 0. In-contract callers
// (|x·scale| ≤ GridKeyMax) get bit-identical keys either way; the
// saturation only closes the footgun for direct Key callers
// feeding unvalidated magnitudes.
func (g Grid) Key(x float64) int64 {
	r := math.Round(x * g.scale)
	switch {
	case math.IsNaN(r):
		return 0
	case r >= maxInt64Float:
		return math.MaxInt64
	case r < -maxInt64Float:
		return math.MinInt64
	}
	return int64(r)
}

// Value returns the center of cell k, inverting Key up to one resolution.
func (g Grid) Value(k int64) float64 { return float64(k) / g.scale }

// Resolution returns the width of one grid cell.
func (g Grid) Resolution() float64 { return 1 / g.scale }

// Scale returns the keys-per-unit scale (the reciprocal resolution).
func (g Grid) Scale() float64 { return g.scale }

// IsDefault reports whether g is the legacy 1e-9 absolute grid.
func (g Grid) IsDefault() bool { return g.scale == 1e9 }
