package numeric

import (
	"math"
	"testing"
)

func TestDefaultGridMatchesLegacyKeys(t *testing.T) {
	g := DefaultGrid()
	for _, x := range []float64{0, 1, -1, 3.25, 17.0 / 12.0, 99.999999, -123456.789, 9.9e7} {
		// The legacy key is round(x·1e9); its value is key/1e9.
		legacy := math.Round(x * 1e9)
		if g.Key(x) != int64(legacy) {
			t.Fatalf("Key(%v) = %d, legacy key %v", x, g.Key(x), legacy)
		}
		if g.Value(g.Key(x)) != legacy/1e9 {
			t.Fatalf("Value(Key(%v)) = %v, legacy %v", x, g.Value(g.Key(x)), legacy/1e9)
		}
	}
	if !g.IsDefault() {
		t.Fatal("DefaultGrid not IsDefault")
	}
	if g.Resolution() != 1e-9 {
		t.Fatalf("resolution = %v", g.Resolution())
	}
}

func TestGridForRegimes(t *testing.T) {
	cases := []struct {
		reach     float64
		wantScale float64
	}{
		{0, 1e9},
		{1, 1e9},
		{1e8, 1e9},        // boundary inclusive: legacy grid
		{2e8, 1e6},        // 2e8·1e7 = 2e15 > 1e15, so one decade down
		{1e12, 1000},      // keys reach exactly 1e15
		{9e14, 1},         // keys reach 9e14
		{1e18, 1e-3},      // beyond exact-integer float range, still keyed
		{math.NaN(), 1e9}, // total function: NaN gets the legacy grid
	}
	for _, c := range cases {
		g := GridFor(c.reach)
		if g.Scale() != c.wantScale {
			t.Errorf("GridFor(%v).Scale = %v, want %v", c.reach, g.Scale(), c.wantScale)
		}
		if r := c.reach; r > QuantizeMaxAbs && !math.IsNaN(r) && !math.IsInf(r, 0) {
			if keys := r * g.Scale(); keys > GridKeyMax || keys < GridKeyMax/10-1 {
				t.Errorf("GridFor(%v): keys reach %v outside (%v, %v]", r, keys, GridKeyMax/10, float64(GridKeyMax))
			}
		}
	}
	// +Inf clamps to the coarsest finite grid: positive scale, keys in range.
	g := GridFor(math.Inf(1))
	if !(g.Scale() > 0) || math.MaxFloat64*g.Scale() > GridKeyMax {
		t.Errorf("GridFor(+Inf).Scale = %v", g.Scale())
	}
}

func TestGridKeyRoundTripScaleAware(t *testing.T) {
	g := GridFor(1e12) // scale 1000, resolution 1e-3
	for _, x := range []float64{0, 1e12, -9.9999e11, 123456789.25, 1e12 - 0.005} {
		k := g.Key(x)
		v := g.Value(k)
		if math.Abs(v-x) > g.Resolution()/2*1.0000001 {
			t.Errorf("round trip %v -> key %d -> %v (res %v)", x, k, v, g.Resolution())
		}
		if g.Key(v) != k {
			t.Errorf("Key(Value(%d)) = %d", k, g.Key(v))
		}
	}
	// Monotone: larger values never get smaller keys.
	if g.Key(1e12) < g.Key(1e12-1) {
		t.Fatal("keys not monotone")
	}
}

func TestExactGridIntegers(t *testing.T) {
	g := ExactGrid(1)
	for _, x := range []float64{0, 1e12, -3e14, 1 << 52} {
		if g.Value(g.Key(x)) != x {
			t.Errorf("integer %v not exact on scale-1 grid", x)
		}
	}
	q := ExactGrid(4)
	for _, x := range []float64{0.25, 1e12 + 0.75, -2.5} {
		if q.Value(q.Key(x)) != x {
			t.Errorf("quarter-integral %v not exact on scale-4 grid", x)
		}
	}
}

// TestGridKeySaturates documents the boundary behavior of the key
// conversion: scaled products beyond ±2^63 saturate to the int64
// extremes and NaN keys to 0, instead of Go's implementation-defined
// out-of-range float→int conversion. In-contract magnitudes
// (|x·scale| ≤ GridKeyMax) are untouched — the constructors never build
// grids whose keys approach the boundary; this pins the behavior for
// direct Key callers feeding unvalidated values.
func TestGridKeySaturates(t *testing.T) {
	g := DefaultGrid() // scale 1e9: the boundary sits at |x| = 2^63/1e9
	cases := []struct {
		x    float64
		want int64
	}{
		{1e300, math.MaxInt64},
		{-1e300, math.MinInt64},
		{math.MaxFloat64, math.MaxInt64},
		{-math.MaxFloat64, math.MinInt64},
		{math.Inf(1), math.MaxInt64},
		{math.Inf(-1), math.MinInt64},
		{math.NaN(), 0},
		// 2^63 / 1e9 scaled back up rounds to exactly 2^63: the first
		// saturating magnitude. One part in 2^10 below it converts.
		{9.223372036854775808e9, math.MaxInt64},
		{-9.223372036854775808e9, math.MinInt64},
		{9.2e9, int64(math.Round(9.2e9 * 1e9))},
		{-9.2e9, int64(math.Round(-9.2e9 * 1e9))},
	}
	for _, c := range cases {
		if got := g.Key(c.x); got != c.want {
			t.Errorf("Key(%v) = %d, want %d", c.x, got, c.want)
		}
	}
	// In-contract keys are bit-identical with the plain conversion.
	for _, x := range []float64{0, 1, -1, 3.25, 99.999999, -123456.789, 9.9e7, 1e8} {
		if got, want := g.Key(x), int64(math.Round(x*1e9)); got != want {
			t.Errorf("in-contract Key(%v) = %d, want %d", x, got, want)
		}
	}
}

// FuzzGridKey fuzzes the key/value round trip: for any finite x within
// the grid's reach, Value(Key(x)) stays within half a resolution (plus
// the float round-off the legacy regime always had), keys are monotone,
// and scale-aware keys round-trip exactly.
func FuzzGridKey(f *testing.F) {
	f.Add(0.0, 1.0)
	f.Add(1.5, 10.0)
	f.Add(-123456.789, 1e6)
	f.Add(9.9e11, 1e12)
	f.Add(-1e12, 5e12)
	f.Add(1e8, 1e8)
	f.Add(3.25, 1e14)
	f.Fuzz(func(t *testing.T, x, reach float64) {
		if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(reach) || math.IsInf(reach, 0) {
			t.Skip()
		}
		reach = math.Abs(reach)
		if reach > 1e15 {
			t.Skip() // beyond GridKeyMax the cells are coarser than ulp anyway
		}
		if math.Abs(x) > reach {
			t.Skip()
		}
		g := GridFor(reach)
		k := g.Key(x)
		v := g.Value(k)
		// Half a cell, plus a few ulps of the value itself (the key
		// boundary is decided on the rounded product x·scale), plus the
		// scaled-product round-off the legacy regime tolerates near its
		// ceiling (ulp(1e17) ≈ 16 keys).
		ulp := math.Nextafter(math.Abs(x)+g.Resolution(), math.Inf(1)) - (math.Abs(x) + g.Resolution())
		slack := g.Resolution()*0.5 + 4*ulp
		if g.IsDefault() {
			slack += 64e-9
		}
		if math.Abs(v-x) > slack {
			t.Fatalf("round trip %v -> key %d -> %v exceeds %v (scale %v)", x, k, v, slack, g.Scale())
		}
		if up := g.Key(x + g.Resolution()); up < k {
			t.Fatalf("keys not monotone at %v (scale %v): %d then %d", x, g.Scale(), k, up)
		}
		if !g.IsDefault() {
			if g.Key(v) != k {
				t.Fatalf("scale-aware key %d does not round-trip (value %v, scale %v)", k, v, g.Scale())
			}
		}
	})
}
