package numeric

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"
)

func TestAlmostEqual(t *testing.T) {
	cases := []struct {
		a, b, tol float64
		want      bool
	}{
		{1, 1, 1e-12, true},
		{1, 1 + 1e-13, 1e-12, true},
		{1, 1.1, 1e-12, false},
		{1e12, 1e12 + 1, 1e-9, true},
		{0, 1e-12, 1e-9, true},
		{0, 1e-3, 1e-9, false},
	}
	for _, c := range cases {
		if got := AlmostEqual(c.a, c.b, c.tol); got != c.want {
			t.Errorf("AlmostEqual(%v,%v,%v) = %v, want %v", c.a, c.b, c.tol, got, c.want)
		}
	}
}

func TestSumCompensation(t *testing.T) {
	// Classic cancellation case: naive summation loses the small terms.
	var acc KahanAcc
	for _, x := range []float64{1e16, 1, -1e16, 1} {
		acc.Add(x)
	}
	if got := acc.Value(); got != 2 {
		t.Fatalf("compensated sum = %v, want 2", got)
	}
}

// TestKahanAccMatchesSum holds the compensated running sum to the exact
// sum of its terms, computed in big.Float arithmetic.
func TestKahanAccMatchesSum(t *testing.T) {
	f := func(raw []float64) bool {
		var acc KahanAcc
		exact := new(big.Float).SetPrec(2048)
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			// Scale down to avoid overflow in the property.
			x := math.Mod(v, 1e6)
			acc.Add(x)
			exact.Add(exact, big.NewFloat(x))
		}
		want, _ := exact.Float64()
		return AlmostEqual(acc.Value(), want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNormalCDFKnownValues(t *testing.T) {
	cases := []struct{ z, want float64 }{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145707},
		{1.959963984540054, 0.975},
		{-4, 3.167124183311998e-05},
	}
	for _, c := range cases {
		if got := NormalCDF(c.z); !AlmostEqual(got, c.want, 1e-10) {
			t.Errorf("NormalCDF(%v) = %v, want %v", c.z, got, c.want)
		}
	}
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{1e-8, 1e-4, 0.01, 0.05, 0.3, 0.5, 0.77, 0.95, 0.999, 1 - 1e-8} {
		z := NormalQuantile(p)
		if got := NormalCDF(z); !AlmostEqual(got, p, 1e-10) {
			t.Errorf("CDF(Quantile(%v)) = %v", p, got)
		}
	}
}

func TestNormalQuantileEdge(t *testing.T) {
	if !math.IsInf(NormalQuantile(0), -1) {
		t.Fatal("quantile(0) should be -inf")
	}
	if !math.IsInf(NormalQuantile(1), +1) {
		t.Fatal("quantile(1) should be +inf")
	}
	if !math.IsNaN(NormalQuantile(-0.1)) || !math.IsNaN(NormalQuantile(1.1)) {
		t.Fatal("out-of-range quantile should be NaN")
	}
}

func TestQuantizeKeyRoundTrip(t *testing.T) {
	g := DefaultGrid()
	for _, x := range []float64{0, 1, -1, 3.25, 17.0 / 12.0, 99.999999, -123456.789} {
		if got := g.Value(g.Key(x)); math.Abs(got-x) > 5e-10 {
			t.Errorf("quantize roundtrip %v -> %v", x, got)
		}
	}
	// Distinct nearby values must collapse only within resolution.
	if g.Key(1.0) == g.Key(1.0+1e-6) {
		t.Fatal("1e-6 apart values should not collapse")
	}
	if g.Key(1.0) != g.Key(1.0+1e-13) {
		t.Fatal("1e-13 apart values should collapse")
	}
}

func TestSortedKeys(t *testing.T) {
	m := map[int64]float64{3: 1, -1: 1, 7: 1, 0: 1}
	ks := SortedKeys(m)
	want := []int64{-1, 0, 3, 7}
	for i, k := range ks {
		if k != want[i] {
			t.Fatalf("SortedKeys = %v", ks)
		}
	}
}

func TestQuantileMonotone(t *testing.T) {
	prev := math.Inf(-1)
	for p := 0.001; p < 1; p += 0.001 {
		z := NormalQuantile(p)
		if z < prev {
			t.Fatalf("quantile not monotone at p=%v", p)
		}
		prev = z
	}
}
