package dist

import (
	"math"
	"testing"

	"github.com/factcheck/cleansel/internal/numeric"
	"github.com/factcheck/cleansel/internal/rng"
)

func TestNewNormal(t *testing.T) {
	tests := []struct {
		name      string
		mu, sigma float64
		ok        bool
	}{
		{"standard", 0, 1, true},
		{"shifted", 10, 2.5, true},
		{"degenerate", 5, 0, true},
		{"negative-sigma", 0, -1, false},
		{"nan-sigma", 0, math.NaN(), false},
		{"inf-sigma", 0, math.Inf(1), false},
		{"nan-mu", math.NaN(), 1, false},
		{"inf-mu", math.Inf(-1), 1, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			n, err := NewNormal(tc.mu, tc.sigma)
			if tc.ok != (err == nil) {
				t.Fatalf("err = %v, want ok=%v", err, tc.ok)
			}
			if !tc.ok {
				return
			}
			if n.Mean() != tc.mu {
				t.Fatalf("mean %v, want %v", n.Mean(), tc.mu)
			}
			if want := tc.sigma * tc.sigma; n.Variance() != want {
				t.Fatalf("variance %v, want %v", n.Variance(), want)
			}
		})
	}
}

func TestNormalSampleDeterministicUnderSeed(t *testing.T) {
	n, _ := NewNormal(10, 2)
	a := rng.New(77)
	b := rng.New(77)
	for i := 0; i < 100; i++ {
		if va, vb := n.Sample(a), n.Sample(b); va != vb {
			t.Fatalf("draw %d diverged: %v vs %v", i, va, vb)
		}
	}
}

func TestNormalSampleMoments(t *testing.T) {
	n, _ := NewNormal(-3, 4)
	r := rng.New(11)
	const draws = 200000
	var sum, sumSq float64
	for i := 0; i < draws; i++ {
		x := n.Sample(r)
		sum += x
		sumSq += x * x
	}
	mean := sum / draws
	if math.Abs(mean-(-3)) > 0.05 {
		t.Fatalf("sample mean %v, want ≈ -3", mean)
	}
	if v := (sumSq - draws*mean*mean) / (draws - 1); math.Abs(v-16) > 0.5 {
		t.Fatalf("sample variance %v, want ≈ 16", v)
	}
}

func TestNormalSampleDegenerate(t *testing.T) {
	n, _ := NewNormal(7, 0)
	r := rng.New(3)
	for i := 0; i < 10; i++ {
		if n.Sample(r) != 7 {
			t.Fatal("degenerate normal sampled off its mean")
		}
	}
}

func TestDiscretize(t *testing.T) {
	n, _ := NewNormal(10, 2)
	for _, k := range []int{1, 2, 3, 4, 6, 64} {
		d := n.Discretize(k)
		if d.Size() != k {
			t.Fatalf("k=%d: size %d", k, d.Size())
		}
		// Symmetric quantile grid: mean is exact.
		if got := d.Mean(); !numeric.AlmostEqual(got, 10, 1e-9) {
			t.Fatalf("k=%d: mean %v, want 10", k, got)
		}
		// Equal-probability bin centers under-disperse: variance below σ².
		if v := d.Variance(); v > 4 {
			t.Fatalf("k=%d: variance %v exceeds σ²=4", k, v)
		}
	}
	// Variance converges to σ² from below as k grows.
	v6 := n.Discretize(6).Variance()
	v64 := n.Discretize(64).Variance()
	if !(v6 < v64 && v64 < 4) {
		t.Fatalf("variance not converging: v6=%v v64=%v σ²=4", v6, v64)
	}
	if v64 < 3.8 {
		t.Fatalf("k=64 variance %v too far from σ²=4", v64)
	}
}

func TestDiscretizeDegenerateAndInvalid(t *testing.T) {
	n, _ := NewNormal(5, 0)
	d := n.Discretize(6)
	if d.Size() != 1 || d.Values[0] != 5 {
		t.Fatalf("zero-sigma discretization %+v, want point mass at 5", d)
	}
	pos, _ := NewNormal(0, 1)
	assertPanics(t, func() { pos.Discretize(0) })
}
