package maxpr

import (
	"testing"

	"github.com/factcheck/cleansel/internal/dist"
	"github.com/factcheck/cleansel/internal/model"
	"github.com/factcheck/cleansel/internal/numeric"
	"github.com/factcheck/cleansel/internal/query"
	"github.com/factcheck/cleansel/internal/rng"
)

// SingleProb is the session layer's one-step benefit; it must agree
// bit-for-bit with what NormalAffine computes for the same singleton,
// or the adaptive loop and the upfront GreedyMaxPr would rank the first
// cleaning differently.
func TestSingleProbMatchesNormalAffine(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 50; trial++ {
		mu := r.Uniform(-5, 5)
		sigma := 0.2 + 3*r.Float64()
		u := mu + r.Uniform(-2, 2)
		a := r.Uniform(-3, 3)
		tau := 2 * r.Float64()
		nd, err := dist.NewNormal(mu, sigma)
		if err != nil {
			t.Fatal(err)
		}
		db := model.New([]model.Object{{Name: "x", Cost: 1, Current: u, Value: nd}})
		f := query.NewAffine(0, map[int]float64{0: a})
		e, err := NewNormalAffine(db, f, tau)
		if err != nil {
			t.Fatal(err)
		}
		want := e.Prob(model.NewSet(0))
		got, err := SingleProb(nd, a, u, tau)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: SingleProb %v != NormalAffine %v (mu=%v sigma=%v u=%v a=%v tau=%v)",
				trial, got, want, mu, sigma, u, a, tau)
		}
	}
}

func TestSingleProbMatchesDiscreteAffine(t *testing.T) {
	r := rng.New(17)
	for trial := 0; trial < 50; trial++ {
		k := 2 + r.Intn(4)
		vals := make([]float64, k)
		probs := make([]float64, k)
		for j := range vals {
			vals[j] = float64(r.IntRange(-6, 6))
			probs[j] = r.Float64() + 0.1
		}
		d := dist.MustDiscrete(vals, probs)
		u := d.Values[r.Intn(d.Size())]
		a := float64(r.IntRange(-2, 2))
		tau := r.Float64()
		db := model.New([]model.Object{{Name: "x", Cost: 1, Current: u, Value: d}})
		f := query.NewAffine(0, map[int]float64{0: a})
		e, err := NewHybrid(db, f, tau, 0, 1, rng.New(1))
		if err != nil {
			t.Fatal(err)
		}
		want := e.Prob(model.NewSet(0))
		got, err := SingleProb(d, a, u, tau)
		if err != nil {
			t.Fatal(err)
		}
		// The convolution path renormalizes the sorted atoms' masses and
		// sums them in value order, SingleProb sums the law's masses in
		// support order: equal up to round-off, not bit order.
		if !numeric.AlmostEqual(got, want, 1e-12) {
			t.Fatalf("trial %d: SingleProb %v vs Hybrid %v", trial, got, want)
		}
	}
}

func TestSingleProbEdgeCases(t *testing.T) {
	nd, _ := dist.NewNormal(0, 1)
	if p, err := SingleProb(nd, 0, 0, 1); err != nil || p != 0 {
		t.Fatalf("zero coefficient: %v, %v", p, err)
	}
	if _, err := SingleProb(nd, 1, 0, -1); err == nil {
		t.Fatal("negative tau accepted")
	}
	if _, err := SingleProb(unsupportedValue{}, 1, 0, 1); err == nil {
		t.Fatal("unsupported value model accepted")
	}
	// A point mass never moves the measure: probability 0 for tau > 0.
	if p, err := SingleProb(dist.PointMass(5), 2, 5, 1); err != nil || p != 0 {
		t.Fatalf("point mass at current: %v, %v", p, err)
	}
}

type unsupportedValue struct{}

func (unsupportedValue) Mean() float64     { return 0 }
func (unsupportedValue) Variance() float64 { return 0 }
