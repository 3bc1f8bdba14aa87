package dist

import (
	"math"
	"testing"

	"github.com/factcheck/cleansel/internal/numeric"
	"github.com/factcheck/cleansel/internal/rng"
)

func TestMixtureBasics(t *testing.T) {
	m, err := Mixture([]*Discrete{PointMass(0), PointMass(10)}, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Mean(); got != 5 {
		t.Fatalf("mean %v, want 5", got)
	}
	if got := m.Variance(); got != 25 {
		t.Fatalf("variance %v, want 25", got)
	}
	// Shared atoms merge; support comes out sorted.
	m2, err := Mixture(
		[]*Discrete{UniformOver([]float64{1, 2}), UniformOver([]float64{2, 3})},
		[]float64{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	if m2.Size() != 3 || m2.Values[0] != 1 || m2.Values[1] != 2 || m2.Values[2] != 3 {
		t.Fatalf("pooled support %v, want [1 2 3]", m2.Values)
	}
	// Pr[2] = (3·1/2 + 1·1/2)/4 = 1/2.
	if got := m2.Prob(2); !numeric.AlmostEqual(got, 0.5, 1e-12) {
		t.Fatalf("pooled Prob(2) = %v, want 0.5", got)
	}
	// Zero-weight components drop out entirely.
	m3, err := Mixture([]*Discrete{PointMass(1), PointMass(9)}, []float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if m3.Size() != 1 || m3.Values[0] != 1 {
		t.Fatalf("zero-weight component kept: %v", m3.Values)
	}
}

func TestMixtureValidation(t *testing.T) {
	ok := PointMass(1)
	cases := []struct {
		name    string
		dists   []*Discrete
		weights []float64
	}{
		{"empty", nil, nil},
		{"length-mismatch", []*Discrete{ok}, []float64{1, 2}},
		{"nil-component", []*Discrete{nil}, []float64{1}},
		{"negative-weight", []*Discrete{ok, ok}, []float64{1, -1}},
		{"nan-weight", []*Discrete{ok}, []float64{math.NaN()}},
		{"zero-total", []*Discrete{ok, ok}, []float64{0, 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Mixture(tc.dists, tc.weights); err == nil {
				t.Fatal("invalid mixture accepted")
			}
		})
	}
}

// Law of total variance: the mixture's moments must satisfy
// E = Σ w̄_k μ_k and Var = Σ w̄_k (σ_k² + μ_k²) − E².
func TestMixtureLawOfTotalVariance(t *testing.T) {
	r := rng.New(424242)
	for trial := 0; trial < 50; trial++ {
		nComp := 1 + r.Intn(4)
		dists := make([]*Discrete, nComp)
		weights := make([]float64, nComp)
		var wsum float64
		for k := range dists {
			sz := 1 + r.Intn(5)
			vals := make([]float64, sz)
			probs := make([]float64, sz)
			for j := range vals {
				vals[j] = r.Uniform(-50, 50)
				probs[j] = r.Float64() + 0.05
			}
			dists[k] = MustDiscrete(vals, probs)
			weights[k] = r.Float64() + 0.1
			wsum += weights[k]
		}
		m, err := Mixture(dists, weights)
		if err != nil {
			t.Fatal(err)
		}
		var wantMean, wantSecond float64
		for k, d := range dists {
			wbar := weights[k] / wsum
			mu := d.Mean()
			wantMean += wbar * mu
			wantSecond += wbar * (d.Variance() + mu*mu)
		}
		wantVar := wantSecond - wantMean*wantMean
		if !numeric.AlmostEqual(m.Mean(), wantMean, 1e-9) {
			t.Fatalf("trial %d: mixture mean %v, law of total expectation %v", trial, m.Mean(), wantMean)
		}
		if !numeric.AlmostEqual(m.Variance(), wantVar, 1e-9) {
			t.Fatalf("trial %d: mixture variance %v, law of total variance %v", trial, m.Variance(), wantVar)
		}
	}
}

func TestWeightedSumExactConvolution(t *testing.T) {
	// D = 1 + 2·X1 − X2 with X1 ~ U{0,1}, X2 ~ U{0,1,2}: brute force over
	// the 6 outcomes.
	x1 := UniformOver([]float64{0, 1})
	x2 := UniformOver([]float64{0, 1, 2})
	d, err := WeightedSum(1, []float64{2, -1}, []*Discrete{x1, x2})
	if err != nil {
		t.Fatal(err)
	}
	want := map[float64]float64{
		-1: 1.0 / 6, 0: 1.0 / 6, 1: 2.0 / 6, 2: 1.0 / 6, 3: 1.0 / 6,
	}
	if d.Size() != len(want) {
		t.Fatalf("support %v, want keys of %v", d.Values, want)
	}
	for v, p := range want {
		if got := d.Prob(v); !numeric.AlmostEqual(got, p, 1e-12) {
			t.Fatalf("Pr[D=%v] = %v, want %v", v, got, p)
		}
	}
	// Moments follow from linearity/independence.
	if !numeric.AlmostEqual(d.Mean(), 1+2*x1.Mean()-x2.Mean(), 1e-12) {
		t.Fatalf("mean %v", d.Mean())
	}
	if !numeric.AlmostEqual(d.Variance(), 4*x1.Variance()+x2.Variance(), 1e-12) {
		t.Fatalf("variance %v", d.Variance())
	}
}

func TestWeightedSumRandomAgainstEnumeration(t *testing.T) {
	r := rng.New(1717)
	for trial := 0; trial < 30; trial++ {
		n := 1 + r.Intn(4)
		parts := make([]*Discrete, n)
		weights := make([]float64, n)
		for i := range parts {
			sz := 1 + r.Intn(4)
			vals := make([]float64, sz)
			probs := make([]float64, sz)
			for j := range vals {
				vals[j] = float64(r.IntRange(-5, 5))
				probs[j] = r.Float64() + 0.1
			}
			parts[i] = MustDiscrete(vals, probs)
			weights[i] = float64(r.IntRange(-2, 2))
		}
		offset := r.Uniform(-3, 3)
		d, err := WeightedSum(offset, weights, parts)
		if err != nil {
			t.Fatal(err)
		}
		// Enumerate the joint support and accumulate the same law.
		grid := numeric.DefaultGrid()
		want := map[int64]float64{}
		var rec func(i int, sum, p float64)
		rec = func(i int, sum, p float64) {
			if i == n {
				want[grid.Key(sum)] += p
				return
			}
			for j, v := range parts[i].Values {
				rec(i+1, sum+weights[i]*v, p*parts[i].Probs[j])
			}
		}
		rec(0, offset, 1)
		if d.Size() != len(want) {
			t.Fatalf("trial %d: support size %d, want %d", trial, d.Size(), len(want))
		}
		for j, v := range d.Values {
			wp, ok := want[grid.Key(v)]
			if !ok {
				t.Fatalf("trial %d: unexpected atom %v", trial, v)
			}
			if !numeric.AlmostEqual(d.Probs[j], wp, 1e-9) {
				t.Fatalf("trial %d: Pr[%v] = %v, want %v", trial, v, d.Probs[j], wp)
			}
		}
		// PrBelow agrees with direct enumeration at a random threshold.
		thr := r.Uniform(-10, 10)
		var wantBelow float64
		for k, p := range want {
			if grid.Value(k) < thr {
				wantBelow += p
			}
		}
		if got := d.PrBelow(thr); !numeric.AlmostEqual(got, wantBelow, 1e-9) {
			t.Fatalf("trial %d: PrBelow(%v) = %v, want %v", trial, thr, got, wantBelow)
		}
	}
}

func TestWeightedSumEdgeCases(t *testing.T) {
	// No parts (or all-zero weights): D is the deterministic offset.
	d, err := WeightedSum(2.5, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Size() != 1 || d.Values[0] != 2.5 || d.Variance() != 0 {
		t.Fatalf("empty sum %+v, want point mass at 2.5", d)
	}
	z, err := WeightedSum(1, []float64{0}, []*Discrete{UniformOver([]float64{5, 9})})
	if err != nil {
		t.Fatal(err)
	}
	if z.Size() != 1 || z.Values[0] != 1 {
		t.Fatalf("zero-weight part contributed: %+v", z)
	}
	// Validation failures.
	if _, err := WeightedSum(0, []float64{1}, nil); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := WeightedSum(math.NaN(), nil, nil); err == nil {
		t.Fatal("NaN offset accepted")
	}
	if _, err := WeightedSum(0, []float64{math.Inf(1)}, []*Discrete{PointMass(1)}); err == nil {
		t.Fatal("infinite weight accepted")
	}
	if _, err := WeightedSum(0, []float64{1}, []*Discrete{nil}); err == nil {
		t.Fatal("nil part accepted")
	}
}

func TestFuseNormalsPrecisionWeighting(t *testing.T) {
	a, _ := NewNormal(10, 2)
	b, _ := NewNormal(14, 2)
	f, err := FuseNormals([]Normal{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if f.Mu != 12 {
		t.Fatalf("equal-precision fusion mean %v, want midpoint 12", f.Mu)
	}
	if want := math.Sqrt(2); !numeric.AlmostEqual(f.Sigma, want, 1e-12) {
		t.Fatalf("fused sigma %v, want √2", f.Sigma)
	}
	// Unequal precisions pull toward the sharper report.
	sharp, _ := NewNormal(0, 1)
	vague, _ := NewNormal(10, 3)
	g, err := FuseNormals([]Normal{sharp, vague})
	if err != nil {
		t.Fatal(err)
	}
	if want := 1.0; math.Abs(g.Mu-want) > 1e-12 {
		t.Fatalf("precision-weighted mean %v, want %v", g.Mu, want)
	}
	// Single report passes through.
	solo, err := FuseNormals([]Normal{vague})
	if err != nil || solo != vague {
		t.Fatalf("single-report fusion %+v, %v", solo, err)
	}
}

// Fusing two or more uncertain reports must strictly shrink variance
// below every input's — the whole point of consulting more sources.
func TestFuseNormalsShrinksVariance(t *testing.T) {
	r := rng.New(31337)
	for trial := 0; trial < 50; trial++ {
		n := 2 + r.Intn(4)
		reports := make([]Normal, n)
		minVar := math.Inf(1)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range reports {
			nd, err := NewNormal(r.Uniform(-20, 20), 0.2+3*r.Float64())
			if err != nil {
				t.Fatal(err)
			}
			reports[i] = nd
			minVar = math.Min(minVar, nd.Variance())
			lo = math.Min(lo, nd.Mu)
			hi = math.Max(hi, nd.Mu)
		}
		f, err := FuseNormals(reports)
		if err != nil {
			t.Fatal(err)
		}
		if f.Variance() >= minVar {
			t.Fatalf("trial %d: fused variance %v not below min input %v", trial, f.Variance(), minVar)
		}
		if f.Mu < lo-1e-12 || f.Mu > hi+1e-12 {
			t.Fatalf("trial %d: fused mean %v outside report range [%v, %v]", trial, f.Mu, lo, hi)
		}
	}
}

func TestFuseNormalsExactReports(t *testing.T) {
	exact, _ := NewNormal(5, 0)
	noisy, _ := NewNormal(8, 2)
	f, err := FuseNormals([]Normal{noisy, exact})
	if err != nil {
		t.Fatal(err)
	}
	if f.Mu != 5 || f.Sigma != 0 {
		t.Fatalf("exact report should dominate: %+v", f)
	}
	other, _ := NewNormal(6, 0)
	if _, err := FuseNormals([]Normal{exact, other}); err == nil {
		t.Fatal("contradictory exact reports accepted")
	}
	agree, _ := NewNormal(5, 0)
	if f, err := FuseNormals([]Normal{exact, agree}); err != nil || f.Mu != 5 {
		t.Fatalf("agreeing exact reports rejected: %+v, %v", f, err)
	}
	if _, err := FuseNormals(nil); err == nil {
		t.Fatal("empty report list accepted")
	}
}

func TestFuseNormalsDegenerateInputs(t *testing.T) {
	// A sigma whose square underflows to zero must not poison the
	// precision weighting with Inf/Inf = NaN.
	tiny := Normal{Mu: 1, Sigma: 1e-170}
	noisy, _ := NewNormal(2, 1)
	f, err := FuseNormals([]Normal{tiny, noisy})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(f.Mu) || f.Mu != 1 || f.Sigma != 0 {
		t.Fatalf("underflowing sigma should act as an exact report: %+v", f)
	}
	// Hand-built invalid reports (the exported fields bypass NewNormal)
	// are rejected instead of propagating NaN.
	for _, bad := range []Normal{
		{Mu: 0, Sigma: math.NaN()},
		{Mu: math.NaN(), Sigma: 1},
		{Mu: 0, Sigma: -1},
		{Mu: math.Inf(1), Sigma: 1},
	} {
		if _, err := FuseNormals([]Normal{bad, noisy}); err == nil {
			t.Fatalf("invalid report %+v accepted", bad)
		}
	}
}
