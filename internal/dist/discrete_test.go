package dist

import (
	"math"
	"testing"

	"github.com/factcheck/cleansel/internal/numeric"
	"github.com/factcheck/cleansel/internal/rng"
)

func TestConstructorMoments(t *testing.T) {
	tests := []struct {
		name     string
		d        *Discrete
		mean     float64
		variance float64
	}{
		{"uniform3", UniformOver([]float64{9, 10, 11}), 10, 2.0 / 3.0},
		{"point", PointMass(42), 42, 0},
		{"bernoulli-half", Bernoulli(0.5), 0.5, 0.25},
		{"bernoulli-quarter", Bernoulli(0.25), 0.25, 0.25 * 0.75},
		{"bernoulli-sure", Bernoulli(1), 1, 0},
		{"two-point", MustDiscrete([]float64{0, 100}, []float64{0.9, 0.1}), 10, 900},
		{"unnormalized", MustDiscrete([]float64{1, 3}, []float64{2, 6}), 2.5, 0.75},
		{"duplicates", MustDiscrete([]float64{5, 5}, []float64{0.3, 0.7}), 5, 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.d.Mean(); !numeric.AlmostEqual(got, tc.mean, 1e-12) {
				t.Fatalf("mean %v, want %v", got, tc.mean)
			}
			if got := tc.d.Variance(); !numeric.AlmostEqual(got, tc.variance, 1e-12) {
				t.Fatalf("variance %v, want %v", got, tc.variance)
			}
			var sum numeric.KahanAcc
			for _, p := range tc.d.Probs {
				sum.Add(p)
			}
			if !numeric.AlmostEqual(sum.Value(), 1, 1e-12) {
				t.Fatalf("probabilities sum to %v", sum.Value())
			}
		})
	}
}

func TestNewDiscreteValidation(t *testing.T) {
	tests := []struct {
		name   string
		values []float64
		probs  []float64
	}{
		{"empty", nil, nil},
		{"length-mismatch", []float64{1, 2}, []float64{1}},
		{"nan-value", []float64{math.NaN()}, []float64{1}},
		{"inf-value", []float64{math.Inf(1)}, []float64{1}},
		{"negative-prob", []float64{1, 2}, []float64{0.5, -0.5}},
		{"nan-prob", []float64{1}, []float64{math.NaN()}},
		{"inf-prob", []float64{1}, []float64{math.Inf(1)}},
		{"zero-mass", []float64{1, 2}, []float64{0, 0}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewDiscrete(tc.values, tc.probs); err == nil {
				t.Fatal("invalid input accepted")
			}
		})
	}
	if d, err := NewDiscrete([]float64{7}, []float64{3}); err != nil || d.Probs[0] != 1 {
		t.Fatalf("valid input rejected: %v %v", d, err)
	}
}

func TestMustDiscreteAndBernoulliPanic(t *testing.T) {
	assertPanics(t, func() { MustDiscrete(nil, nil) })
	assertPanics(t, func() { Bernoulli(-0.1) })
	assertPanics(t, func() { Bernoulli(1.1) })
	assertPanics(t, func() { LogNormalQuantized(0, 4) })
	assertPanics(t, func() { LogNormalQuantized(0.5, 0) })
}

func assertPanics(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

func TestProbAndPrBelow(t *testing.T) {
	d := MustDiscrete([]float64{1, 2, 2, 4}, []float64{0.1, 0.2, 0.3, 0.4})
	if got := d.Prob(2); !numeric.AlmostEqual(got, 0.5, 1e-12) {
		t.Fatalf("Prob(2) = %v, want duplicate mass 0.5", got)
	}
	if got := d.Prob(3); got != 0 {
		t.Fatalf("Prob(3) = %v, want 0", got)
	}
	if got := d.PrBelow(2); !numeric.AlmostEqual(got, 0.1, 1e-12) {
		t.Fatalf("PrBelow(2) = %v, want strict 0.1", got)
	}
	if got := d.PrBelow(4.5); !numeric.AlmostEqual(got, 1, 1e-12) {
		t.Fatalf("PrBelow(4.5) = %v, want 1", got)
	}
	if got := d.PrBelow(-1); got != 0 {
		t.Fatalf("PrBelow(-1) = %v, want 0", got)
	}
}

func TestLenSizeClone(t *testing.T) {
	d := UniformOver([]float64{1, 2, 3})
	if d.Len() != 3 || d.Size() != 3 {
		t.Fatalf("Len/Size = %d/%d", d.Len(), d.Size())
	}
	c := d.Clone()
	c.Values[0] = 99
	c.Probs[0] = 0
	if d.Values[0] != 1 || d.Probs[0] != 1.0/3.0 {
		t.Fatal("Clone aliases the original")
	}
}

func TestSampleDeterministicUnderSeed(t *testing.T) {
	d := MustDiscrete([]float64{-1, 0, 3, 7}, []float64{0.1, 0.4, 0.3, 0.2})
	a := rng.New(1234)
	b := rng.New(1234)
	for i := 0; i < 200; i++ {
		if va, vb := d.Sample(a), d.Sample(b); va != vb {
			t.Fatalf("draw %d diverged: %v vs %v", i, va, vb)
		}
	}
}

func TestSampleFrequenciesMatchProbs(t *testing.T) {
	d := MustDiscrete([]float64{-1, 0, 3, 7}, []float64{0.1, 0.4, 0.3, 0.2})
	r := rng.New(99)
	const n = 200000
	counts := map[float64]int{}
	for i := 0; i < n; i++ {
		counts[d.Sample(r)]++
	}
	for j, v := range d.Values {
		got := float64(counts[v]) / n
		if math.Abs(got-d.Probs[j]) > 0.01 {
			t.Fatalf("value %v frequency %v, want ≈ %v", v, got, d.Probs[j])
		}
	}
}

func TestSamplePointMassAndZeroProbAtoms(t *testing.T) {
	r := rng.New(5)
	p := PointMass(3)
	for i := 0; i < 10; i++ {
		if p.Sample(r) != 3 {
			t.Fatal("point mass sampled elsewhere")
		}
	}
	// A trailing zero-probability atom must never be drawn.
	d := MustDiscrete([]float64{1, 2}, []float64{1, 0})
	for i := 0; i < 200; i++ {
		if d.Sample(r) != 1 {
			t.Fatal("zero-probability atom drawn")
		}
	}
}

// wideDiscrete builds a support large enough to engage the sorted-index
// fast path, with duplicates and a zero-mass atom mixed in, in an order
// that is deliberately not sorted.
func wideDiscrete(t *testing.T, n int) *Discrete {
	t.Helper()
	values := make([]float64, n)
	probs := make([]float64, n)
	r := rng.New(7)
	for i := range values {
		values[i] = math.Floor(r.Float64()*20) - 10 // many duplicates
		probs[i] = r.Float64()
	}
	probs[n/2] = 0
	d, err := NewDiscrete(values, probs)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestWideSupportMatchesLinearScan(t *testing.T) {
	d := wideDiscrete(t, 10*smallSupport)
	queries := append(append([]float64(nil), d.Values...),
		-100, 100, 0.5, math.Inf(1), math.Inf(-1), math.NaN())
	for _, v := range queries {
		var prob, below numeric.KahanAcc
		for j, sv := range d.Values {
			if sv == v {
				prob.Add(d.Probs[j])
			}
			if sv < v {
				below.Add(d.Probs[j])
			}
		}
		if got := d.Prob(v); !numeric.AlmostEqual(got, prob.Value(), 1e-12) {
			t.Fatalf("Prob(%v) = %v, want %v", v, got, prob.Value())
		}
		if got := d.PrBelow(v); !numeric.AlmostEqual(got, below.Value(), 1e-12) {
			t.Fatalf("PrBelow(%v) = %v, want %v", v, got, below.Value())
		}
	}
}

func TestWideSupportSampleMatchesLinearScan(t *testing.T) {
	d := wideDiscrete(t, 10*smallSupport)
	ref, scan := rng.New(321), rng.New(321)
	for i := 0; i < 5000; i++ {
		// Reference: the pre-index inverse-CDF linear scan.
		u := ref.Float64()
		want := math.NaN()
		cum := 0.0
		for j, p := range d.Probs {
			cum += p
			if u < cum {
				want = d.Values[j]
				break
			}
		}
		if math.IsNaN(want) {
			want = d.Values[len(d.Values)-1]
		}
		if got := d.Sample(scan); got != want {
			t.Fatalf("draw %d: %v, want %v", i, got, want)
		}
	}
}

func TestWideSupportConcurrentQueries(t *testing.T) {
	// First queries race to build the index; all must agree.
	d := wideDiscrete(t, 10*smallSupport)
	want := 0.0
	for j, sv := range d.Values {
		if sv < 0 {
			want += d.Probs[j]
		}
	}
	done := make(chan float64, 8)
	for g := 0; g < 8; g++ {
		go func() { done <- d.PrBelow(0) }()
	}
	for g := 0; g < 8; g++ {
		if got := <-done; !numeric.AlmostEqual(got, want, 1e-9) {
			t.Fatalf("concurrent PrBelow(0) = %v, want %v", got, want)
		}
	}
}

// benchWide builds a 4096-atom law for the index-path benchmarks.
func benchWide(b *testing.B) *Discrete {
	b.Helper()
	n := 4096
	values := make([]float64, n)
	probs := make([]float64, n)
	r := rng.New(11)
	for i := range values {
		values[i] = r.Float64() * 1e6
		probs[i] = r.Float64()
	}
	d, err := NewDiscrete(values, probs)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

func BenchmarkPrBelowWide(b *testing.B) {
	d := benchWide(b)
	d.PrBelow(0) // build the index outside the timer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.PrBelow(float64(i%1000) * 1e3)
	}
}

func BenchmarkSampleWide(b *testing.B) {
	d := benchWide(b)
	r := rng.New(13)
	d.Sample(r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Sample(r)
	}
}

func TestLogNormalQuantized(t *testing.T) {
	for _, k := range []int{1, 2, 5, 6} {
		d := LogNormalQuantized(0.7, k)
		if d.Size() != k {
			t.Fatalf("k=%d: size %d", k, d.Size())
		}
		for j, v := range d.Values {
			if v <= 0 {
				t.Fatalf("k=%d: non-positive value %v", k, v)
			}
			if d.Probs[j] != 1/float64(k) {
				t.Fatalf("k=%d: probability %v not equal-weight", k, d.Probs[j])
			}
			if j > 0 && v <= d.Values[j-1] {
				t.Fatalf("k=%d: values not strictly increasing", k)
			}
		}
	}
	// The median atom of an odd quantization is exp(0) = 1.
	d := LogNormalQuantized(0.7, 5)
	if got := d.Values[2]; !numeric.AlmostEqual(got, 1, 1e-12) {
		t.Fatalf("median atom %v, want 1", got)
	}
}

func TestDiscreteSampleRespectsDistributionShift(t *testing.T) {
	// Two disjoint supports sampled from split streams of one seed stay
	// reproducible — the per-goroutine idiom the Monte-Carlo engines use.
	d1 := UniformOver([]float64{0, 1})
	d2 := UniformOver([]float64{10, 20, 30})
	root := rng.New(2024)
	s1, s2 := root.Split(), root.Split()
	root2 := rng.New(2024)
	t1, t2 := root2.Split(), root2.Split()
	for i := 0; i < 50; i++ {
		if d1.Sample(s1) != d1.Sample(t1) || d2.Sample(s2) != d2.Sample(t2) {
			t.Fatal("split streams diverged")
		}
	}
}

// An ascending support skips the index's stable sort, which would be the
// identity: the first PrBelow on a 100-point ascending law allocates
// only the index and its three tables, not an order slice and what
// sort.SliceStable allocates to sort it.
func TestAscendingIndexSkipsSort(t *testing.T) {
	const n, runs = 100, 50
	values := make([]float64, n)
	probs := make([]float64, n)
	for i := range values {
		values[i] = float64(i)*0.5 - 20
		probs[i] = 1.0 / n
	}
	values[n/2] = values[n/2-1] // a tie keeps the support non-decreasing
	laws := make([]*Discrete, runs+1)
	for i := range laws {
		laws[i] = &Discrete{Values: values, Probs: probs}
	}
	i := 0
	if allocs := testing.AllocsPerRun(runs, func() {
		laws[i].PrBelow(3)
		i++
	}); allocs != 4 {
		t.Fatalf("first PrBelow on an ascending law allocated %v times, want 4", allocs)
	}
}

// A shuffled support and its stably sorted twin build the same sorted
// tables, so every PrBelow agrees to the bit; the twin, being ascending,
// skips the sort.
func TestShuffledSupportMatchesSortedTwin(t *testing.T) {
	shuffled := wideDiscrete(t, 10*smallSupport)
	order := sortedOrder(shuffled.Values)
	if order == nil {
		t.Fatal("wideDiscrete support is already ascending")
	}
	twin := &Discrete{Values: make([]float64, len(order)), Probs: make([]float64, len(order))}
	for i, j := range order {
		twin.Values[i], twin.Probs[i] = shuffled.Values[j], shuffled.Probs[j]
	}
	if sortedOrder(twin.Values) != nil {
		t.Fatal("sorted twin is not ascending")
	}
	queries := append(append([]float64(nil), shuffled.Values...),
		-100, 100, 0.5, -0.0, math.Inf(1), math.Inf(-1), math.NaN())
	for _, v := range queries {
		if got, want := twin.PrBelow(v), shuffled.PrBelow(v); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("PrBelow(%v): sorted twin %v, shuffled %v", v, got, want)
		}
	}
	// A NaN in the support is never taken for ascending.
	if sortedOrder([]float64{1, math.NaN(), 2}) == nil {
		t.Fatal("support with NaN taken for ascending")
	}
}
