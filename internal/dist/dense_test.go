package dist

import (
	"math"
	"sync"
	"testing"

	"github.com/factcheck/cleansel/internal/obs"
	"github.com/factcheck/cleansel/internal/rng"
)

// assertSameLaw asserts two laws are bit-identical: same support, same
// probabilities, compared on the raw float64 bits (so ±0.0 and exact
// round-off placement both count).
func assertSameLaw(t *testing.T, got, want *Discrete) {
	t.Helper()
	if got.Size() != want.Size() {
		t.Fatalf("support sizes differ: %d vs %d", got.Size(), want.Size())
	}
	for i := range want.Values {
		if math.Float64bits(got.Values[i]) != math.Float64bits(want.Values[i]) {
			t.Fatalf("value %d: %v (%#x) vs %v (%#x)",
				i, got.Values[i], math.Float64bits(got.Values[i]),
				want.Values[i], math.Float64bits(want.Values[i]))
		}
		if math.Float64bits(got.Probs[i]) != math.Float64bits(want.Probs[i]) {
			t.Fatalf("prob %d (value %v): %v vs %v", i, want.Values[i], got.Probs[i], want.Probs[i])
		}
	}
}

// diffWeightedSum runs one convolution through the public path and
// through the forced merge (the path a failed certificate falls to),
// asserts both laws and both trace-counter sets are bit-identical, pins
// the merge to the hashed reference, and reports whether the dense
// kernel engaged.
func diffWeightedSum(t *testing.T, offset float64, weights []float64, parts []*Discrete) bool {
	t.Helper()
	grid, reach, err := ConvGrid(offset, weights, parts)
	if err != nil {
		t.Fatal(err)
	}
	var stAuto, stMerge convStats
	auto, err := weightedSum(&stAuto, offset, weights, parts)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := weightedSumMerge(&stMerge, grid, offset, weights, parts)
	if err != nil {
		t.Fatal(err)
	}
	assertSameLaw(t, auto, ref)
	_, dense := weightedSumLattice(offset, weights, parts, grid, reach)
	stMerge.route = convMerge
	if dense {
		stMerge.route = convDense
	}
	if stAuto != stMerge {
		t.Fatalf("trace counters diverge: auto %+v vs merge %+v", stAuto, stMerge)
	}
	diffMergeHashed(t, offset, weights, parts)
	return dense
}

// TestWeightedSumDenseMatchesMap runs each shape through diffWeightedSum
// and pins whether it certifies for the dense kernel.
func TestWeightedSumDenseMatchesMap(t *testing.T) {
	cases := []struct {
		name    string
		offset  float64
		weights []float64
		parts   []*Discrete
		dense   bool
	}{
		{
			name:    "legacy grid small integers",
			offset:  3,
			weights: []float64{1, 2, 1},
			parts: []*Discrete{
				UniformOver([]float64{-2, 0, 1, 5}),
				UniformOver([]float64{10, 11, 13}),
				UniformOver([]float64{-7, 7}),
			},
			dense: true,
		},
		{
			name:    "legacy grid dyadic quarters",
			offset:  0.25,
			weights: []float64{1, 1},
			parts: []*Discrete{
				UniformOver([]float64{-0.75, 0.5, 2.25}),
				UniformOver([]float64{0, 0.25, 1}),
			},
			dense: true,
		},
		{
			name:    "exact grid wide integers with common factor",
			offset:  12345,
			weights: []float64{1, 2},
			parts: []*Discrete{
				UniformOver([]float64{-3e10, 1e10, 7e10}),
				UniformOver([]float64{2e10, 5e10}),
			},
			dense: true,
		},
		{
			name:    "colliding sums merge identically",
			offset:  0,
			weights: []float64{1, 1},
			parts: []*Discrete{
				MustDiscrete([]float64{0, 1, 2}, []float64{0.25, 0.5, 0.25}),
				MustDiscrete([]float64{0, 1, 2}, []float64{0.5, 0.25, 0.25}),
			},
			dense: true,
		},
		{
			name:    "zero-probability atoms stay in the support",
			offset:  1,
			weights: []float64{1, 1},
			parts: []*Discrete{
				MustDiscrete([]float64{0, 3}, []float64{1, 0}),
				MustDiscrete([]float64{0, 1}, []float64{0.5, 0.5}),
			},
			dense: true,
		},
		{
			name:    "zero weights drop layers",
			offset:  -4,
			weights: []float64{0, 1, 0},
			parts: []*Discrete{
				UniformOver([]float64{1e300, -1e300}), // skipped entirely
				UniformOver([]float64{1, 2}),
				UniformOver([]float64{5}),
			},
			dense: true,
		},
		{
			name:    "all weights zero",
			offset:  7,
			weights: []float64{0},
			parts:   []*Discrete{UniformOver([]float64{1, 2})},
			dense:   true,
		},
		{
			name:    "negative offset negative values",
			offset:  -1000,
			weights: []float64{3, -2},
			parts: []*Discrete{
				UniformOver([]float64{-5, -1, 4}),
				UniformOver([]float64{-8, 0, 2}),
			},
			dense: true,
		},
		{
			name:    "non-dyadic values fall back",
			offset:  0,
			weights: []float64{1, 1},
			parts: []*Discrete{
				UniformOver([]float64{0.1, 0.2}),
				UniformOver([]float64{1.0 / 3, 2}),
			},
			dense: false,
		},
		{
			name:    "negative-zero offset falls back",
			offset:  math.Copysign(0, -1),
			weights: []float64{1},
			parts:   []*Discrete{UniformOver([]float64{0, 1})},
			dense:   false,
		},
		{
			name:    "sparse wide span falls back on fanout",
			offset:  0,
			weights: []float64{1},
			parts:   []*Discrete{UniformOver([]float64{0, 1, 1e6})},
			dense:   false,
		},
		{
			name:    "legacy grid past exact keys falls back",
			offset:  0,
			weights: []float64{1},
			// reach 9.9e7 ≤ QuantizeMaxAbs keeps the legacy grid, but
			// 9.9e7·1e9 > 2^53 so keys are no longer exact products.
			parts: []*Discrete{UniformOver([]float64{9.9e7, -9.9e7, 1})},
			dense: false,
		},
		{name: "no parts", offset: 3.5, dense: true},
		{
			name:    "negative-zero offset and atom",
			offset:  negZero,
			weights: []float64{1},
			parts:   []*Discrete{UniformOver([]float64{negZero, 0.1})},
			dense:   false,
		},
		{
			name:    "single-point parts",
			offset:  0.1,
			weights: []float64{0.3, -0.7},
			parts:   []*Discrete{PointMass(1.0 / 3), PointMass(2.0 / 7)},
			dense:   false,
		},
		{
			name:    "all products on one key",
			offset:  0,
			weights: []float64{1, -1},
			parts:   []*Discrete{UniformOver([]float64{0.1, 0.1, 0.1}), UniformOver([]float64{0.1, 0.1})},
			dense:   false,
		},
		{
			name:    "negative-zero mass",
			offset:  0.5,
			weights: []float64{2.5},
			parts:   []*Discrete{MustDiscrete([]float64{1, 2, 3}, []float64{0, 1, negZero})},
			dense:   true,
		},
		{
			name:    "hundred-point parts",
			offset:  1.0 / 7,
			weights: []float64{0.1, -3},
			parts:   []*Discrete{randomSupport(rng.New(1), 100), randomSupport(rng.New(2), 100)},
			dense:   false,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := diffWeightedSum(t, c.offset, c.weights, c.parts); got != c.dense {
				t.Errorf("dense engagement = %v, want %v", got, c.dense)
			}
		})
	}
}

// TestWeightedSumWideBenchShapeIsDense pins that the workload the
// BENCH_parallel.json speedup gate measures actually runs the dense
// kernel, and bit-identically to the merge and the hashed reference.
func TestWeightedSumWideBenchShapeIsDense(t *testing.T) {
	offset, weights, parts := wideConvWorkload()
	if !diffWeightedSum(t, offset, weights, parts) {
		t.Fatal("the wide bench workload no longer takes the dense path")
	}
}

// TestDenseCountersReachRecorder is the TestRecorderIsOffPath companion
// for the dense path: the conv_ops/conv_atoms_merged counters a recorded
// convolution reports must equal the merge's counts even when the dense
// kernel did the work.
func TestDenseCountersReachRecorder(t *testing.T) {
	offset, weights, parts := wideConvWorkload()
	rec := obs.NewRecorder(nil)
	if _, err := WeightedSumRec(rec, offset, weights, parts); err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	for _, c := range rec.Snapshot().Counters {
		got[c.Name] = c.Value
	}
	grid, _, err := ConvGrid(offset, weights, parts)
	if err != nil {
		t.Fatal(err)
	}
	var st convStats
	if _, err := weightedSumMerge(&st, grid, offset, weights, parts); err != nil {
		t.Fatal(err)
	}
	if got["conv_ops"] != st.ops || got["conv_atoms_merged"] != st.merged {
		t.Fatalf("dense-path counters {ops %d, merged %d} vs merge {ops %d, merged %d}",
			got["conv_ops"], got["conv_atoms_merged"], st.ops, st.merged)
	}
	if st.ops == 0 || st.merged == 0 {
		t.Fatal("workload should both convolve and merge")
	}
}

// TestMapSizeHint is the regression test for the hashed reference's
// layer-hint overflow: the pre-fix code handed make() the raw product
// len(probs)·Size(), which overflows int on adversarial sizes (a
// negative make size panics) and overshoots real layers by orders of
// magnitude. The hint must stay within [0, maxConvMapHint] for every
// input.
func TestMapSizeHint(t *testing.T) {
	cases := []struct {
		n, m, want int
	}{
		{0, 5, 0},
		{5, 0, 0},
		{-3, 7, 0},
		{7, -3, 0},
		{10, 12, 120},
		{256, 256, maxConvMapHint},
		{maxConvMapHint, 2, maxConvMapHint},
		{math.MaxInt, math.MaxInt, maxConvMapHint}, // pre-fix: n*m overflows to 1
		{math.MaxInt/2 + 1, 2, maxConvMapHint},     // pre-fix: n*m overflows negative, make panics
		{3, math.MaxInt, maxConvMapHint},
	}
	for _, c := range cases {
		got := mapSizeHint(c.n, c.m)
		if got != c.want {
			t.Errorf("mapSizeHint(%d, %d) = %d, want %d", c.n, c.m, got, c.want)
		}
		_ = make(map[int64]float64, got) // the pre-fix panic this guards against
	}
}

// TestDenseScratchConcurrent exercises the scratch-buffer pools of both
// kernels from concurrent convolutions (the serving path runs solves in
// parallel): every goroutine must get bit-identical results while
// buffers recycle through sync.Pool. Run under -race in CI.
func TestDenseScratchConcurrent(t *testing.T) {
	type conv struct {
		name    string
		offset  float64
		weights []float64
		parts   []*Discrete
		ref     *Discrete
	}
	offset, weights, parts := wideConvWorkload()
	convs := []*conv{
		{name: "wide", offset: offset, weights: weights, parts: parts},
		{name: "small", offset: 1, weights: []float64{2}, parts: []*Discrete{UniformOver([]float64{-2, 0.5, 3})}},
		{name: "off-lattice", offset: 0.1, weights: []float64{1.5, -0.3}, parts: []*Discrete{
			UniformOver([]float64{0.1, 0.2, 7}), UniformOver([]float64{1.0 / 3, 2, 5})}},
	}
	for _, c := range convs {
		ref, err := WeightedSum(c.offset, c.weights, c.parts)
		if err != nil {
			t.Fatal(err)
		}
		c.ref = ref
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				for _, c := range convs {
					d, err := WeightedSum(c.offset, c.weights, c.parts)
					if err != nil {
						errs <- err.Error()
						return
					}
					for j := range c.ref.Values {
						if d.Values[j] != c.ref.Values[j] || d.Probs[j] != c.ref.Probs[j] {
							errs <- c.name + " convolution diverged across goroutines"
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// FuzzDenseVsMap is the differential pin of the dense kernel: whatever
// the regime (legacy grid, exact dyadic grid, relative grid — seeds
// cover all three), the public convolution and the forced merge must
// produce bit-identical laws and identical trace counters, and the merge
// must match the hashed-map reference.
func FuzzDenseVsMap(f *testing.F) {
	f.Add(uint64(1), 0.0, 1.0, 1.0, 100.0, uint8(0))    // legacy grid, integers
	f.Add(uint64(2), 12345.0, 2.0, 1.0, 1e11, uint8(0)) // exact grid, wide integers
	f.Add(uint64(3), 0.25, 1.0, 0.5, 50.0, uint8(1))    // legacy grid, quarters
	f.Add(uint64(4), 0.1, 1.5, -0.5, 9e11, uint8(2))    // relative grid, fractional
	f.Add(uint64(5), -3.0, 0.0, 1.0, 1e6, uint8(0))     // zero weight
	f.Add(uint64(6), 1e8, 1.0, 1.0, 1e8, uint8(1))      // straddles the legacy ceiling
	f.Fuzz(func(t *testing.T, seed uint64, offset, w0, w1, mag float64, mode uint8) {
		if math.IsNaN(offset) || math.IsInf(offset, 0) ||
			math.IsNaN(w0) || math.IsInf(w0, 0) || math.IsNaN(w1) || math.IsInf(w1, 0) ||
			math.IsNaN(mag) || math.IsInf(mag, 0) {
			t.Skip()
		}
		mag = math.Abs(mag)
		if mag > 1e14 || math.Abs(offset) > 1e14 || math.Abs(w0) > 1e6 || math.Abs(w1) > 1e6 {
			t.Skip()
		}
		r := rng.New(seed)
		shape := func() *Discrete {
			switch mode % 3 {
			case 0:
				return fuzzSupport(r, mag, true) // integral
			case 1: // dyadic: integers over a random power-of-two denominator
				den := float64(int64(1) << (r.Intn(13)))
				size := 2 + r.Intn(4)
				vals := make([]float64, size)
				for j := range vals {
					vals[j] = math.Round(r.Uniform(-mag, mag)) / den
				}
				return UniformOver(vals)
			default:
				return fuzzSupport(r, mag, false) // fractional: usually map fallback
			}
		}
		parts := []*Discrete{shape(), shape()}
		weights := []float64{w0, w1}
		if _, _, err := ConvGrid(offset, weights, parts); err != nil {
			t.Skip() // reach overflow: out of scope here
		}
		diffWeightedSum(t, offset, weights, parts)
	})
}
