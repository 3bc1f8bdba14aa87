package dist

import (
	"math"
	"sync"
	"testing"

	"github.com/factcheck/cleansel/internal/obs"
	"github.com/factcheck/cleansel/internal/rng"
)

// negZero is −0.0, which a literal cannot spell.
var negZero = math.Copysign(0, -1)

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

// randomSupport draws one support of the given size from one of the
// families the merge must match the hashed kernel on: integers, dyadic
// fractions, multiples of 1/7, reals, and ±1e12 reals (relative grid)
// or integers (exact grid). Some draws carry a duplicate value, a −0
// atom or a zero-mass atom (+0 or −0 mass).
func randomSupport(r *rng.RNG, size int) *Discrete {
	kind := r.Intn(6)
	vals := make([]float64, size)
	for j := range vals {
		switch kind {
		case 0:
			vals[j] = float64(r.IntRange(-50, 51))
		case 1:
			vals[j] = float64(r.IntRange(-400, 401)) / float64(int64(1)<<r.Intn(7))
		case 2:
			vals[j] = float64(r.IntRange(-100, 101)) / 7
		case 3:
			vals[j] = r.Uniform(-10, 10)
		case 4:
			vals[j] = r.Uniform(-1e12, 1e12)
		default:
			vals[j] = float64(r.IntRange(-1000, 1001)) * 1e9
		}
	}
	if size > 1 && r.Intn(4) == 0 {
		vals[r.Intn(size)] = vals[r.Intn(size)]
	}
	if r.Intn(6) == 0 {
		vals[r.Intn(size)] = negZero
	}
	probs := make([]float64, size)
	for j := range probs {
		probs[j] = r.Uniform(0.05, 1)
	}
	if size > 1 && r.Intn(4) == 0 {
		probs[r.Intn(size)] = [2]float64{0, negZero}[r.Intn(2)]
	}
	return MustDiscrete(vals, probs)
}

// randomWeight draws a weight: zero (either sign), a small integer of
// either sign, a dyadic or non-dyadic fraction, or a real.
func randomWeight(r *rng.RNG) float64 {
	switch r.Intn(7) {
	case 0:
		return [2]float64{0, negZero}[r.Intn(2)]
	case 1:
		return float64(r.IntRange(-3, 4))
	case 2:
		return [4]float64{0.5, -0.25, 1.0 / 3, 0.1}[r.Intn(4)]
	case 3:
		return -1
	default:
		return r.Uniform(-2, 2)
	}
}

// randomConv draws one convolution: one to four parts of 1–6 points,
// or, one case in ten, a part of up to 100 points and at most one part
// of up to 6, with random weights and an offset that is ±0, an integer,
// a multiple of 1/7, a real, or ±1e12.
func randomConv(r *rng.RNG) (offset float64, weights []float64, parts []*Discrete) {
	sizes := make([]int, 1+r.Intn(4))
	for i := range sizes {
		sizes[i] = 1 + r.Intn(6)
	}
	if r.Intn(10) == 0 {
		sizes = append(sizes[:r.Intn(2)], 1+r.Intn(100))
	}
	for _, size := range sizes {
		parts = append(parts, randomSupport(r, size))
		weights = append(weights, randomWeight(r))
	}
	switch r.Intn(6) {
	case 0:
		offset = [2]float64{0, negZero}[r.Intn(2)]
	case 1:
		offset = float64(r.IntRange(-20, 21))
	case 2:
		offset = float64(r.IntRange(-100, 101)) / 7
	case 3:
		offset = r.Uniform(-1e12, 1e12)
	default:
		offset = r.Uniform(-5, 5)
	}
	return offset, weights, parts
}

// diffMergeHashed runs one convolution through weightedSum, the path
// behind WeightedSum and WeightedSumRec, and through the hashed
// reference, and asserts the laws (values and masses as bits) and both
// work counters are identical. It reports false when the inputs fail
// validation, which neither kernel then sees.
func diffMergeHashed(t *testing.T, offset float64, weights []float64, parts []*Discrete) bool {
	t.Helper()
	grid, _, err := ConvGrid(offset, weights, parts)
	if err != nil {
		return false
	}
	var stMerge, stHashed convStats
	got, errMerge := weightedSum(&stMerge, offset, weights, parts)
	want, errHashed := weightedSumMap(&stHashed, grid, offset, weights, parts)
	if (errMerge == nil) != (errHashed == nil) {
		t.Fatalf("errors differ: merge %v, hashed %v", errMerge, errHashed)
	}
	if errMerge == nil {
		assertSameLaw(t, got, want)
	}
	if stMerge != stHashed {
		t.Fatalf("counters differ: merge %+v, hashed %+v", stMerge, stHashed)
	}
	return true
}

// TestMergeMatchesHashed pins the convolution merge to the hashed-key
// convolution it replaced, bit for bit, on 100,000 seeded convolutions
// that cover every grid regime (checked below), supports of 1 to 100
// points, −0 atoms and offsets, zero and negative weights, duplicate
// values and zero-mass atoms.
func TestMergeMatchesHashed(t *testing.T) {
	const cases = 100_000
	r := rng.New(0x6d65726765)
	regimes := map[string]int{}
	for c := 0; c < cases; c++ {
		offset, weights, parts := randomConv(r)
		if !diffMergeHashed(t, offset, weights, parts) {
			t.Fatalf("case %d failed validation", c)
		}
		g, reach, _ := ConvGrid(offset, weights, parts)
		if _, exact := exactPow2Scale(offset, reach, weights, parts); g.IsDefault() {
			regimes["legacy"]++
		} else if exact {
			regimes["exact"]++
		} else {
			regimes["relative"]++
		}
	}
	for _, regime := range []string{"legacy", "exact", "relative"} {
		if regimes[regime] < cases/100 {
			t.Errorf("only %d of %d cases on the %s grid", regimes[regime], cases, regime)
		}
	}
	// A Discrete built by hand can have no support: both kernels return
	// the empty-support error, neither panics.
	diffMergeHashed(t, 0.1, []float64{1, 1}, []*Discrete{{}, PointMass(1)})
}

// FuzzMergeVsHashed is the native fuzz twin of TestMergeMatchesHashed:
// the fuzzer picks the offset and two weights, the seed draws the parts.
func FuzzMergeVsHashed(f *testing.F) {
	f.Add(uint64(1), 0.0, 1.0, 1.0)
	f.Add(uint64(2), negZero, 0.1, -0.3)
	f.Add(uint64(3), 1.0/7, 2.0, 0.0)
	f.Add(uint64(4), -4e11, 1.5, -1.0)
	f.Add(uint64(5), 12345.0, 3.0, 1.0/3)
	f.Fuzz(func(t *testing.T, seed uint64, offset, w0, w1 float64) {
		r := rng.New(seed)
		parts := []*Discrete{randomSupport(r, 1+r.Intn(12)), randomSupport(r, 1+r.Intn(12))}
		diffMergeHashed(t, offset, []float64{w0, w1}, parts)
	})
}

// TestWeightedSumDenseMatchesMap runs named edge shapes through
// diffMergeHashed: dense lattice and off-lattice supports on each grid,
// collisions, zero weights and masses, −0 offsets, atoms and masses,
// hundred-point parts and BenchmarkWeightedSumWide's shape. The shapes
// were first written for a dense lattice kernel, since deleted; the
// names that say "falls back" mark the shapes its exactness
// certificate refused.
func TestWeightedSumDenseMatchesMap(t *testing.T) {
	wideOffset, wideWeights, wideParts := wideConvWorkload()
	cases := []struct {
		name    string
		offset  float64
		weights []float64
		parts   []*Discrete
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
		},
		{
			name:    "legacy grid dyadic quarters",
			offset:  0.25,
			weights: []float64{1, 1},
			parts: []*Discrete{
				UniformOver([]float64{-0.75, 0.5, 2.25}),
				UniformOver([]float64{0, 0.25, 1}),
			},
		},
		{
			name:    "exact grid wide integers with common factor",
			offset:  12345,
			weights: []float64{1, 2},
			parts: []*Discrete{
				UniformOver([]float64{-3e10, 1e10, 7e10}),
				UniformOver([]float64{2e10, 5e10}),
			},
		},
		{
			name:    "colliding sums merge identically",
			offset:  0,
			weights: []float64{1, 1},
			parts: []*Discrete{
				MustDiscrete([]float64{0, 1, 2}, []float64{0.25, 0.5, 0.25}),
				MustDiscrete([]float64{0, 1, 2}, []float64{0.5, 0.25, 0.25}),
			},
		},
		{
			name:    "zero-probability atoms stay in the support",
			offset:  1,
			weights: []float64{1, 1},
			parts: []*Discrete{
				MustDiscrete([]float64{0, 3}, []float64{1, 0}),
				MustDiscrete([]float64{0, 1}, []float64{0.5, 0.5}),
			},
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
		},
		{
			name:    "all weights zero",
			offset:  7,
			weights: []float64{0},
			parts:   []*Discrete{UniformOver([]float64{1, 2})},
		},
		{
			name:    "negative offset negative values",
			offset:  -1000,
			weights: []float64{3, -2},
			parts: []*Discrete{
				UniformOver([]float64{-5, -1, 4}),
				UniformOver([]float64{-8, 0, 2}),
			},
		},
		{
			name:    "non-dyadic values fall back",
			offset:  0,
			weights: []float64{1, 1},
			parts: []*Discrete{
				UniformOver([]float64{0.1, 0.2}),
				UniformOver([]float64{1.0 / 3, 2}),
			},
		},
		{
			name:    "negative-zero offset falls back",
			offset:  negZero,
			weights: []float64{1},
			parts:   []*Discrete{UniformOver([]float64{0, 1})},
		},
		{
			name:    "sparse wide span falls back on fanout",
			offset:  0,
			weights: []float64{1},
			parts:   []*Discrete{UniformOver([]float64{0, 1, 1e6})},
		},
		{
			name:    "legacy grid past exact keys falls back",
			offset:  0,
			weights: []float64{1},
			// reach 9.9e7 ≤ QuantizeMaxAbs keeps the legacy grid, but
			// 9.9e7·1e9 > 2^53 so keys are no longer exact products.
			parts: []*Discrete{UniformOver([]float64{9.9e7, -9.9e7, 1})},
		},
		{name: "no parts", offset: 3.5},
		{
			name:    "negative-zero offset and atom",
			offset:  negZero,
			weights: []float64{1},
			parts:   []*Discrete{UniformOver([]float64{negZero, 0.1})},
		},
		{
			name:    "single-point parts",
			offset:  0.1,
			weights: []float64{0.3, -0.7},
			parts:   []*Discrete{PointMass(1.0 / 3), PointMass(2.0 / 7)},
		},
		{
			name:    "all products on one key",
			offset:  0,
			weights: []float64{1, -1},
			parts:   []*Discrete{UniformOver([]float64{0.1, 0.1, 0.1}), UniformOver([]float64{0.1, 0.1})},
		},
		{
			name:    "negative-zero mass",
			offset:  0.5,
			weights: []float64{2.5},
			parts:   []*Discrete{MustDiscrete([]float64{1, 2, 3}, []float64{0, 1, negZero})},
		},
		{
			name:    "hundred-point parts",
			offset:  1.0 / 7,
			weights: []float64{0.1, -3},
			parts:   []*Discrete{randomSupport(rng.New(1), 100), randomSupport(rng.New(2), 100)},
		},
		{name: "wide benchmark shape", offset: wideOffset, weights: wideWeights, parts: wideParts},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if !diffMergeHashed(t, c.offset, c.weights, c.parts) {
				t.Fatal("failed validation")
			}
		})
	}
}

// mergeCounts returns the conv_ops and conv_atoms_merged counts of one
// convolution, run on the merge directly.
func mergeCounts(t *testing.T, offset float64, weights []float64, parts []*Discrete) convStats {
	t.Helper()
	grid, _, err := ConvGrid(offset, weights, parts)
	if err != nil {
		t.Fatal(err)
	}
	var st convStats
	if _, err := weightedSumMerge(&st, grid, offset, weights, parts); err != nil {
		t.Fatal(err)
	}
	return st
}

// recordedCounters returns rec's counters by name.
func recordedCounters(rec *obs.Recorder) map[string]int64 {
	got := map[string]int64{}
	for _, c := range rec.Snapshot().Counters {
		got[c.Name] = c.Value
	}
	return got
}

// TestDenseCountersReachRecorder is the TestRecorderIsOffPath companion
// for the wide lattice workload (the dense shape, which once took a
// kernel of its own): the conv_ops/conv_atoms_merged counters a recorded
// convolution reports must equal the merge's counts, and they are the
// only counters it reports.
func TestDenseCountersReachRecorder(t *testing.T) {
	offset, weights, parts := wideConvWorkload()
	rec := obs.NewRecorder(nil)
	if _, err := WeightedSumRec(rec, offset, weights, parts); err != nil {
		t.Fatal(err)
	}
	got := recordedCounters(rec)
	st := mergeCounts(t, offset, weights, parts)
	if len(got) != 2 || got["conv_ops"] != st.ops || got["conv_atoms_merged"] != st.merged {
		t.Fatalf("counters %v, want conv_ops %d and conv_atoms_merged %d", got, st.ops, st.merged)
	}
	if st.ops == 0 || st.merged == 0 {
		t.Fatal("workload should both convolve and merge")
	}
}

// TestConvRouteCounters pins the counters of a run of convolutions
// without a clock: every route, lattice or off-lattice, is the merge, so
// each recorded convolution adds exactly the merge's counts, no
// per-route counter is reported, and one that fails validation ticks
// nothing.
func TestConvRouteCounters(t *testing.T) {
	rec := obs.NewRecorder(nil)
	offset, weights, parts := wideConvWorkload()
	if _, err := WeightedSumRec(rec, offset, weights, parts); err != nil {
		t.Fatal(err)
	}
	want := mergeCounts(t, offset, weights, parts)
	offLattice := []*Discrete{UniformOver([]float64{0.1, 0.2}), UniformOver([]float64{1.0 / 3, 2})}
	for k := 0; k < 2; k++ {
		if _, err := WeightedSumRec(rec, 0, []float64{1, 1}, offLattice); err != nil {
			t.Fatal(err)
		}
		st := mergeCounts(t, 0, []float64{1, 1}, offLattice)
		want.ops += st.ops
		want.merged += st.merged
	}
	if _, err := WeightedSumRec(rec, math.NaN(), []float64{1}, offLattice[:1]); err == nil {
		t.Fatal("a NaN offset convolved")
	}
	got := recordedCounters(rec)
	if len(got) != 2 || got["conv_ops"] != want.ops || got["conv_atoms_merged"] != want.merged {
		t.Fatalf("counters %v, want conv_ops %d and conv_atoms_merged %d", got, want.ops, want.merged)
	}
}

// TestMergeScratchConcurrent runs convolutions on many goroutines at
// once (the serving path runs solves in parallel): every goroutine must
// get bit-identical results while the merge's scratch buffers recycle
// through sync.Pool. Run under -race in CI.
func TestMergeScratchConcurrent(t *testing.T) {
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
