package dist

import (
	"math"
	"testing"

	"github.com/factcheck/cleansel/internal/obs"
	"github.com/factcheck/cleansel/internal/rng"
)

// negZero is −0.0, which a literal cannot spell.
var negZero = math.Copysign(0, -1)

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

// diffMergeHashed runs one convolution through the merge and through
// the hashed reference and asserts the laws (values and masses as bits)
// and both work counters are identical. It reports false when the inputs
// fail validation, which neither kernel then sees.
func diffMergeHashed(t *testing.T, offset float64, weights []float64, parts []*Discrete) bool {
	t.Helper()
	grid, _, err := ConvGrid(offset, weights, parts)
	if err != nil {
		return false
	}
	var stMerge, stHashed convStats
	got, errMerge := weightedSumMerge(&stMerge, grid, offset, weights, parts)
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

// TestMergeMatchesHashed pins the off-lattice merge to the hashed-key
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

// TestConvRouteCounters pins the route counters without a clock: each
// recorded convolution ticks conv_dense or conv_merge once, and one that
// fails validation ticks neither.
func TestConvRouteCounters(t *testing.T) {
	rec := obs.NewRecorder(nil)
	offset, weights, parts := wideConvWorkload()
	if _, err := WeightedSumRec(rec, offset, weights, parts); err != nil {
		t.Fatal(err)
	}
	offLattice := []*Discrete{UniformOver([]float64{0.1, 0.2}), UniformOver([]float64{1.0 / 3, 2})}
	for k := 0; k < 2; k++ {
		if _, err := WeightedSumRec(rec, 0, []float64{1, 1}, offLattice); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := WeightedSumRec(rec, math.NaN(), []float64{1}, offLattice[:1]); err == nil {
		t.Fatal("a NaN offset convolved")
	}
	got := map[string]int64{}
	for _, c := range rec.Snapshot().Counters {
		got[c.Name] = c.Value
	}
	if got[convDense] != 1 || got[convMerge] != 2 {
		t.Fatalf("routes: %d dense, %d merge; want 1 and 2", got[convDense], got[convMerge])
	}
}
