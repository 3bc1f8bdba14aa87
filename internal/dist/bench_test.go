package dist

import (
	"fmt"
	"math"
	"testing"

	"github.com/factcheck/cleansel/internal/numeric"
	"github.com/factcheck/cleansel/internal/rng"
)

// wideConvWorkload builds the reach≈1e12 integer workload of
// BenchmarkWeightedSumWide: eight 4-point integer supports around 1e11
// on the exact integer grid — the scale-aware regime the fixed 1e-9
// grid used to reject, and a shape whose 4^8 product state space
// collapses onto at most ~3e4 distinct sums, all multiples of 1e8.
func wideConvWorkload() (offset float64, weights []float64, parts []*Discrete) {
	r := rng.New(7)
	const nParts = 8
	parts = make([]*Discrete, nParts)
	weights = make([]float64, nParts)
	for i := range parts {
		vals := make([]float64, 4)
		for j := range vals {
			vals[j] = float64(r.IntRange(-1000, 1001)) * 1e8
		}
		parts[i] = UniformOver(vals)
		weights[i] = float64(r.IntRange(1, 3))
	}
	return 12345, weights, parts
}

// BenchmarkWeightedSumWide convolves the wide integer workload through
// the public path. scripts/bench.sh records it into BENCH_parallel.json,
// ungated, so regressions in the wide-magnitude convolution are visible
// next to the parallel numbers.
func BenchmarkWeightedSumWide(b *testing.B) {
	offset, weights, parts := wideConvWorkload()
	g, reach, err := ConvGrid(offset, weights, parts)
	if err != nil {
		b.Fatal(err)
	}
	if reach < 1e11 || g.IsDefault() {
		b.Fatalf("workload not wide: reach %v, scale %v", reach, g.Scale())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := WeightedSum(offset, weights, parts); err != nil {
			b.Fatal(err)
		}
	}
}

// supportsWorkload builds a convolution of k-point integer supports
// under real weights, the shape select_maxpr convolves, with as
// many parts (at least two) as keep the final layer at or under 2^14
// product states.
func supportsWorkload(k int) (offset float64, weights []float64, parts []*Discrete) {
	r := rng.New(uint64(k))
	n := max(2, int(math.Log(1<<14)/math.Log(float64(k))))
	for i := 0; i < n; i++ {
		vals := make([]float64, k)
		for j := range vals {
			vals[j] = float64(r.IntRange(0, 1000))
		}
		parts = append(parts, UniformOver(vals))
		weights = append(weights, r.Uniform(0.1, 1))
	}
	return 0.5, weights, parts
}

// BenchmarkWeightedSumSupports times the hashed reference against the
// merge on convolutions of 2- to 100-point supports, so
// that "no support size is slower than hashing" can be rechecked:
//
//	go test -run '^$' -bench BenchmarkWeightedSumSupports ./internal/dist
func BenchmarkWeightedSumSupports(b *testing.B) {
	kernels := []struct {
		name string
		run  func(*convStats, numeric.Grid, float64, []float64, []*Discrete) (*Discrete, error)
	}{
		{"hashed", weightedSumMap},
		{"merge", weightedSumMerge},
	}
	for _, k := range []int{2, 6, 16, 64, 100} {
		offset, weights, parts := supportsWorkload(k)
		grid, _, err := ConvGrid(offset, weights, parts)
		if err != nil {
			b.Fatal(err)
		}
		for _, kern := range kernels {
			b.Run(fmt.Sprintf("points=%d/kernel=%s", k, kern.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := kern.run(nil, grid, offset, weights, parts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
