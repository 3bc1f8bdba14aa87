package dist

import (
	"math"
	"testing"

	"github.com/factcheck/cleansel/internal/numeric"
)

// weightedSumMap is the hashed-key convolution the merge replaced, kept
// verbatim as the reference the merge is pinned against bit for bit
// (TestMergeMatchesHashed, FuzzMergeVsHashed) and timed against it by
// BenchmarkWeightedSumSupports.
func weightedSumMap(st *convStats, grid numeric.Grid, offset float64, weights []float64, parts []*Discrete) (*Discrete, error) {
	probs := map[int64]float64{grid.Key(offset): 1}
	vals := map[int64]float64{grid.Key(offset): offset}
	for i, part := range parts {
		if weights[i] == 0 {
			continue
		}
		// The raw product is only an upper bound on the layer size (and
		// can overflow int); mapSizeHint caps the pre-allocation.
		nextProbs := make(map[int64]float64, mapSizeHint(len(probs), part.Size()))
		nextVals := make(map[int64]float64, mapSizeHint(len(probs), part.Size()))
		// Sorted iteration: several source atoms can land on one
		// destination key, and the += below must add them in a fixed
		// order for the sum to be bit-stable across runs.
		for _, key := range numeric.SortedKeys(probs) {
			p := probs[key]
			base := vals[key]
			for j, v := range part.Values {
				s := base + weights[i]*v
				k := grid.Key(s)
				if _, seen := nextVals[k]; !seen {
					nextVals[k] = s
				} else if st != nil {
					st.merged++
				}
				if st != nil {
					st.ops++
				}
				nextProbs[k] += p * part.Probs[j]
			}
		}
		probs, vals = nextProbs, nextVals
	}
	keys := numeric.SortedKeys(probs)
	values := make([]float64, len(keys))
	ps := make([]float64, len(keys))
	for i, k := range keys {
		values[i] = vals[k]
		ps[i] = probs[k]
	}
	return NewDiscrete(values, ps)
}

// maxConvMapHint caps the bucket pre-allocation of one map-path
// convolution layer. The raw product len(probs)·Size() is an
// upper bound that wide-support workloads overshoot by orders of
// magnitude once grid merges collapse the layer — and that can overflow
// int outright on adversarial sizes. Past the cap the map grows on
// demand like any other.
const maxConvMapHint = 1 << 16

// mapSizeHint returns a safe make() capacity hint for a layer producing
// up to n·m entries: never negative, never the overflowed product,
// never more than maxConvMapHint.
func mapSizeHint(n, m int) int {
	if n <= 0 || m <= 0 {
		return 0
	}
	if n > maxConvMapHint/m {
		return maxConvMapHint
	}
	return n * m
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
