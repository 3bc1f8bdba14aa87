package dist

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"github.com/factcheck/cleansel/internal/numeric"
	"github.com/factcheck/cleansel/internal/rng"
)

// Discrete is a finite-support law Pr[X = Values[j]] = Probs[j]. The
// support order is whatever the constructor received (generators rely on
// drawing "the current value" by support index); probabilities always sum
// to one. Mutating the exported slices after construction breaks the
// invariants — clean code treats a built Discrete as immutable and uses
// Clone when it needs a variant.
type Discrete struct {
	Values []float64
	Probs  []float64

	// idx caches the sorted-support/cumulative tables that turn
	// PrBelow/Sample from linear scans into binary searches on wide
	// supports. It is built lazily on first query and shared safely across
	// goroutines (engines query one law concurrently); Clone drops it.
	idx atomic.Pointer[discreteIndex]
}

// smallSupport is the support size below which the plain linear scans
// win: they touch a handful of contiguous floats and allocate nothing.
const smallSupport = 16

// discreteIndex holds the query-acceleration tables of one Discrete.
type discreteIndex struct {
	// cum[j] is the running probability sum over the support order,
	// accumulated exactly like the legacy Sample loop so inverse-CDF
	// draws stay bit-identical under a fixed seed.
	cum []float64
	// lastPositive is the largest j with Probs[j] > 0 (round-off
	// fall-through target of Sample), or len-1 when all mass is zero.
	lastPositive int
	// sortedVals is the support sorted ascending (stably, so
	// duplicates keep their support order).
	sortedVals []float64
	// below[i] = Pr[X < sortedVals[i]] (Kahan-accumulated over the
	// sorted order), with below[len] = 1-ish total for queries above the
	// support.
	below []float64
}

// index returns the cached tables, building them on first use. Two
// racing builders do redundant work but agree on the result.
func (d *Discrete) index() *discreteIndex {
	if ix := d.idx.Load(); ix != nil {
		return ix
	}
	n := len(d.Values)
	ix := &discreteIndex{
		cum:          make([]float64, n),
		lastPositive: n - 1,
		sortedVals:   make([]float64, n),
		below:        make([]float64, n+1),
	}
	var cum float64
	for j, p := range d.Probs {
		cum += p
		ix.cum[j] = cum
	}
	for j := n - 1; j >= 0; j-- {
		if d.Probs[j] > 0 {
			ix.lastPositive = j
			break
		}
	}
	order := sortedOrder(d.Values)
	var acc numeric.KahanAcc
	for i := range n {
		j := i
		if order != nil {
			j = order[i]
		}
		ix.sortedVals[i] = d.Values[j]
		ix.below[i] = acc.Value()
		acc.Add(d.Probs[j])
	}
	ix.below[n] = acc.Value()
	d.idx.Store(ix)
	return ix
}

// sortedOrder returns the support indices stably sorted by value, or nil
// when the support is already non-decreasing under the sort's own < and
// holds no NaN, so the stable sort would be the identity. Every
// WeightedSum result is ascending, so drop laws never sort.
func sortedOrder(values []float64) []int {
	ascending := true
	for j, v := range values {
		if math.IsNaN(v) || j > 0 && v < values[j-1] {
			ascending = false
			break
		}
	}
	if ascending {
		return nil
	}
	order := make([]int, len(values))
	for j := range order {
		order[j] = j
	}
	sort.SliceStable(order, func(a, b int) bool {
		return values[order[a]] < values[order[b]]
	})
	return order
}

// NewDiscrete builds a validated law from a support and (possibly
// unnormalized) non-negative weights. The weights are normalized to
// probabilities; duplicate support values are allowed and simply share
// the value's total mass across entries.
func NewDiscrete(values, probs []float64) (*Discrete, error) {
	if len(values) == 0 {
		return nil, errors.New("dist: empty support")
	}
	if len(values) != len(probs) {
		return nil, fmt.Errorf("dist: %d values vs %d probabilities", len(values), len(probs))
	}
	for i, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("dist: support value %d is %v", i, v)
		}
	}
	var sum numeric.KahanAcc
	for i, p := range probs {
		if math.IsNaN(p) || p < 0 || math.IsInf(p, 0) {
			return nil, fmt.Errorf("dist: probability %d is %v", i, p)
		}
		sum.Add(p)
	}
	total := sum.Value()
	if total <= 0 {
		return nil, errors.New("dist: probabilities sum to zero")
	}
	d := &Discrete{
		Values: append([]float64(nil), values...),
		Probs:  make([]float64, len(probs)),
	}
	for i, p := range probs {
		d.Probs[i] = p / total
	}
	return d, nil
}

// MustDiscrete is NewDiscrete that panics on invalid input; for literals
// and generators whose inputs are correct by construction.
func MustDiscrete(values, probs []float64) *Discrete {
	d, err := NewDiscrete(values, probs)
	if err != nil {
		panic(err)
	}
	return d
}

// UniformOver builds the uniform law over the given support. Like
// MustDiscrete it panics on invalid input (an empty or non-finite
// support); use NewDiscrete when the support comes from untrusted data.
func UniformOver(values []float64) *Discrete {
	probs := make([]float64, len(values))
	for i := range probs {
		probs[i] = 1 / float64(len(values))
	}
	return MustDiscrete(values, probs)
}

// PointMass builds the degenerate law concentrated at v — the posterior
// of a cleaned object (§2.1: cleaning reveals the true value).
func PointMass(v float64) *Discrete {
	return MustDiscrete([]float64{v}, []float64{1})
}

// Bernoulli builds the {0, 1} law with Pr[X = 1] = p (Example 3's
// indicator objects).
func Bernoulli(p float64) *Discrete {
	if math.IsNaN(p) || p < 0 || p > 1 {
		panic(fmt.Sprintf("dist: Bernoulli probability %v outside [0, 1]", p))
	}
	return MustDiscrete([]float64{0, 1}, []float64{1 - p, p})
}

// LogNormalQuantized builds the k-point equal-probability quantization of
// LogNormal(0, sigma²): the §4.3 LNx generator's skewed, small-range
// value model. Point j sits at the conditional bin center
// exp(sigma·Φ⁻¹((j+1/2)/k)); values come out sorted ascending.
func LogNormalQuantized(sigma float64, k int) *Discrete {
	if sigma <= 0 || math.IsNaN(sigma) || math.IsInf(sigma, 0) {
		panic(fmt.Sprintf("dist: log-normal sigma %v must be positive and finite", sigma))
	}
	zs := symmetricQuantiles(k)
	values := make([]float64, k)
	probs := make([]float64, k)
	for j, z := range zs {
		values[j] = math.Exp(sigma * z)
		probs[j] = 1 / float64(k)
	}
	return MustDiscrete(values, probs)
}

// Len returns the support size.
func (d *Discrete) Len() int { return len(d.Values) }

// Size is Len under the name the enumeration engines use when bounding
// product state spaces.
func (d *Discrete) Size() int { return len(d.Values) }

// Mean returns E[X].
func (d *Discrete) Mean() float64 {
	var acc numeric.KahanAcc
	for j, v := range d.Values {
		acc.Add(d.Probs[j] * v)
	}
	return acc.Value()
}

// Variance returns Var[X], computed against the mean so it is
// non-negative even for wide supports.
func (d *Discrete) Variance() float64 {
	mean := d.Mean()
	var acc numeric.KahanAcc
	for j, v := range d.Values {
		dev := v - mean
		acc.Add(d.Probs[j] * dev * dev)
	}
	variance := acc.Value()
	if variance < 0 {
		variance = 0
	}
	return variance
}

// Prob returns Pr[X = v], summing over duplicate support entries. The
// comparison is exact; callers that quantized their arithmetic should
// query with values from the support itself.
//
//lint:allow floateq — Prob/CDF document exact support-membership semantics: callers query with values taken from the support, so the compare is identity, not round-off pooling
func (d *Discrete) Prob(v float64) float64 {
	var acc numeric.KahanAcc
	for j, sv := range d.Values {
		if sv == v {
			acc.Add(d.Probs[j])
		}
	}
	return acc.Value()
}

// PrBelow returns Pr[X < v] (strictly below — the Eq. (2) surprise event
// D < −τ is a strict inequality).
func (d *Discrete) PrBelow(v float64) float64 {
	if len(d.Values) <= smallSupport {
		var acc numeric.KahanAcc
		for j, sv := range d.Values {
			if sv < v {
				acc.Add(d.Probs[j])
			}
		}
		return acc.Value()
	}
	if math.IsNaN(v) {
		return 0 // matches the linear scan: no value compares below NaN
	}
	ix := d.index()
	return ix.below[sort.SearchFloat64s(ix.sortedVals, v)]
}

// Sample draws from the law by inverse CDF over the support order, so a
// fixed rng.RNG seed yields a reproducible stream.
func (d *Discrete) Sample(r *rng.RNG) float64 {
	u := r.Float64()
	if len(d.Values) <= smallSupport {
		var cum float64
		for j, p := range d.Probs {
			cum += p
			if u < cum {
				return d.Values[j]
			}
		}
		// Round-off can leave cum a hair under 1; the draw belongs to
		// the last positive-probability atom.
		for j := len(d.Probs) - 1; j >= 0; j-- {
			if d.Probs[j] > 0 {
				return d.Values[j]
			}
		}
		return d.Values[len(d.Values)-1]
	}
	// ix.cum repeats the linear loop's running sums, so the first index
	// with u < cum[j] — and therefore the drawn stream — is unchanged.
	ix := d.index()
	j := sort.Search(len(ix.cum), func(i int) bool { return u < ix.cum[i] })
	if j == len(ix.cum) {
		j = ix.lastPositive
	}
	return d.Values[j]
}

// Clone returns a deep copy safe to mutate.
func (d *Discrete) Clone() *Discrete {
	return &Discrete{
		Values: append([]float64(nil), d.Values...),
		Probs:  append([]float64(nil), d.Probs...),
	}
}

// symmetricQuantiles returns the k standard-normal quantiles at
// (j+1/2)/k, mirrored so the grid is exactly symmetric about zero (the
// property that makes equal-probability discretizations mean-exact).
func symmetricQuantiles(k int) []float64 {
	if k <= 0 {
		panic(fmt.Sprintf("dist: quantization needs k >= 1, got %d", k))
	}
	zs := make([]float64, k)
	for j := 0; j < k/2; j++ {
		z := numeric.NormalQuantile((float64(j) + 0.5) / float64(k))
		zs[j] = z
		zs[k-1-j] = -z
	}
	if k%2 == 1 {
		zs[k/2] = 0
	}
	return zs
}
