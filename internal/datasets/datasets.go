// Package datasets provides the three evaluation datasets of §4 plus the
// synthetic value-distribution generators URx, LNx, and SMx.
//
// The real-world series are embedded as magnitude-faithful substitutes,
// because the paper's exact tables are not published:
//
//   - Adoptions — NYC adoptions 1989–2014. The series satisfies the
//     property the Giuliani claim rests on: total adoptions rose 65–70%
//     between 1990–1995 and 1996–2001. Errors: σ_i ~ U[1,50] normal;
//     costs ~ U[1,100].
//   - CDC-firearms — national nonfatal firearm-injury estimates 2001–2017
//     with CDC-style standard errors (large coefficients of variation).
//     Costs decrease with recency: year 2001 in [195,200], 2002 in
//     [190,195], …, 2017 in [115,120].
//   - CDC-causes — firearm, transportation, drowning, and fall injuries
//     over the same 17 years (68 values), with CVs scaled to series size.
//
// Synthetic generators draw each object's support size uniformly from
// {1..6} and its cleaning cost uniformly from {1..10}, exactly as §4
// describes; current values are sampled from the value distribution.
package datasets

import (
	"fmt"

	"github.com/factcheck/cleansel/internal/dist"
	"github.com/factcheck/cleansel/internal/model"
	"github.com/factcheck/cleansel/internal/rng"
)

// AdoptionsYears spans 1989–2014 inclusive.
var AdoptionsYears = yearRange(1989, 2014)

// AdoptionsCounts are the embedded annual adoption counts. The 1990–1995
// vs 1996–2001 window sums are 16450 and 27200: a 65.3% increase, inside
// the 65–70% band the Giuliani claim asserts.
var AdoptionsCounts = []float64{
	2300,                               // 1989
	2250, 2400, 2600, 2800, 3100, 3300, // 1990–1995
	3900, 4300, 4800, 4900, 4700, 4600, // 1996–2001
	4300, 4000, 3800, 3500, 3300, 3000, // 2002–2007
	2800, 2600, 2400, 2200, 2000, 1850, // 2008–2013
	1700, // 2014
}

// Adoptions builds the Adoptions database: normal errors centered at the
// reported counts with σ ~ U[1,50], costs ~ U[1,100].
func Adoptions(seed uint64) *model.DB {
	r := rng.New(seed)
	objs := make([]model.Object, len(AdoptionsCounts))
	for i, v := range AdoptionsCounts {
		sigma := r.Uniform(1, 50)
		nd, err := dist.NewNormal(v, sigma)
		if err != nil {
			panic(err)
		}
		objs[i] = model.Object{
			Name:    fmt.Sprintf("adoptions/%d", AdoptionsYears[i]),
			Current: v,
			Cost:    r.Uniform(1, 100),
			Value:   nd,
		}
	}
	return model.New(objs)
}

// CDCYears spans 2001–2017 inclusive.
var CDCYears = yearRange(2001, 2017)

// FirearmsEstimates are nonfatal firearm-injury estimates (national,
// all intents), 2001–2017.
var FirearmsEstimates = []float64{
	63012, 58841, 65834, 64389, 69825, 71417, 69863, 78622, 66769,
	73505, 73883, 81396, 84258, 81034, 84997, 116414, 134557,
}

// FirearmsSE are the standard errors of the firearm estimates. WISQARS
// firearm estimates carry large sampling error (CVs near 15–25%).
var FirearmsSE = []float64{
	11342, 10003, 12509, 11590, 13267, 14283, 12575, 16510, 13354,
	15436, 14777, 17907, 19379, 17827, 19549, 27939, 33639,
}

// TransportationEstimates are transportation-related injury estimates.
var TransportationEstimates = []float64{
	3187562, 3145892, 3100941, 3072734, 3029412, 2938715, 2893981,
	2759830, 2706139, 2653062, 2645571, 2609038, 2567193, 2622907,
	2699123, 2734519, 2682451,
}

// TransportationSE are the corresponding standard errors (~6% CV).
var TransportationSE = []float64{
	191254, 188753, 186056, 184364, 181765, 176323, 173639, 165590,
	162368, 159184, 158734, 156542, 154032, 157374, 161947, 164071,
	160947,
}

// DrowningEstimates are nonfatal drowning estimates (small series, large
// relative error).
var DrowningEstimates = []float64{
	5795, 6144, 6133, 6529, 6263, 5976, 6028, 5702, 6214,
	5853, 6147, 6422, 6063, 5982, 6354, 6711, 6523,
}

// DrowningSE are the drowning standard errors (~20% CV).
var DrowningSE = []float64{
	1159, 1229, 1227, 1306, 1253, 1195, 1206, 1140, 1243,
	1171, 1229, 1284, 1213, 1196, 1271, 1342, 1305,
}

// FallsEstimates are fall-injury estimates (the largest series).
var FallsEstimates = []float64{
	7915244, 8034312, 8128433, 8260217, 8412179, 8501982, 8642951,
	8775212, 8901342, 9146243, 9252831, 9347124, 9411238, 9483215,
	9536712, 9591236, 9622175,
}

// FallsSE are the falls standard errors (~5% CV).
var FallsSE = []float64{
	395762, 401716, 406422, 413011, 420609, 425099, 432148, 438761,
	445067, 457312, 462642, 467356, 470562, 474161, 476836, 479562,
	481109,
}

// recencyCost draws the cleaning cost of a value from the given year:
// older data is more expensive to verify (the §4 cost model). Year 2001
// costs land in [195,200], each later year shifts the band down by 5.
func recencyCost(r *rng.RNG, year int) float64 {
	lo := 195 - 5*float64(year-2001)
	return r.Uniform(lo, lo+5)
}

// CDCFirearms builds the 17-value firearms database with normal errors
// from the published standard errors and recency-decreasing costs.
func CDCFirearms(seed uint64) *model.DB {
	r := rng.New(seed)
	objs := make([]model.Object, len(FirearmsEstimates))
	for i, v := range FirearmsEstimates {
		nd, err := dist.NewNormal(v, FirearmsSE[i])
		if err != nil {
			panic(err)
		}
		objs[i] = model.Object{
			Name:    fmt.Sprintf("firearms/%d", CDCYears[i]),
			Current: v,
			Cost:    recencyCost(r, CDCYears[i]),
			Value:   nd,
		}
	}
	return model.New(objs)
}

// Cause identifies one of the four CDC-causes series.
type Cause int

// The four injury causes of CDC-causes, in object-layout order.
const (
	Firearms Cause = iota
	Transportation
	Drowning
	Falls
	NumCauses
)

// String implements fmt.Stringer.
func (c Cause) String() string {
	switch c {
	case Firearms:
		return "firearms"
	case Transportation:
		return "transportation"
	case Drowning:
		return "drowning"
	case Falls:
		return "falls"
	}
	return fmt.Sprintf("cause(%d)", int(c))
}

// causeSeries returns the estimate and SE arrays of a cause.
func causeSeries(c Cause) (est, se []float64) {
	switch c {
	case Firearms:
		return FirearmsEstimates, FirearmsSE
	case Transportation:
		return TransportationEstimates, TransportationSE
	case Drowning:
		return DrowningEstimates, DrowningSE
	case Falls:
		return FallsEstimates, FallsSE
	}
	panic("datasets: unknown cause")
}

// CDCCausesIndex maps (cause, year offset from 2001) to the object ID in
// the CDC-causes database (cause-major layout, 68 objects).
func CDCCausesIndex(c Cause, yearIdx int) int {
	return int(c)*len(CDCYears) + yearIdx
}

// CDCCauses builds the 68-value four-cause database (§4: "a larger
// dataset with 68 values").
func CDCCauses(seed uint64) *model.DB {
	r := rng.New(seed)
	objs := make([]model.Object, 0, int(NumCauses)*len(CDCYears))
	for c := Firearms; c < NumCauses; c++ {
		est, se := causeSeries(c)
		for i := range est {
			nd, err := dist.NewNormal(est[i], se[i])
			if err != nil {
				panic(err)
			}
			objs = append(objs, model.Object{
				Name:    fmt.Sprintf("%s/%d", c, CDCYears[i]),
				Current: est[i],
				Cost:    recencyCost(r, CDCYears[i]),
				Value:   nd,
			})
		}
	}
	return model.New(objs)
}

// SyntheticKind selects a §4 synthetic value-distribution generator.
type SyntheticKind int

// The three synthetic generators of §4.
const (
	// UR draws support points uniformly from [1,100] with probabilities
	// proportional to U(0,1] — "fairly random" distributions.
	UR SyntheticKind = iota
	// LN quantizes a log-normal (μ=0, σ ~ U(0,1]) — skewed, unimodal,
	// small-range distributions.
	LN
	// SM draws support points like UR but with probabilities proportional
	// to a draw from (0,0.1] ∪ [0.9,1) — multimodal spiky distributions.
	SM
)

// String implements fmt.Stringer.
func (k SyntheticKind) String() string {
	switch k {
	case UR:
		return "URx"
	case LN:
		return "LNx"
	case SM:
		return "SMx"
	}
	return fmt.Sprintf("synthetic(%d)", int(k))
}

// MaxSupport is the largest synthetic support size (paper: "uniformly at
// random from [1,6]").
const MaxSupport = 6

// Synthetic builds an n-object database with the chosen generator.
// Costs are uniform integers in [1,10]; current values are sampled from
// each object's distribution (the "noisy database" of §4.3).
func Synthetic(kind SyntheticKind, n int, seed uint64) *model.DB {
	r := rng.New(seed)
	objs := make([]model.Object, n)
	for i := 0; i < n; i++ {
		k := r.IntRange(1, MaxSupport)
		objs[i] = syntheticObject(kind, r, i, k)
	}
	return model.New(objs)
}

// SyntheticK is Synthetic with every object's support size pinned to k
// instead of drawn from [1,MaxSupport]. Per-term enumeration over a
// w-object window costs k^w values, so k tunes how compute-heavy a
// workload's solves are independently of its wire size — benchmark
// workloads use k = MaxSupport to model the dense-support worst case.
func SyntheticK(kind SyntheticKind, n, k int, seed uint64) *model.DB {
	if k < 1 || k > 100 {
		panic("datasets: SyntheticK needs 1 <= k <= 100")
	}
	r := rng.New(seed)
	objs := make([]model.Object, n)
	for i := 0; i < n; i++ {
		objs[i] = syntheticObject(kind, r, i, k)
	}
	return model.New(objs)
}

// syntheticObject draws one object with a k-point support; the draw
// order (distribution, current sample, cost) is part of the fixed RNG
// sequence both Synthetic variants replay deterministically.
func syntheticObject(kind SyntheticKind, r *rng.RNG, i, k int) model.Object {
	var d *dist.Discrete
	switch kind {
	case UR:
		d = urDist(r, k)
	case LN:
		d = lnDist(r, k)
	case SM:
		d = smDist(r, k)
	default:
		panic("datasets: unknown synthetic kind")
	}
	return model.Object{
		Name:    fmt.Sprintf("%s/%d", kind, i),
		Current: d.Sample(r),
		Cost:    float64(r.IntRange(1, 10)),
		Value:   d,
	}
}

// URx builds the uniform-random synthetic dataset.
func URx(n int, seed uint64) *model.DB { return Synthetic(UR, n, seed) }

// LNx builds the log-normal synthetic dataset.
func LNx(n int, seed uint64) *model.DB { return Synthetic(LN, n, seed) }

// SMx builds the multimodal synthetic dataset.
func SMx(n int, seed uint64) *model.DB { return Synthetic(SM, n, seed) }

func urDist(r *rng.RNG, k int) *dist.Discrete {
	vals := intsToFloats(r.SampleWithoutReplacement(1, 100, k))
	probs := make([]float64, k)
	for i := range probs {
		probs[i] = 1 - r.Float64() // (0, 1]
	}
	return dist.MustDiscrete(vals, probs)
}

func lnDist(r *rng.RNG, k int) *dist.Discrete {
	sigma := 1 - r.Float64() // (0, 1]
	return dist.LogNormalQuantized(sigma, k)
}

func smDist(r *rng.RNG, k int) *dist.Discrete {
	vals := intsToFloats(r.SampleWithoutReplacement(1, 100, k))
	probs := make([]float64, k)
	for i := range probs {
		if r.Intn(2) == 0 {
			probs[i] = 0.1 * (1 - r.Float64()) // (0, 0.1]
		} else {
			probs[i] = 0.9 + 0.1*r.Float64() // [0.9, 1)
		}
	}
	return dist.MustDiscrete(vals, probs)
}

func intsToFloats(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, v := range xs {
		out[i] = float64(v)
	}
	return out
}

func yearRange(from, to int) []int {
	out := make([]int, 0, to-from+1)
	for y := from; y <= to; y++ {
		out = append(out, y)
	}
	return out
}
