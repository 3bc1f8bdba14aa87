package query

import (
	"math"
	"slices"
	"testing"

	"github.com/factcheck/cleansel/internal/rng"
)

// sweepValue draws a coefficient, constant, weight or argument: k/7 for
// k in [−21, 21], so most sums round and a re-associated fold shows in
// the low bits, or a signed zero.
func sweepValue(r *rng.RNG) float64 {
	switch r.Intn(8) {
	case 0:
		return math.Copysign(0, -1)
	case 1:
		return 0
	}
	return float64(r.IntRange(-21, 21)) / 7
}

// sweepTerms draws the terms a sweep check runs on: the three linear
// constructors over 1–8 vars sharing one draw of coefficients,
// constant and weight, and a closure term with a position-weighted sum
// that is −0 below zero, swept by EvalFunc's loop over Eval.
func sweepTerms(r *rng.RNG) []Term {
	n := 1 + r.Intn(8)
	vars := make([]int, n)
	coef := make([]float64, n)
	for j := range vars {
		vars[j] = j
		coef[j] = sweepValue(r)
	}
	c, w := sweepValue(r), sweepValue(r)
	closure := func(vals []float64) float64 {
		s := c
		for j, v := range vals {
			s += float64(j+1) / 7 * v
		}
		if s < 0 {
			return math.Copysign(0, -1)
		}
		return s
	}
	return []Term{
		LinearTerm(vars, coef, c),
		IndicatorGE(vars, coef, c, w),
		NegMinSquared(vars, coef, c, w),
		{Vars: vars, TermFunc: EvalFunc(closure)},
	}
}

// checkTermSweep checks, for every term sweepTerms draws and at every
// pos, that Sweep writes Eval's value at each swept value bit for bit
// and leaves every argument but vals[pos] as it was.
func checkTermSweep(t *testing.T, r *rng.RNG) {
	t.Helper()
	for _, term := range sweepTerms(r) {
		vals := make([]float64, len(term.Vars))
		for j := range vals {
			vals[j] = sweepValue(r)
		}
		xs := make([]float64, 1+r.Intn(5))
		for j := range xs {
			xs[j] = sweepValue(r)
		}
		out := make([]float64, len(xs))
		for pos := range vals {
			args := slices.Clone(vals)
			term.Sweep(args, pos, xs, out)
			args[pos] = vals[pos]
			if !slices.Equal(args, vals) {
				t.Fatalf("%s at pos %d: sweep changed the other arguments %v to %v", term.Sig, pos, vals, args)
			}
			for j, x := range xs {
				args[pos] = x
				if want := term.Eval(args); math.Float64bits(out[j]) != math.Float64bits(want) {
					t.Fatalf("%s at %v, pos %d = %v: sweep %v, Eval %v", term.Sig, vals, pos, x, out[j], want)
				}
			}
		}
	}
}

// TestTermSweepMatchesEval runs the sweep check on 2,000 draws.
func TestTermSweepMatchesEval(t *testing.T) {
	r := rng.New(20261019)
	for trial := 0; trial < 2000; trial++ {
		checkTermSweep(t, rng.New(r.Uint64()))
	}
}

// FuzzTermSweep drives the sweep check from fuzzed seeds.
func FuzzTermSweep(f *testing.F) {
	for _, seed := range []uint64{0, 1, 7, 42, 20261019} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		checkTermSweep(t, rng.New(seed))
	})
}
