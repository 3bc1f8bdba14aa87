// Package query defines the query functions f over uncertain object values
// that the MinVar and MaxPr problems optimize (§2.1). Two concrete forms
// cover everything the fact-checking application needs:
//
//   - Affine: f(X) = b + a·X — fairness (bias) of linear claims. With
//     uncorrelated errors this makes MinVar/MaxPr modular (Lemma 3.1).
//   - GroupSum: f(X) = c + Σ_k g_k(X_{R_k}) — sums of per-claim terms such
//     as duplicity indicators or fragility penalties, each referencing a
//     bounded set of objects R_k. This is the structure Theorem 3.8
//     exploits for polynomial-time expected-variance computation.
package query

import (
	"math"
	"sort"
	"strconv"
	"strings"
)

// Function is a real-valued query over the full value vector.
type Function interface {
	// Eval evaluates f at x, where x is indexed by object ID and must
	// cover every ID in Vars().
	Eval(x []float64) float64
	// Vars returns the sorted IDs of the objects the function references.
	Vars() []int
}

// Affine is f(X) = Const + Σ_i Coef[i]·X_i with a sparse coefficient map.
type Affine struct {
	Const float64
	Coef  map[int]float64

	vars []int     // sorted keys of Coef, cached so Eval sums in a fixed order
	coef []float64 // Coef[vars[k]], so Eval reads no map
}

// NewAffine returns an affine function; zero coefficients are dropped.
func NewAffine(constant float64, coef map[int]float64) *Affine {
	vars, cf := sortedCoefs(coef)
	return NewAffineSorted(constant, vars, cf)
}

// NewAffineSorted returns the affine function with coefficient coef[j]
// on X_{vars[j]}, for strictly increasing vars; zero coefficients are
// dropped, as NewAffine drops them. It keeps vars and coef, which the
// caller must not use afterwards.
func NewAffineSorted(constant float64, vars []int, coef []float64) *Affine {
	k := 0
	for j, v := range coef {
		if v != 0 {
			vars[k], coef[k] = vars[j], v
			k++
		}
	}
	vars, coef = vars[:k], coef[:k]
	c := make(map[int]float64, k)
	for j, i := range vars {
		c[i] = coef[j]
	}
	return &Affine{Const: constant, Coef: c, vars: vars, coef: coef}
}

// Eval evaluates the affine form. Terms are summed in increasing
// variable order: float addition is not associative, so summing in map
// iteration order would make the low bits run-dependent.
func (a *Affine) Eval(x []float64) float64 {
	vars, coef := a.vars, a.coef
	if vars == nil { // literal-constructed value: no cached order
		vars, coef = sortedCoefs(a.Coef)
	}
	s := a.Const
	for k, i := range vars {
		s += coef[k] * x[i]
	}
	return s
}

// Vars returns the sorted referenced IDs.
func (a *Affine) Vars() []int {
	return sortedCoefKeys(a.Coef)
}

// sortedCoefKeys returns the keys of a sparse coefficient map in
// increasing order.
func sortedCoefKeys(coef map[int]float64) []int {
	keys := make([]int, 0, len(coef))
	for i := range coef {
		keys = append(keys, i)
	}
	sort.Ints(keys)
	return keys
}

// sortedCoefs returns the keys of a sparse coefficient map in
// increasing order and the coefficients in the same order.
func sortedCoefs(coef map[int]float64) ([]int, []float64) {
	keys := sortedCoefKeys(coef)
	vals := make([]float64, len(keys))
	for k, i := range keys {
		vals[k] = coef[i]
	}
	return keys, vals
}

// CoefAt returns the coefficient of X_i (0 if absent).
func (a *Affine) CoefAt(i int) float64 { return a.Coef[i] }

// Dense returns the length-n dense coefficient vector.
func (a *Affine) Dense(n int) []float64 {
	out := make([]float64, n)
	for i, c := range a.Coef {
		out[i] = c
	}
	return out
}

// AsGroupSum represents the affine function as a GroupSum with one
// single-variable term per coefficient. Terms over distinct independent
// variables have zero covariance, so group-engine results are exact.
func (a *Affine) AsGroupSum() *GroupSum {
	g := &GroupSum{Const: a.Const}
	for _, i := range a.Vars() {
		c := a.Coef[i]
		g.Terms = append(g.Terms, Term{
			Vars:     []int{i},
			TermFunc: EvalFunc(func(vals []float64) float64 { return c * vals[0] }),
		})
	}
	return g
}

// Term is one additive component g_k of a GroupSum, referencing only the
// objects in Vars (sorted ascending). Its TermFunc receives the values of
// exactly those objects, in the same order.
//
// Sig, when non-empty, is a canonical signature of the term: two terms
// with equal signatures evaluate identically on every input (same Vars
// in the same order, same functional form, same parameters to the bit).
// Engines use it to share cached per-term results across separately
// compiled problems over the same database — the cross-claim
// amortization of bulk triage. The constructors here fill it in;
// hand-built terms may leave it empty, which only disables sharing,
// never correctness.
type Term struct {
	Vars []int
	TermFunc
	Sig string
}

// TermFunc is the function a Term computes.
type TermFunc interface {
	// Eval evaluates the term at vals, the values of its Vars.
	Eval(vals []float64) float64
	// Sweep evaluates the term along one argument: it writes
	// out[j] = Eval(vals) with vals[pos] = xs[j], bit for bit, for every
	// j, and may overwrite vals[pos]. The enumeration engines call it
	// once per outcome of a walk's upper levels to cover the innermost
	// level. The linear terms built here (LinearTerm, IndicatorGE,
	// NegMinSquared) fold the arguments before pos once.
	Sweep(vals []float64, pos int, xs, out []float64)
}

// EvalFunc is a TermFunc given by its Eval alone: Sweep sets vals[pos]
// to each of xs in turn and evaluates.
type EvalFunc func(vals []float64) float64

// Eval calls f.
func (f EvalFunc) Eval(vals []float64) float64 { return f(vals) }

// Sweep evaluates f at each of xs placed at vals[pos].
func (f EvalFunc) Sweep(vals []float64, pos int, xs, out []float64) {
	for j, x := range xs {
		vals[pos] = x
		out[j] = f(vals)
	}
}

// TermSig builds the canonical signature of a parametric term: the kind
// tag, the variable list in declaration order, and every float parameter
// spelled as exact IEEE-754 bits — so two signatures are equal exactly
// when the terms are the same function. Float bits (not decimal
// formatting) keep the mapping injective: distinct NaN payloads aside,
// distinct parameter values always get distinct signatures.
func TermSig(kind string, vars []int, params ...[]float64) string {
	var b strings.Builder
	b.WriteString(kind)
	b.WriteByte('|')
	for i, v := range vars {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(v))
	}
	for _, ps := range params {
		b.WriteByte('|')
		for i, p := range ps {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatUint(math.Float64bits(p), 16))
		}
	}
	return b.String()
}

// GroupSum is f(X) = Const + Σ_k Terms[k](X_{R_k}).
type GroupSum struct {
	Const float64
	Terms []Term
}

// Eval evaluates the sum at the full value vector x.
func (g *GroupSum) Eval(x []float64) float64 {
	s := g.Const
	buf := make([]float64, 0, 16)
	for _, t := range g.Terms {
		buf = buf[:0]
		for _, v := range t.Vars {
			buf = append(buf, x[v])
		}
		s += t.Eval(buf)
	}
	return s
}

// Vars returns the sorted union of all term variables.
func (g *GroupSum) Vars() []int {
	seen := map[int]struct{}{}
	for _, t := range g.Terms {
		for _, v := range t.Vars {
			seen[v] = struct{}{}
		}
	}
	out := make([]int, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// LinearTerm builds a term w·Σ coef_j·X_{vars_j} + c restricted to vars.
func LinearTerm(vars []int, coef []float64, c float64) Term {
	return linearTerm("lin", vars, coef, c, 0, shapeSum, c)
}

// IndicatorGE builds the term weight·1[Σ coef_j·X_j + c ≥ 0], the building
// block of the duplicity (uniqueness) measure.
func IndicatorGE(vars []int, coef []float64, c, weight float64) Term {
	return linearTerm("ge", vars, coef, c, weight, shapeGE, c, weight)
}

// NegMinSquared builds the term weight·(min{Σ coef_j·X_j + c, 0})², the
// building block of the fragility (robustness) measure.
func NegMinSquared(vars []int, coef []float64, c, weight float64) Term {
	return linearTerm("nms", vars, coef, c, weight, shapeNegMinSquared, c, weight)
}

// linearTerm builds the Term of a linear value over copies of vars and
// coef, signed with kind, vars, coef and params.
func linearTerm(kind string, vars []int, coef []float64, c, weight float64, shape linearShape, params ...float64) Term {
	l := &linear{coef: append([]float64(nil), coef...), c: c, weight: weight, shape: shape}
	vs := append([]int(nil), vars...)
	return Term{Vars: vs, TermFunc: l, Sig: TermSig(kind, vs, l.coef, params)}
}

// linearShape is what a linear value does with its sum s.
type linearShape uint8

const (
	shapeSum           linearShape = iota // s
	shapeGE                               // weight·1[s ≥ 0]
	shapeNegMinSquared                    // weight·(min{s, 0})²
)

// linear is the value behind LinearTerm, IndicatorGE and NegMinSquared:
// shape applied to the sum s = c + Σ_j coef_j·vals_j, folded left to
// right as s = s + coef_j·vals_j. Eval runs the fold over every
// argument; Sweep splits it at pos, running the arguments before pos
// once and then, per swept value, one multiply-add and the arguments
// after pos. Splitting a fold never re-associates it, so both produce
// the same bits.
type linear struct {
	coef      []float64
	c, weight float64
	shape     linearShape
}

func (l *linear) Eval(vals []float64) float64 {
	s := l.c
	for j, v := range vals {
		s += l.coef[j] * v
	}
	return l.apply(s)
}

func (l *linear) Sweep(vals []float64, pos int, xs, out []float64) {
	head := l.c
	for j, v := range vals[:pos] {
		head += l.coef[j] * v
	}
	cp := l.coef[pos]
	tail, tailCoef := vals[pos+1:], l.coef[pos+1:len(vals)]
	out = out[:len(xs)]
	for j, x := range xs {
		s := head + cp*x
		for i, v := range tail {
			s += tailCoef[i] * v
		}
		out[j] = l.apply(s)
	}
}

func (l *linear) apply(s float64) float64 {
	switch l.shape {
	case shapeGE:
		if s >= 0 {
			return l.weight
		}
		return 0
	case shapeNegMinSquared:
		if s >= 0 {
			return 0
		}
		return l.weight * s * s
	}
	return s
}

// Indicator builds an arbitrary-predicate single-term function 1[pred(x)],
// used in the paper's worked Examples 3 and 6.
func Indicator(vars []int, pred func(vals []float64) bool) *GroupSum {
	vs := append([]int(nil), vars...)
	return &GroupSum{Terms: []Term{{
		Vars: vs,
		TermFunc: EvalFunc(func(vals []float64) float64 {
			if pred(vals) {
				return 1
			}
			return 0
		}),
	}}}
}
