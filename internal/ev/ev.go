// Package ev computes the MinVar objective of Eq. (1),
//
//	EV(T) = Σ_{v ∈ V_T} Pr[X_T = v] · Var[f(X) | X_T = v],
//
// the expected variance that remains in the query result after cleaning the
// subset T. Four engines trade generality for speed:
//
//   - BruteForce — joint enumeration over all discrete supports; the
//     exponential reference implementation used to validate the others.
//   - Modular — Lemma 3.1: affine f with uncorrelated errors gives
//     EV(T) = Σ_{i∉T} a_i²·Var[X_i].
//   - GroupEngine — Theorem 3.8: f = Σ_k g_k(X_{R_k}) with mutually
//     independent discrete values; per-term variances plus covariances of
//     overlapping term pairs, each computed by enumerating only the
//     supports of the referenced objects. Supports incremental deltas for
//     greedy selection and conditional posterior moments.
//   - MVNEngine — affine f with correlated normal errors (§4.5), via the
//     Schur-complement conditional covariance.
package ev

import (
	"context"
	"errors"
	"fmt"

	"github.com/factcheck/cleansel/internal/dist"
	"github.com/factcheck/cleansel/internal/model"
	"github.com/factcheck/cleansel/internal/numeric"
	"github.com/factcheck/cleansel/internal/query"
)

// Engine computes the MinVar objective for subsets of a fixed problem.
type Engine interface {
	// EV returns the expected posterior variance after cleaning T.
	EV(T model.Set) float64
}

// CtxEngine is an Engine whose evaluation cooperates with context
// cancellation (GroupEngine).
type CtxEngine interface {
	Engine
	// EVCtx is EV returning the context's error once ctx is done.
	EVCtx(ctx context.Context, T model.Set) (float64, error)
}

// EVWithContext evaluates e.EV(T) under ctx: cancellation-aware
// engines evaluate cooperatively; for plain engines (whose solves are
// closed-form) the context is checked once up front.
func EVWithContext(ctx context.Context, e Engine, T model.Set) (float64, error) {
	if ce, ok := e.(CtxEngine); ok {
		return ce.EVCtx(ctx, T)
	}
	if err := ctx.Err(); err != nil {
		return 0, context.Cause(ctx)
	}
	return e.EV(T), nil
}

// odometer is the package's enumeration kernel: it walks the product
// distribution of vars (object ids; level i draws from dists[vars[i]])
// iteratively, the first var outermost and the last var fastest, and
// writes level i's value into vals[slot[i]]. With slot = vars, vals is
// an object-indexed assignment; with slot = positions in Term.Vars, vals
// is the term's own argument vector, ready for Term.Eval or Term.Sweep
// without a gather.
//
// An outcome's probability is the left-to-right product 1·p_0·p_1·…,
// kept as one prefix product per level, so advancing the fastest var
// costs one multiply and every outcome sees the same operands in the
// same order as a depth-first recursion would. idx exposes each level's
// current support position. The level arrays are reusable scratch
// (see evScratch): a walk allocates nothing. No vars means exactly one
// outcome, of probability 1; an empty support means none.
type odometer struct {
	dists  []*dist.Discrete
	vals   []float64
	vars   []int
	slot   []int
	idx    []int     // idx[i]: level i's current support position
	prefix []float64 // prefix[i]: product of the probabilities of levels < i
	// The innermost level, cached by first and carry for next's fast
	// path: its law, where it writes, and prefix[len(vars)-1].
	inner      *dist.Discrete
	innerSlot  int
	innerAbove float64
}

// newOdometer returns a walk over vars writing vals[v] for each var v
// (slot = object id), with freshly allocated level arrays — for the
// engines whose calls are not hot enough to pool scratch. Its slot list
// is vars itself, so it must not be refilled.
func newOdometer(dists []*dist.Discrete, vals []float64, vars []int) *odometer {
	o := &odometer{vars: vars, slot: vars}
	o.bind(dists, vals)
	return o
}

// bind points the walk at dists and vals and sizes its level arrays to
// the vars/slot lists already in place.
func (o *odometer) bind(dists []*dist.Discrete, vals []float64) {
	o.dists, o.vals = dists, vals
	n := len(o.vars)
	if cap(o.idx) < n {
		o.idx = make([]int, n)
	}
	o.idx = o.idx[:n]
	if cap(o.prefix) < n+1 {
		o.prefix = make([]float64, n+1)
	}
	o.prefix = o.prefix[:n+1]
}

// setLevel moves level i to support position j, writing its value and
// extending the prefix product.
func (o *odometer) setLevel(i, j int) {
	d := o.dists[o.vars[i]]
	o.idx[i] = j
	o.vals[o.slot[i]] = d.Values[j]
	o.prefix[i+1] = o.prefix[i] * d.Probs[j]
}

// first moves the walk to its first outcome and returns its
// probability; ok is false when the walk has no outcome.
func (o *odometer) first() (p float64, ok bool) {
	o.prefix[0] = 1
	for i, v := range o.vars {
		if o.dists[v].Size() == 0 {
			return 0, false
		}
		o.setLevel(i, 0)
	}
	if last := len(o.vars) - 1; last >= 0 {
		o.inner = o.dists[o.vars[last]]
		o.innerSlot = o.slot[last]
		o.innerAbove = o.prefix[last]
	}
	return o.prefix[len(o.vars)], true
}

// next advances the walk to its next outcome and returns its
// probability; ok is false once every outcome has been visited. The
// common step, advancing the innermost level, is small enough to
// inline; carry handles the rest.
func (o *odometer) next() (p float64, ok bool) {
	if last := len(o.idx) - 1; last >= 0 {
		if j := o.idx[last] + 1; j < len(o.inner.Values) {
			o.idx[last] = j
			o.vals[o.innerSlot] = o.inner.Values[j]
			return o.innerAbove * o.inner.Probs[j], true
		}
	}
	return o.carry()
}

// carry advances the walk once its innermost level is exhausted: the
// deepest outer level with support left moves on, and every level
// below it restarts.
func (o *odometer) carry() (p float64, ok bool) {
	last := len(o.vars) - 1
	i := last - 1
	for i >= 0 && o.idx[i]+1 == o.dists[o.vars[i]].Size() {
		i--
	}
	if i < 0 {
		return 0, false
	}
	o.setLevel(i, o.idx[i]+1)
	for j := i + 1; j <= last; j++ {
		o.setLevel(j, 0)
	}
	o.innerAbove = o.prefix[last]
	return o.prefix[last+1], true
}

// each calls visit with every outcome's probability, in walk order.
func (o *odometer) each(visit func(p float64)) {
	for p, ok := o.first(); ok; p, ok = o.next() {
		visit(p)
	}
}

// fill sets the walk's vars to the members of vars whose cleaned flag
// equals want, in order, with slot = object id.
func (o *odometer) fill(vars []int, cleaned []bool, want bool) {
	o.vars, o.slot = o.vars[:0], o.slot[:0]
	for _, v := range vars {
		if cleaned[v] == want {
			o.vars = append(o.vars, v)
			o.slot = append(o.slot, v)
		}
	}
}

// unitLevel is the last level of a term walk with no uncleaned var:
// one outcome, of probability 1, that writes no argument.
var unitLevel = dist.PointMass(0)

// splitSweep splits a term's vars for a term walk: in gets the cleaned
// vars and up every uncleaned var but the last, each in declaration
// order with slot = position in vars. It returns the law of the last
// uncleaned var, the level the walk sweeps, and that var's position in
// vars; with no uncleaned var it returns unitLevel and −1.
func splitSweep(dists []*dist.Discrete, vars []int, cleaned []bool, in, up *odometer) (inner *dist.Discrete, pos int) {
	in.vars, in.slot = in.vars[:0], in.slot[:0]
	up.vars, up.slot = up.vars[:0], up.slot[:0]
	pos = -1
	for p, v := range vars {
		if cleaned[v] {
			in.vars = append(in.vars, v)
			in.slot = append(in.slot, p)
			continue
		}
		if pos >= 0 {
			up.vars = append(up.vars, vars[pos])
			up.slot = append(up.slot, pos)
		}
		pos = p
	}
	if pos < 0 {
		return unitLevel, -1
	}
	return dists[vars[pos]], pos
}

// BruteForce is the exponential-time reference engine: it enumerates the
// full joint distribution. Values must be mutually independent and
// discrete. Use only for small n (tests, the paper's worked examples,
// exhaustive OPT baselines).
type BruteForce struct {
	db    *model.DB
	dists []*dist.Discrete
	f     query.Function
}

// NewBruteForce builds the reference engine.
func NewBruteForce(db *model.DB, f query.Function) (*BruteForce, error) {
	if db.Cov != nil {
		return nil, errors.New("ev: BruteForce requires independent values")
	}
	ds, err := db.Discretes()
	if err != nil {
		return nil, fmt.Errorf("ev: BruteForce: %w", err)
	}
	return &BruteForce{db: db, dists: ds, f: f}, nil
}

// EV enumerates V_T, and for each cleaned outcome the conditional
// distribution of the remaining values.
func (b *BruteForce) EV(T model.Set) float64 {
	n := b.db.N()
	x := make([]float64, n)
	inner := newOdometer(b.dists, x, T.Complement(n))
	var acc numeric.KahanAcc
	newOdometer(b.dists, x, T).each(func(pT float64) {
		var m1, m2 numeric.KahanAcc
		for p, ok := inner.first(); ok; p, ok = inner.next() {
			v := b.f.Eval(x)
			m1.Add(p * v)
			m2.Add(p * v * v)
		}
		mean := m1.Value()
		variance := m2.Value() - mean*mean
		if variance < 0 {
			variance = 0
		}
		acc.Add(pT * variance)
	})
	return acc.Value()
}

// Variance returns Var[f(X)] with nothing cleaned (EV(∅)).
func (b *BruteForce) Variance() float64 { return b.EV(nil) }

// Modular is the Lemma 3.1 fast path: affine f and uncorrelated values
// give EV(T) = Σ_{i∉T} a_i²·Var[X_i], so each object contributes an
// independent weight w_i = a_i²·Var[X_i].
type Modular struct {
	weights []float64
	total   float64
}

// NewModular builds the engine from any database (discrete or normal
// marginals — only variances are needed).
func NewModular(db *model.DB, f *query.Affine) (*Modular, error) {
	if db.Cov != nil {
		return nil, errors.New("ev: Modular requires uncorrelated values")
	}
	m := &Modular{weights: make([]float64, db.N())}
	for i := range m.weights {
		a := f.CoefAt(i)
		w := a * a * db.Objects[i].Value.Variance()
		m.weights[i] = w
		m.total += w
	}
	return m, nil
}

// Weights returns w_i = a_i²·Var[X_i], the knapsack weights of §3.2.
func (m *Modular) Weights() []float64 { return append([]float64(nil), m.weights...) }

// EV returns total − Σ_{i∈T} w_i.
func (m *Modular) EV(T model.Set) float64 {
	ev := m.total
	for _, i := range T {
		ev -= m.weights[i]
	}
	if ev < 0 {
		ev = 0
	}
	return ev
}

// Variance returns EV(∅) = Var[f(X)].
func (m *Modular) Variance() float64 { return m.total }
