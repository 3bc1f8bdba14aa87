// Package maxpr evaluates the MaxPr objective of Eq. (2),
//
//	P(T) = Pr[ f(X) < f(u) − τ | X_{O\T} = u_{O\T} ],
//
// the probability that cleaning the subset T while everything else keeps
// its current value produces a "surprise": a drop of more than τ in the
// query result, e.g. the bias of a claim falling enough to expose a strong
// counterargument (§2.2).
//
// Evaluators, from most to least structured:
//
//   - NormalAffine  — independent normal errors + affine f: the drop
//     D = Σ_{i∈T} a_i·(X_i − u_i) is normal, so P(T) = Φ((−τ−μ_D)/σ_D)
//     (Lemma 3.1/3.3).
//   - MVNAffine     — correlated normal errors: conditional law of X_T
//     given X_{O\T} = u through the precision matrix Q = Σ⁻¹, which
//     factors only the |T|×|T| block Q_TT (docs/NUMERICS.md).
//   - Hybrid        — independent discrete errors: D by exact
//     convolution while its state space fits a cap, and by sampling D
//     from the same shifted supports beyond it.
//
// Hybrid, and Cached over it, are also ExtensionScorers: one convolution
// of D_T scores every one-object extension of T, which is how greedy
// selection avoids convolving each candidate set afresh.
package maxpr

import (
	"errors"
	"fmt"
	"math"

	"github.com/factcheck/cleansel/internal/dist"
	"github.com/factcheck/cleansel/internal/linalg"
	"github.com/factcheck/cleansel/internal/model"
	"github.com/factcheck/cleansel/internal/numeric"
	"github.com/factcheck/cleansel/internal/obs"
	"github.com/factcheck/cleansel/internal/query"
	"github.com/factcheck/cleansel/internal/rng"
)

// Evaluator computes the MaxPr objective for subsets of a fixed problem.
type Evaluator interface {
	// Prob returns P(T). By definition P(∅) = 0 for τ ≥ 0.
	Prob(T model.Set) float64
}

// NormalAffine is the closed-form evaluator for independent normal errors
// and an affine query function.
type NormalAffine struct {
	a   []float64 // dense coefficients
	mu  []float64 // value-model means
	sd  []float64 // value-model standard deviations
	u   []float64 // current values
	tau float64
}

// NewNormalAffine builds the evaluator. Every object value must be
// dist.Normal and the database independent.
func NewNormalAffine(db *model.DB, f *query.Affine, tau float64) (*NormalAffine, error) {
	if err := checkTau(tau); err != nil {
		return nil, err
	}
	if db.Cov != nil {
		return nil, errors.New("maxpr: NormalAffine requires independent values")
	}
	ns, ok := db.Normals()
	if !ok {
		return nil, errors.New("maxpr: NormalAffine requires normal value models")
	}
	n := db.N()
	e := &NormalAffine{a: f.Dense(n), mu: make([]float64, n), sd: make([]float64, n), u: db.Currents(), tau: tau}
	for i, nm := range ns {
		e.mu[i] = nm.Mu
		e.sd[i] = nm.Sigma
	}
	return e, nil
}

// Prob returns Φ((−τ − μ_D)/σ_D) with μ_D = Σ_{i∈T} a_i(μ_i−u_i) and
// σ_D² = Σ_{i∈T} a_i²σ_i².
func (e *NormalAffine) Prob(T model.Set) float64 {
	if len(T) == 0 {
		return 0
	}
	var mean, varD float64
	for _, i := range T {
		mean += e.a[i] * (e.mu[i] - e.u[i])
		varD += e.a[i] * e.a[i] * e.sd[i] * e.sd[i]
	}
	return tailProb(mean, varD, e.tau)
}

// SingleProb returns the one-step MaxPr objective of cleaning exactly
// one object: Pr[a·(X − u) < −τ] for the object's marginal law X,
// coefficient a, and current value u. For a normal law it is the
// NormalAffine closed form bit for bit (same expression, same
// association order), so an incremental caller — the served session
// stepper conditions by point-mass substitution instead of rebuilding an
// evaluator — recommends exactly what a fresh NormalAffine would. For a
// discrete law the tail is summed exactly over the support in index
// order (the strict inequality of Eq. (2), like Discrete.PrBelow).
func SingleProb(v model.Value, a, u, tau float64) (float64, error) {
	if err := checkTau(tau); err != nil {
		return 0, err
	}
	if a == 0 {
		// The drop is identically zero and τ ≥ 0: no surprise possible.
		return 0, nil
	}
	switch law := v.(type) {
	case dist.Normal:
		return tailProb(a*(law.Mu-u), a*a*law.Sigma*law.Sigma, tau), nil
	case *dist.Discrete:
		var acc numeric.KahanAcc
		for j, x := range law.Values {
			if a*(x-u) < -tau {
				acc.Add(law.Probs[j])
			}
		}
		return acc.Value(), nil
	default:
		return 0, fmt.Errorf("maxpr: unsupported value model %T", v)
	}
}

// checkTau rejects a threshold outside [0, +Inf]: a NaN τ fails every
// comparison with the drop, which would read as "no chance of surprise".
func checkTau(tau float64) error {
	if math.IsNaN(tau) || tau < 0 {
		return fmt.Errorf("maxpr: invalid tau %v", tau)
	}
	return nil
}

// tailProb returns Pr[N(mean, varD) < −τ].
func tailProb(mean, varD, tau float64) float64 {
	if varD <= 0 {
		if mean < -tau {
			return 1
		}
		return 0
	}
	return numeric.NormalCDF((-tau - mean) / math.Sqrt(varD))
}

// MVNAffine handles correlated normal errors: the cleaned values, given
// that everything else sits at its current value, follow the conditional
// normal law of the joint model.
type MVNAffine struct {
	a   []float64
	mu  []float64
	u   []float64
	cov *linalg.Matrix
	tau float64
	// marginal, when true, uses the paper's simplified semantics: cleaning
	// draws X_T from its marginal (ignoring what conditioning on the
	// uncleaned current values implies).
	marginal bool
	// q = Σ⁻¹ and qd = Q·(u − μ), computed once for the conditional
	// semantics (nil under the marginal one).
	q  *linalg.Matrix
	qd []float64
}

// NewMVNAffine builds the evaluator over db.Covariance(): the database's
// covariance, or the diagonal of its marginal variances (independence).
// The conditional semantics condition on the uncleaned values through the
// precision matrix Σ⁻¹, which needs a positive-definite covariance: a
// singular one is an error here, not a probability of 0 for every set.
func NewMVNAffine(db *model.DB, f *query.Affine, tau float64, marginal bool) (*MVNAffine, error) {
	if err := checkTau(tau); err != nil {
		return nil, err
	}
	cov, err := db.Covariance()
	if err != nil {
		return nil, err
	}
	n := db.N()
	e := &MVNAffine{
		a: f.Dense(n), mu: db.Means(), u: db.Currents(),
		cov: cov, tau: tau, marginal: marginal,
	}
	if !marginal {
		q, err := linalg.InverseSPD(cov)
		if err != nil {
			return nil, fmt.Errorf("maxpr: conditional MVN semantics: %w", err)
		}
		delta := make([]float64, n)
		for i := range delta {
			delta[i] = e.u[i] - e.mu[i]
		}
		e.q, e.qd = q, q.MulVec(delta)
	}
	return e, nil
}

// Prob evaluates the objective under the selected semantics. Given
// X_Ū = u_Ū, the drop D = Σ_{i∈T} a_i(X_i − u_i) is normal with mean
// −a_Tᵀ·Q_TT⁻¹·(Qδ)_T and variance a_Tᵀ·Q_TT⁻¹·a_T, δ = u − μ (Rue &
// Held 2005, Thm 2.5), so one solve z = Q_TT⁻¹·a_T gives both.
func (e *MVNAffine) Prob(T model.Set) float64 {
	if len(T) == 0 {
		return 0
	}
	at := make([]float64, len(T))
	for j, i := range T {
		at[j] = e.a[i]
	}
	if e.marginal {
		var mean float64
		for _, i := range T {
			mean += e.a[i] * (e.mu[i] - e.u[i])
		}
		varD := linalg.QuadForm(e.cov.Submatrix(T, T), at)
		return tailProb(mean, varD, e.tau)
	}
	z, err := linalg.SolveSPD(e.q.Submatrix(T, T), at)
	if err != nil {
		// Q_TT is positive definite whenever Σ is: only round-off in a
		// badly conditioned Σ gets here, and Evaluator has no error
		// channel.
		return 0
	}
	var mean, varD float64
	for j, i := range T {
		mean -= z[j] * e.qd[i]
		varD += at[j] * z[j]
	}
	return tailProb(mean, varD, e.tau)
}

// Hybrid evaluates the objective for independent discrete errors: exactly,
// by convolving the drop D = Σ_{i∈T} a_i(X_i − u_i), while T's state space
// fits a cap, and by sampling D beyond it — the practical evaluator for
// greedy selection over discrete databases whose chosen sets can grow
// large. Both routes run over current-shifted supports X_i − u_i, built
// once at construction, so the outcome in which every cleaned value
// equals its current value is a drop of exactly 0 — never a round-off
// residue that the strict test D < −τ would count as a surprise at τ = 0.
// The convolution grid is scale-aware (see dist.WeightedSum/dist.ConvGrid):
// large-magnitude workloads — CDC-style counts reaching 1e12 and beyond —
// convolve on an exact integer grid when the weighted supports are
// integral (or dyadic), and on a relative-resolution grid otherwise, so
// the fallback triggers on state-space size, never on magnitude.
type Hybrid struct {
	// shifted[i] is the law of X_i − u_i. The convolution and Gain skip
	// objects with a_i = 0, which never move the drop; the sampler draws
	// them too, so its random stream does not depend on the coefficients.
	shifted []*dist.Discrete
	a       []float64
	tau     float64
	// maxStates caps the convolution support; sets past it are sampled,
	// samples draws of D each, from r.
	maxStates int
	samples   int
	r         *rng.RNG
	// rec, when set via Observe, receives write-only trace counters; it
	// never influences results.
	rec *obs.Recorder
}

// DefaultMaxStates bounds exact convolution work (supports ≤ 6 and claims
// over tens of objects stay far below it).
const DefaultMaxStates = 1 << 22

// errTooLarge signals that exact convolution would exceed maxStates.
var errTooLarge = errors.New("maxpr: convolution state space too large")

// NewHybrid builds the evaluator. Every object value must be discrete and
// the database independent; maxStates ≤ 0 means DefaultMaxStates, and the
// fallback draws samples ≥ 1 outcomes per set from r.
func NewHybrid(db *model.DB, f *query.Affine, tau float64, maxStates, samples int, r *rng.RNG) (*Hybrid, error) {
	if err := checkTau(tau); err != nil {
		return nil, err
	}
	if db.Cov != nil {
		return nil, errors.New("maxpr: Hybrid requires independent values")
	}
	ds, err := db.Discretes()
	if err != nil {
		return nil, fmt.Errorf("maxpr: Hybrid: %w", err)
	}
	if samples <= 0 {
		return nil, fmt.Errorf("maxpr: need samples >= 1, got %d", samples)
	}
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}
	shifted := make([]*dist.Discrete, len(ds))
	for i, d := range ds {
		u := db.Objects[i].Current
		vals := make([]float64, len(d.Values))
		for j, x := range d.Values {
			vals[j] = x - u
		}
		// The probabilities are the object's own, bit for bit: NewDiscrete
		// would renormalize them.
		shifted[i] = &dist.Discrete{Values: vals, Probs: d.Probs}
	}
	return &Hybrid{shifted: shifted, a: f.Dense(db.N()), tau: tau, maxStates: maxStates, samples: samples, r: r}, nil
}

// Observe attaches a trace recorder (nil detaches). It ticks the
// convolution work counters and each evaluation's route, maxpr_exact or
// maxpr_mc_fallback. Recording is write-only: probabilities are
// bit-identical with or without it.
func (h *Hybrid) Observe(rec *obs.Recorder) { h.rec = rec }

// Prob implements Evaluator: Pr[D < −τ] by exact convolution, or the
// Monte-Carlo estimate when T's state space exceeds the cap. Each of the
// estimate's draws takes every object of T once, in T's order, from its
// shifted law, and counts a hit when the drop they sum to is below −τ.
func (h *Hybrid) Prob(T model.Set) float64 {
	if len(T) == 0 {
		h.rec.Add("maxpr_exact", 1)
		return 0
	}
	if d, _, err := h.drop(T); err == nil {
		h.rec.Add("maxpr_exact", 1)
		return d.PrBelow(-h.tau)
	}
	h.rec.Add("maxpr_mc_fallback", 1)
	hits := 0
	for s := 0; s < h.samples; s++ {
		var d float64
		for _, i := range T {
			d += h.a[i] * h.shifted[i].Sample(h.r)
		}
		if d < -h.tau {
			hits++
		}
	}
	return float64(hits) / float64(h.samples)
}

// drop convolves the law of D_T = Σ_{i∈T} a_i·(X_i − u_i) over the
// current-shifted supports, returning it with its state count (the
// product of the moving objects' support sizes), or errTooLarge when that
// count exceeds the cap. Prob and Extensions share it, so P(T) is the
// same bits on both routes.
func (h *Hybrid) drop(T model.Set) (*dist.Discrete, int, error) {
	states := 1
	weights := make([]float64, 0, len(T))
	parts := make([]*dist.Discrete, 0, len(T))
	for _, i := range T {
		if h.a[i] == 0 {
			continue
		}
		size := h.shifted[i].Size()
		if states > h.maxStates/size {
			return nil, 0, errTooLarge
		}
		states *= size
		weights = append(weights, h.a[i])
		parts = append(parts, h.shifted[i])
	}
	d, err := dist.WeightedSumRec(h.rec, 0, weights, parts)
	if err != nil {
		return nil, 0, err
	}
	return d, states, nil
}

// ExtensionScorer is an Evaluator that can score every one-object
// extension of a set from a single convolution of the set's drop law,
// instead of convolving P(T ∪ {o}) afresh for each candidate o.
type ExtensionScorer interface {
	Evaluator
	// Extensions returns the scorer of T's one-object extensions, or nil
	// when the evaluator has none for T; the caller then evaluates each
	// candidate with Prob.
	Extensions(T model.Set) *Extensions
}

// Extensions scores the one-object extensions of a set T. It holds the
// drop law D_T and, for a candidate o ∉ T with current-shifted support
// values s_oj = x_oj − u_o of probability p_oj, returns the gain
//
//	Δ(o) = P(T ∪ {o}) − P(T) = Σ_j p_oj · (F(−τ − a_o·s_oj) − F(−τ)),
//
// where F(t) = Pr[D_T < t] is read from D_T's sorted cumulative table.
// Every term is the difference of two reads from that one table, so a
// gain is exactly 0 when a_o = 0 or when no atom of D_T lies between the
// two thresholds: it is never the rounding residue of subtracting two
// separately convolved probabilities.
type Extensions struct {
	h      *Hybrid
	drop   *dist.Discrete // D_T
	p      float64        // P(T) = F(−τ)
	states int            // state count of D_T
}

// Extensions implements ExtensionScorer. When T itself cannot be
// convolved it returns nil, so every candidate goes through Prob — the
// Monte-Carlo fallback Prob would take for the same sets; candidates past
// the cap are likewise left to Prob.
func (h *Hybrid) Extensions(T model.Set) *Extensions {
	d, states, err := h.drop(T)
	if err != nil {
		return nil
	}
	return &Extensions{h: h, drop: d, p: d.PrBelow(-h.tau), states: states}
}

// Prob returns P(T), bit-identical to the evaluator's Prob(T).
func (x *Extensions) Prob() float64 { return x.p }

// Gain returns Δ(o) for a candidate o ∉ T, with ok = false when the
// convolution of T ∪ {o} would exceed the state cap (or x is nil): the
// caller then evaluates P(T ∪ {o}) itself. Each gain it answers counts as
// one exact evaluation.
func (x *Extensions) Gain(o int) (gain float64, ok bool) {
	if x == nil {
		return 0, false
	}
	h := x.h
	var acc numeric.KahanAcc
	if a := h.a[o]; a != 0 { // a zero coefficient never moves the drop
		s := h.shifted[o]
		if x.states > h.maxStates/s.Size() {
			return 0, false
		}
		for j, v := range s.Values {
			acc.Add(s.Probs[j] * (x.drop.PrBelow(-h.tau-a*v) - x.p))
		}
	}
	h.rec.Add("maxpr_exact", 1)
	return acc.Value(), true
}

// Cached memoizes another evaluator by the canonical key of the subset.
// Greedy selection across a budget sweep revisits the same subsets many
// times; with a sampling inner evaluator (Hybrid past its cap), caching
// also keeps the estimates consistent between visits.
type Cached struct {
	inner Evaluator
	cache map[string]float64
}

// NewCached wraps an evaluator with memoization.
func NewCached(inner Evaluator) *Cached {
	return &Cached{inner: inner, cache: make(map[string]float64)}
}

// Prob implements Evaluator, memoized under model.SetKey(T).
func (c *Cached) Prob(T model.Set) float64 {
	k := model.SetKey(T)
	if p, ok := c.cache[k]; ok {
		return p
	}
	p := c.inner.Prob(T)
	c.cache[k] = p
	return p
}

// Extensions implements ExtensionScorer by delegating to the inner
// evaluator (nil when it has no scorer). Gains are not memoized; the
// candidates the scorer leaves to the caller come back through Prob,
// which is.
func (c *Cached) Extensions(T model.Set) *Extensions {
	if s, ok := c.inner.(ExtensionScorer); ok {
		return s.Extensions(T)
	}
	return nil
}
