package ev

import (
	"github.com/factcheck/cleansel/internal/linalg"
	"github.com/factcheck/cleansel/internal/model"
	"github.com/factcheck/cleansel/internal/query"
)

// MVNEngine computes EV(T) for an affine query function when the object
// values follow a joint (possibly correlated) normal law — the §4.5
// setting where dependencies Cov(i,j) = γ^{j−i}·σ_i·σ_j are injected into
// CDC-firearms.
//
// For a multivariate normal, the conditional covariance of the uncleaned
// values given X_T = v is the Schur complement Σ_{Ū|T} and does not depend
// on v, so the expectation over cleaning outcomes is the conditional
// variance itself:
//
//	EV(T) = a_Ū ᵀ · (Σ_ŪŪ − Σ_ŪT·Σ_TT⁻¹·Σ_TŪ) · a_Ū.
type MVNEngine struct {
	db    *model.DB
	sigma *linalg.Matrix
	a     []float64

	sigmaA []float64 // Σ·a, precomputed
	total  float64   // aᵀΣa = Var[f]
}

// NewMVN builds the engine over db.Covariance(): the database's covariance,
// or the diagonal of its marginal variances (the independent special case).
func NewMVN(db *model.DB, f *query.Affine) (*MVNEngine, error) {
	sigma, err := db.Covariance()
	if err != nil {
		return nil, err
	}
	e := &MVNEngine{db: db, sigma: sigma, a: f.Dense(db.N())}
	e.sigmaA = sigma.MulVec(e.a)
	for i, v := range e.a {
		e.total += v * e.sigmaA[i]
	}
	return e, nil
}

// EV returns the exact conditional variance of f given that T is cleaned.
// Because (f, X_T) are jointly normal,
//
//	EV(T) = Var[f | X_T] = Var[f] − Cov(f, X_T)ᵀ·Σ_TT⁻¹·Cov(f, X_T),
//
// which only factorizes the |T|×|T| conditioning block — the form that
// makes the exhaustive OPT baseline of §4.5 affordable.
//
// An object with zero variance is a constant: conditioning on it changes
// nothing, so it is left out of T (its zero row would make Σ_TT
// singular). Any other singular block — linearly dependent non-constant
// values — falls back to MarginalEV.
func (e *MVNEngine) EV(T model.Set) float64 {
	live := make(model.Set, 0, len(T))
	cT := make([]float64, 0, len(T))
	for _, v := range T {
		if e.sigma.At(v, v) != 0 {
			live = append(live, v)
			cT = append(cT, e.sigmaA[v])
		}
	}
	if len(live) == 0 {
		return e.total
	}
	sTT := e.sigma.Submatrix(live, live)
	sol, err := linalg.SolveSPD(sTT, cT)
	if err != nil {
		// Degenerate conditioning block: fall back to the marginal
		// semantics, which needs no inversion.
		return e.MarginalEV(T)
	}
	out := e.total
	for i := range cT {
		out -= cT[i] * sol[i]
	}
	if out < 0 {
		return 0
	}
	return out
}

// MarginalEV returns Σ_{i,j∉T} a_i·a_j·Σ_ij — the simplified semantics the
// paper's Theorem 3.9 proof uses, which treats the uncleaned values as
// keeping their marginal covariance after conditioning. It coincides with
// EV when values are independent.
func (e *MVNEngine) MarginalEV(T model.Set) float64 {
	keep := T.Complement(e.db.N())
	var out float64
	for _, i := range keep {
		for _, j := range keep {
			out += e.a[i] * e.a[j] * e.sigma.At(i, j)
		}
	}
	if out < 0 {
		return 0
	}
	return out
}

// Variance returns EV(∅) = aᵀΣa.
func (e *MVNEngine) Variance() float64 {
	return linalg.QuadForm(e.sigma, e.a)
}
