// Package session is the paper's adaptive cleaning loop, served as a
// stateful protocol. A real fact-checking desk does not hold the ground
// truth: it learns one revealed value per cleaning action, one phone
// call at a time. A Stepper holds the state of one such episode: the
// engine recommends the next object to clean, the client cleans it out
// of band and reports the revealed value, and the stepper conditions its
// state on the observation and re-decides. It is the only adaptive loop;
// the adaptive figure (internal/expt) drives the same Stepper with
// simulated truths.
//
// Two design rules carry over from the rest of the system:
//
//   - One policy implementation. The decide-step is
//     core.NextAdaptiveStep, the one-round form of the Algorithm-1 loop
//     every upfront greedy runs: the same budget filter, zero-gain rule,
//     benefit-per-cost ratio and lowest-ID tie-break, written once in
//     core. The one-step MaxPr benefit is maxpr.SingleProb, bit-identical
//     to the NormalAffine closed form the upfront GreedyMaxPr uses.
//   - Incremental conditioning. The stepper computes each object's mean,
//     variance and one-step benefit once, at construction. Reporting a
//     revealed value substitutes a point mass for the object's law (à la
//     ev.GroupEngine.CondMoments): it rewrites that object's moments and
//     current value and evaluates the claim once. A benefit depends only
//     on the object's own law and current value, and a revealed object
//     leaves the candidate set, so no other benefit goes stale and a step
//     reads kept values; nothing recompiles the dataset. The stepper
//     ticks session_step_evals (the candidates a recommendation compares)
//     and session_conditioned counters on the request's obs.Recorder so
//     a trace can prove it.
//
// Everything here is sequential and deterministic: recommendations are
// a pure function of (database, claim, goal, τ, budget, reveal log),
// independent of worker counts, wall time, and map iteration order. The
// Manager (manager.go) adds the serving concerns — concurrency-safe
// records, TTL expiry, LRU eviction, durable snapshots.
package session

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"github.com/factcheck/cleansel/internal/core"
	"github.com/factcheck/cleansel/internal/maxpr"
	"github.com/factcheck/cleansel/internal/model"
	"github.com/factcheck/cleansel/internal/obs"
	"github.com/factcheck/cleansel/internal/query"
)

// Goal selects the objective a session optimizes.
type Goal string

const (
	// MaxPr maximizes the surprise probability: recommend the object
	// whose cleaning is most likely (per unit cost) to drop the claim
	// measure by more than τ.
	MaxPr Goal = "maxpr"
	// MinVar minimizes the fact-checker's uncertainty: recommend the
	// object with the largest variance drop per unit cost.
	MinVar Goal = "minvar"
)

// ParseGoal maps a wire-format goal name (case-insensitive) onto a Goal;
// the empty string defaults to MinVar, matching cleansel.ParseGoal.
func ParseGoal(s string) (Goal, error) {
	switch strings.ToLower(s) {
	case "", "minvar":
		return MinVar, nil
	case "maxpr":
		return MaxPr, nil
	default:
		return "", fmt.Errorf("session: unknown goal %q (want minvar or maxpr)", s)
	}
}

// Status is the lifecycle state of an episode.
type Status string

const (
	// Active sessions have a current recommendation.
	Active Status = "active"
	// Countered MaxPr sessions found their counterargument: the realized
	// drop exceeded τ. Terminal.
	Countered Status = "countered"
	// Exhausted sessions have no affordable positive-benefit step left —
	// the budget ran out or every useful object is clean. Terminal.
	Exhausted Status = "exhausted"
)

// Recommendation is the stepper's current advice: the object whose
// cleaning buys the most objective per unit cost right now.
type Recommendation struct {
	Object  int     `json:"object"`
	Name    string  `json:"name"`
	Benefit float64 `json:"benefit"`
	Cost    float64 `json:"cost"`
	Ratio   float64 `json:"ratio"`
}

// Reveal is one cleaned-object observation: the client cleaned Object
// and found Value.
type Reveal struct {
	Object int     `json:"object"`
	Value  float64 `json:"value"`
}

// Stepper is the policy engine of one adaptive episode. It is not safe
// for concurrent use; the Manager serializes access per session.
type Stepper struct {
	goal Goal
	f    *query.Affine
	tau  float64

	names []string
	costs []float64
	coef  []float64 // dense claim coefficients
	u     []float64 // current values; reveals overwrite
	mask  []bool    // cleaned objects

	// Moments of each object's law, a revealed object's those of its
	// point mass, and each uncleaned object's one-step benefit.
	mean, variance, benefit []float64

	baseline  float64 // f at the original current values
	current   float64 // f at u
	budget    float64
	remaining float64
	spent     float64
	steps     int

	// rec caches the current recommendation between mutations; recValid
	// distinguishes "not computed yet" from "terminal, none exists".
	rec      Recommendation
	recOK    bool
	recValid bool
}

// NewStepper builds the episode state for an affine claim function over
// an independent database. For the MaxPr goal every value model must be
// normal or discrete (the laws SingleProb evaluates exactly) and τ must
// be non-negative. The stepper keeps no reference to the database: it
// evaluates each law's moments and one-step benefit here, and reveals
// touch only its own copies.
func NewStepper(db *model.DB, f *query.Affine, goal Goal, tau, budget float64) (*Stepper, error) {
	if db == nil || db.N() == 0 {
		return nil, errors.New("session: empty database")
	}
	if db.Cov != nil {
		return nil, errors.New("session: sessions require independent values")
	}
	if f == nil {
		return nil, errors.New("session: nil claim function")
	}
	if goal != MaxPr && goal != MinVar {
		return nil, fmt.Errorf("session: unknown goal %q", goal)
	}
	if err := core.ValidateBudget(budget); err != nil {
		return nil, err
	}
	if math.IsNaN(tau) || tau < 0 {
		return nil, fmt.Errorf("session: invalid tau %v", tau)
	}
	n := db.N()
	s := &Stepper{
		goal:      goal,
		f:         f,
		tau:       tau,
		names:     make([]string, n),
		costs:     db.Costs(),
		coef:      f.Dense(n),
		u:         db.Currents(),
		mask:      make([]bool, n),
		mean:      make([]float64, n),
		variance:  make([]float64, n),
		benefit:   make([]float64, n),
		budget:    budget,
		remaining: budget,
	}
	for i, o := range db.Objects {
		s.names[i] = o.Name
		s.mean[i], s.variance[i] = o.Value.Mean(), o.Value.Variance()
		if goal == MinVar {
			s.benefit[i] = s.coef[i] * s.coef[i] * s.variance[i]
			continue
		}
		// Fail at create time, not mid-episode: SingleProb supports
		// exactly the laws the database can carry today, but a guard
		// here keeps any future value model an explicit decision.
		p, err := maxpr.SingleProb(o.Value, s.coef[i], s.u[i], tau)
		if err != nil {
			return nil, fmt.Errorf("session: object %d (%s): %w", i, o.Name, err)
		}
		s.benefit[i] = p
	}
	s.baseline = f.Eval(s.u)
	s.current = s.baseline
	return s, nil
}

// Goal returns the session's objective.
func (s *Stepper) Goal() Goal { return s.goal }

// Tau returns the surprise threshold (0 for MinVar sessions).
func (s *Stepper) Tau() float64 { return s.tau }

// Budget returns the total cleaning budget.
func (s *Stepper) Budget() float64 { return s.budget }

// Remaining returns the budget not yet spent.
func (s *Stepper) Remaining() float64 { return s.remaining }

// Spent returns the cost consumed so far.
func (s *Stepper) Spent() float64 { return s.spent }

// Steps returns the number of reveals applied; it doubles as the step
// counter a client echoes to order its clean reports.
func (s *Stepper) Steps() int { return s.steps }

// Name returns the object's label.
func (s *Stepper) Name(o int) string { return s.names[o] }

// Baseline returns f at the original current values.
func (s *Stepper) Baseline() float64 { return s.baseline }

// Current returns f at the working values: revealed truths substituted,
// everything else at its original current value.
func (s *Stepper) Current() float64 { return s.current }

// Achieved returns the realized drop baseline − current (positive = the
// measure fell).
func (s *Stepper) Achieved() float64 { return s.baseline - s.current }

// Countered reports whether the realized drop exceeds τ — for MaxPr
// sessions, the terminal success state: the episode stops paying once
// the counter is in hand.
func (s *Stepper) Countered() bool { return s.goal == MaxPr && s.Achieved() > s.tau }

// Estimate returns the posterior mean of f(X) given the reveals:
// revealed values are point masses, unrevealed objects contribute their
// marginal means (the CondMoments mean under independence).
func (s *Stepper) Estimate() float64 { return s.f.Eval(s.mean) }

// Uncertainty returns the posterior variance of f(X) given the reveals:
// Σ aᵢ²·Var[Xᵢ] with revealed variances gone (the CondMoments variance
// under independence).
func (s *Stepper) Uncertainty() float64 {
	var acc float64
	for i, v := range s.variance {
		acc += s.coef[i] * s.coef[i] * v
	}
	return acc
}

// Recommend returns the current recommendation, or ok = false when the
// session is terminal (countered, or no affordable step improves). The
// result is cached between reveals; the first call after a mutation
// compares every affordable candidate's kept benefit once (a_o²·Var[X_o]
// for MinVar, maxpr.SingleProb for MaxPr) and adds the number compared
// to session_step_evals on rec (nil-safe), so a request trace shows how
// many candidates the step weighed.
func (s *Stepper) Recommend(rec *obs.Recorder) (Recommendation, bool) {
	if s.recValid {
		return s.rec, s.recOK
	}
	s.recValid = true
	s.recOK = false
	if s.Countered() {
		return s.rec, false
	}
	var evals int64
	best, bestB, bestR := core.NextAdaptiveStep(s.costs, s.mask, s.remaining, func(o int) float64 {
		evals++
		return s.benefit[o]
	})
	if evals > 0 {
		rec.Add("session_step_evals", evals)
	}
	if best < 0 {
		return s.rec, false
	}
	s.rec = Recommendation{Object: best, Name: s.names[best], Benefit: bestB, Cost: s.costs[best], Ratio: bestR}
	s.recOK = true
	return s.rec, true
}

// Status returns the session's lifecycle state. Computing it may
// evaluate the next recommendation (cached afterwards).
func (s *Stepper) Status(rec *obs.Recorder) Status {
	if s.Countered() {
		return Countered
	}
	if _, ok := s.Recommend(rec); ok {
		return Active
	}
	return Exhausted
}

// Reveal errors, wrapped with detail by Reveal itself. The Manager maps
// ErrRevealConflict to HTTP 409; anything else is a bad request.
var (
	// ErrRevealConflict marks a reveal that is inconsistent with the
	// session's state — the object is already clean, unaffordable, or the
	// session is terminal — rather than malformed.
	ErrRevealConflict = errors.New("session: reveal conflicts with session state")
)

// Reveal conditions the session on one observation: the client cleaned
// object o and found value. Any uncleaned affordable object is
// accepted — the recommendation is advice, not a contract — but a
// terminal session takes no further reveals. On success the object's
// law collapses to a point mass, the working value becomes the truth,
// the claim is evaluated once at the new working values, the budget
// shrinks, and the step counter advances; one session_conditioned tick
// lands on rec.
func (s *Stepper) Reveal(o int, value float64, rec *obs.Recorder) error {
	if o < 0 || o >= len(s.u) {
		return fmt.Errorf("session: object %d out of range [0, %d)", o, len(s.u))
	}
	if math.IsNaN(value) || math.IsInf(value, 0) {
		return fmt.Errorf("session: revealed value for object %d must be finite, got %v", o, value)
	}
	if st := s.Status(rec); st != Active {
		return fmt.Errorf("%w: session is %s", ErrRevealConflict, st)
	}
	if s.mask[o] {
		return fmt.Errorf("%w: object %d (%s) already cleaned", ErrRevealConflict, o, s.names[o])
	}
	if !core.FitsBudget(0, s.costs[o], s.remaining) {
		return fmt.Errorf("%w: object %d (%s) costs %v, only %v remains", ErrRevealConflict, o, s.names[o], s.costs[o], s.remaining)
	}
	// Point-mass substitution, à la ev.GroupEngine.CondMoments: the
	// revealed value is the law now. No dataset recompile, no evaluator
	// rebuild, and no other object's benefit to refresh: o leaves the
	// candidate set, and every other benefit reads only its own object.
	// The moments are the point mass's own: variance 0, and a mean of
	// value + 0, which is the compensated sum dist.Discrete.Mean takes
	// of the one atom (a revealed −0 has mean +0).
	s.mean[o], s.variance[o] = value+0, 0
	s.u[o] = value
	s.current = s.f.Eval(s.u)
	s.mask[o] = true
	s.remaining -= s.costs[o]
	s.spent += s.costs[o]
	s.steps++
	s.recValid = false
	rec.Add("session_conditioned", 1)
	return nil
}
