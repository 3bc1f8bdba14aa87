package cleansel

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/factcheck/cleansel/internal/claims"
	"github.com/factcheck/cleansel/internal/core"
	"github.com/factcheck/cleansel/internal/datasets"
	"github.com/factcheck/cleansel/internal/dist"
	"github.com/factcheck/cleansel/internal/ev"
	"github.com/factcheck/cleansel/internal/maxpr"
	"github.com/factcheck/cleansel/internal/model"
	"github.com/factcheck/cleansel/internal/obs"
	"github.com/factcheck/cleansel/internal/query"
	"github.com/factcheck/cleansel/internal/rel"
	"github.com/factcheck/cleansel/internal/rng"
)

// Re-exported model types: the uncertain database of §2.1.
type (
	// DB is an uncertain database: objects with current values, cleaning
	// costs, and error models.
	DB = model.DB
	// Object is one uncertain data item.
	Object = model.Object
	// Set is a subset of object IDs (the values chosen for cleaning).
	Set = model.Set
	// Value is the marginal law of an object's true value.
	Value = model.Value
	// Discrete is a finite-support distribution.
	Discrete = dist.Discrete
	// Normal is a normal error model.
	Normal = dist.Normal
	// Claim is a linear claim function over the database.
	Claim = claims.Claim
	// Perturbed is a perturbation of the original claim with sensibility.
	Perturbed = claims.Perturbed
	// PerturbationSet is the original claim plus its weighted perturbations.
	PerturbationSet = claims.Set
	// Direction tells which way a claim is strong.
	Direction = claims.Direction
	// Selector is a budgeted selection algorithm.
	Selector = core.Selector
	// Table is a relational view over the uncertain database whose
	// SUM/AVG aggregates compile to linear claims (§3.4).
	Table = rel.Table
	// Row is one tuple of a Table.
	Row = rel.Row
	// Pred is a row predicate over certain attributes.
	Pred = rel.Pred
)

// Claim strength directions.
const (
	// HigherIsStronger marks claims strengthened by larger query results.
	HigherIsStronger = claims.HigherIsStronger
	// LowerIsStronger marks claims strengthened by smaller query results.
	LowerIsStronger = claims.LowerIsStronger
)

// NewDB assembles a database and assigns object IDs.
func NewDB(objects []Object) *DB { return model.New(objects) }

// NewSet builds a canonical object subset.
func NewSet(ids ...int) Set { return model.NewSet(ids...) }

// NewDiscrete builds a validated finite distribution.
func NewDiscrete(values, probs []float64) (*Discrete, error) {
	return dist.NewDiscrete(values, probs)
}

// UniformOver builds the uniform distribution over values.
func UniformOver(values []float64) *Discrete { return dist.UniformOver(values) }

// PointMass builds the distribution concentrated at v.
func PointMass(v float64) *Discrete { return dist.PointMass(v) }

// NewNormal builds a normal error model.
func NewNormal(mu, sigma float64) (Normal, error) { return dist.NewNormal(mu, sigma) }

// Mixture pools conflicting source distributions for one value into a
// credibility-weighted opinion pool (§2.1 discussion).
func Mixture(dists []*Discrete, weights []float64) (*Discrete, error) {
	return dist.Mixture(dists, weights)
}

// FuseNormals resolves independent normal reports of the same quantity by
// precision weighting (§2.1 discussion).
func FuseNormals(reports []Normal) (Normal, error) { return dist.FuseNormals(reports) }

// NewClaim builds a linear claim function.
func NewClaim(name string, constant float64, coef map[int]float64) *Claim {
	return claims.NewClaim(name, constant, coef)
}

// WindowSum builds the claim Σ_{i=start}^{start+w-1} X_i.
func WindowSum(name string, start, w int) *Claim { return claims.WindowSum(name, start, w) }

// WindowComparison builds a window-aggregate-comparison claim (later
// window minus earlier window).
func WindowComparison(name string, earlierStart, laterStart, w int) *Claim {
	return claims.WindowComparison(name, earlierStart, laterStart, w)
}

// NewPerturbationSet assembles the original claim with its perturbations;
// sensibilities are normalized to sum to one.
func NewPerturbationSet(original *Claim, dir Direction, ref float64, perturbs []Perturbed) (*PerturbationSet, error) {
	return claims.NewSet(original, dir, ref, perturbs)
}

// SlidingComparisons generates back-to-back window-comparison
// perturbations with exponentially decaying sensibility.
func SlidingComparisons(namePrefix string, n, w, origStart int, lambda float64) []Perturbed {
	return claims.SlidingComparisons(namePrefix, n, w, origStart, lambda)
}

// NonOverlappingWindows generates disjoint window-sum perturbations.
func NonOverlappingWindows(namePrefix string, n, w, origStart int, lambda float64) []Perturbed {
	return claims.NonOverlappingWindows(namePrefix, n, w, origStart, lambda)
}

// SlidingWindows generates window-sum perturbations at every start.
func SlidingWindows(namePrefix string, n, w, origStart int, lambda float64) []Perturbed {
	return claims.SlidingWindows(namePrefix, n, w, origStart, lambda)
}

// Embedded datasets and synthetic generators (§4).
var (
	// Adoptions builds the NYC adoptions dataset (1989–2014).
	Adoptions = datasets.Adoptions
	// CDCFirearms builds the nonfatal firearm-injury dataset (2001–2017).
	CDCFirearms = datasets.CDCFirearms
	// CDCCauses builds the four-cause injury dataset (68 values).
	CDCCauses = datasets.CDCCauses
	// URx builds the uniform-random synthetic dataset.
	URx = datasets.URx
	// LNx builds the log-normal synthetic dataset.
	LNx = datasets.LNx
	// SMx builds the multimodal synthetic dataset.
	SMx = datasets.SMx
)

// NewTable builds a relational view over the database; its aggregates
// (Sum, Avg, WeightedSum) compile to claims, and rel.Diff/rel.Share
// combine them into comparison and share claims.
func NewTable(name string, db *DB, rows []Row) (*Table, error) {
	return rel.NewTable(name, db, rows)
}

// Relational predicate helpers, re-exported for Table queries.
var (
	// DimEq matches rows whose string dimension equals a value.
	DimEq = rel.DimEq
	// IntBetween matches rows whose integer dimension lies in a range.
	IntBetween = rel.IntBetween
	// PredAnd conjoins predicates.
	PredAnd = rel.And
	// PredOr disjoins predicates.
	PredOr = rel.Or
	// PredNot negates a predicate.
	PredNot = rel.Not
	// ClaimDiff builds the comparison claim a − b.
	ClaimDiff = rel.Diff
	// ClaimShare builds the share claim a − frac·b.
	ClaimShare = rel.Share
)

// WithDecayCovariance equips the database with the correlated error model
// of §4.5: Cov(i, j) = gamma^|j−i|·σ_i·σ_j. Neighbouring objects' errors
// co-move; the dependency fades with distance. gamma must lie in [0, 1).
// An object with zero variance makes the covariance singular, and a
// MaximizeSurprise selection over it then fails with an error.
func WithDecayCovariance(db *DB, gamma float64) error {
	if math.IsNaN(gamma) || gamma < 0 || gamma >= 1 {
		return fmt.Errorf("cleansel: gamma %v outside [0, 1)", gamma)
	}
	db.SetDecayCovariance(gamma)
	return nil
}

// Measure selects the claim-quality measure to optimize (§2.2).
type Measure int

// The three claim-quality measures.
const (
	// Fairness targets the bias measure (weighted mean relative strength).
	Fairness Measure = iota
	// Uniqueness targets duplicity (count of perturbations at least as
	// strong as the original claim).
	Uniqueness
	// Robustness targets fragility (weighted squared weakenings).
	Robustness
)

// String implements fmt.Stringer.
func (m Measure) String() string {
	switch m {
	case Fairness:
		return "fairness"
	case Uniqueness:
		return "uniqueness"
	case Robustness:
		return "robustness"
	}
	return fmt.Sprintf("measure(%d)", int(m))
}

// ParseMeasure maps a wire-format name ("fairness", "uniqueness",
// "robustness"; case-insensitive) to its Measure. The empty string
// defaults to Fairness.
func ParseMeasure(s string) (Measure, error) {
	switch strings.ToLower(s) {
	case "fairness", "":
		return Fairness, nil
	case "uniqueness":
		return Uniqueness, nil
	case "robustness":
		return Robustness, nil
	}
	return 0, fmt.Errorf("cleansel: unknown measure %q", s)
}

// Goal selects the optimization objective (§2.1).
type Goal int

// The two objectives of the paper.
const (
	// MinimizeUncertainty is MinVar: ascertain claim quality.
	MinimizeUncertainty Goal = iota
	// MaximizeSurprise is MaxPr: maximize the chance of countering.
	MaximizeSurprise
)

// String implements fmt.Stringer.
func (g Goal) String() string {
	switch g {
	case MinimizeUncertainty:
		return "minvar"
	case MaximizeSurprise:
		return "maxpr"
	}
	return fmt.Sprintf("goal(%d)", int(g))
}

// ParseGoal maps a wire-format name ("minvar", "maxpr";
// case-insensitive) to its Goal. The empty string defaults to
// MinimizeUncertainty.
func ParseGoal(s string) (Goal, error) {
	switch strings.ToLower(s) {
	case "minvar", "":
		return MinimizeUncertainty, nil
	case "maxpr":
		return MaximizeSurprise, nil
	}
	return 0, fmt.Errorf("cleansel: unknown goal %q", s)
}

// Algorithm selects the solver.
type Algorithm int

// Available solvers.
const (
	// AlgoGreedy is the objective-aware Algorithm 1 (GreedyMinVar or
	// GreedyMaxPr depending on the goal).
	AlgoGreedy Algorithm = iota
	// AlgoOptimum is the exact knapsack DP (modular objectives only).
	AlgoOptimum
	// AlgoBest is the submodular-optimization algorithm of Theorem 3.7.
	AlgoBest
	// AlgoNaive is the variance-ranked greedy baseline.
	AlgoNaive
	// AlgoRandom is the random baseline.
	AlgoRandom
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case AlgoGreedy:
		return "greedy"
	case AlgoOptimum:
		return "optimum"
	case AlgoBest:
		return "best"
	case AlgoNaive:
		return "naive"
	case AlgoRandom:
		return "random"
	}
	return fmt.Sprintf("algorithm(%d)", int(a))
}

// ParseAlgorithm maps a wire-format name ("greedy", "optimum", "best",
// "naive", "random"; case-insensitive) to its Algorithm. The empty
// string defaults to AlgoGreedy.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch strings.ToLower(s) {
	case "greedy", "":
		return AlgoGreedy, nil
	case "optimum":
		return AlgoOptimum, nil
	case "best":
		return AlgoBest, nil
	case "naive":
		return AlgoNaive, nil
	case "random":
		return AlgoRandom, nil
	}
	return 0, fmt.Errorf("cleansel: unknown algorithm %q", s)
}

// Task describes one selection problem.
type Task struct {
	DB     *DB
	Claims *PerturbationSet
	// Measure is the claim-quality measure; MaxPr requires Fairness.
	Measure Measure
	// Goal picks MinVar or MaxPr.
	Goal Goal
	// Algorithm picks the solver (default AlgoGreedy); any value but the
	// five above is an error. MaximizeSurprise supports AlgoGreedy only.
	// Over correlated errors (WithDecayCovariance) MinimizeUncertainty
	// supports AlgoGreedy (GreedyDep), AlgoNaive and AlgoRandom;
	// AlgoOptimum and AlgoBest assume independent errors and fail.
	Algorithm Algorithm
	// Budget is the absolute cleaning budget.
	Budget float64
	// Tau is the MaxPr surprise threshold (ignored for MinVar).
	Tau float64
	// Seed drives randomized components (AlgoRandom, Monte-Carlo
	// fallbacks).
	Seed uint64
	// Discretize is the number of points in the discrete view that a
	// solve takes of normal value models wherever it needs one
	// (uniqueness, robustness, AlgoBest, MaxPr over mixed models); 0
	// means 6. A value outside [0, 1024] is an error.
	Discretize int
}

// Result reports a selection.
type Result struct {
	// Set holds the chosen object IDs.
	Set Set
	// Chosen holds the chosen object names, in ID order.
	Chosen []string
	// CostSpent is the total cleaning cost of the chosen set.
	CostSpent float64
	// Before and After are the objective values with nothing cleaned and
	// with the chosen set cleaned: expected variance for MinVar, counter
	// probability for MaxPr.
	Before, After float64
}

// Select solves the task.
func Select(task Task) (Result, error) {
	return SelectContext(context.Background(), task)
}

// SelectContext solves the task under ctx: when the context is
// cancelled or times out, the solver stops cooperatively (between
// benefit evaluations) and returns the context's error. An uncancelled
// SelectContext returns exactly what Select returns. Solvers fan their
// per-object enumeration out over a bounded worker pool sized by
// GOMAXPROCS (override with CLEANSEL_WORKERS); results are
// bit-identical for every worker count.
func SelectContext(ctx context.Context, task Task) (Result, error) {
	if err := checkTask(task); err != nil {
		return Result{}, err
	}
	switch task.Goal {
	case MinimizeUncertainty:
		return selectMinVar(ctx, task)
	case MaximizeSurprise:
		return selectMaxPr(ctx, task)
	}
	return Result{}, fmt.Errorf("cleansel: unknown goal %d", task.Goal)
}

// checkTask rejects a task without DB or Claims, a database that fails
// DB.Validate, and a Discretize out of range, whatever the measure.
func checkTask(task Task) error {
	if task.DB == nil || task.Claims == nil {
		return errors.New("cleansel: task needs DB and Claims")
	}
	if err := task.DB.Validate(); err != nil {
		return err
	}
	return core.CheckDiscretize(task.Discretize)
}

// compileGroup compiles the task's uniqueness or robustness measure:
// the view core.DiscreteView(task.DB, task.Discretize), the measure's
// group sum, and a group engine over both. Select and rank share it.
func compileGroup(task Task) (*DB, *query.GroupSum, *ev.GroupEngine, error) {
	if task.DB.Cov != nil {
		return nil, nil, nil, errors.New("cleansel: correlated errors are only supported for the fairness measure")
	}
	work, err := core.DiscreteView(task.DB, task.Discretize)
	if err != nil {
		return nil, nil, nil, err
	}
	g := task.Claims.Dup()
	if task.Measure == Robustness {
		g = task.Claims.Frag()
	}
	ge, err := ev.NewGroupEngine(work, g)
	return work, g, ge, err
}

func selectMinVar(ctx context.Context, task Task) (Result, error) {
	db := task.DB
	var (
		sel    core.Selector
		engine ev.Engine
		err    error
	)
	switch task.Measure {
	case Fairness:
		bias := task.Claims.Bias()
		switch {
		case db.Cov == nil:
			engine, err = ev.NewModular(db, bias)
		case task.Algorithm == AlgoOptimum || task.Algorithm == AlgoBest:
			return Result{}, fmt.Errorf("cleansel: correlated errors are solved by greedy (GreedyDep), naive or random; algorithm %v assumes independent errors", task.Algorithm)
		default:
			engine, err = ev.NewMVN(db, bias)
		}
		if err != nil {
			return Result{}, err
		}
		switch task.Algorithm {
		case AlgoGreedy:
			if db.Cov != nil {
				// GreedyDep: the adaptive greedy over the MVN engine
				// that also reports Before and After.
				sel, err = core.NewGreedyEngine("GreedyDep", db, engine)
			} else {
				sel, err = core.NewGreedyMinVarModular(db, bias)
			}
		case AlgoOptimum:
			sel, err = core.NewOptimumModular(db, bias)
		case AlgoNaive:
			sel = core.NewGreedyNaive(db, bias.Vars())
		case AlgoRandom:
			sel = &core.Random{DB: db, Seed: task.Seed}
		case AlgoBest:
			// The submodular machinery enumerates supports; run it on
			// the discretized view (the objective stays modular, so
			// the achieved EV is still reported exactly).
			var work *DB
			if work, err = core.DiscreteView(task.DB, task.Discretize); err == nil {
				var ge *ev.GroupEngine
				if ge, err = ev.NewGroupEngine(work, bias.AsGroupSum()); err == nil {
					sel, err = core.NewBest(work, ge)
				}
			}
		default:
			return Result{}, fmt.Errorf("cleansel: unknown algorithm %d", task.Algorithm)
		}
	case Uniqueness, Robustness:
		work, g, ge, gerr := compileGroup(task)
		if gerr != nil {
			return Result{}, gerr
		}
		engine = ge
		// The greedy and Best write their values through to ge's memo,
		// so the Before/After below read them instead of re-solving.
		switch task.Algorithm {
		case AlgoGreedy:
			sel, err = core.NewGreedyMinVarGroupEngine(work, ge)
		case AlgoBest:
			sel, err = core.NewBest(work, ge)
		case AlgoNaive:
			sel = core.NewGreedyNaive(work, g.Vars())
		case AlgoRandom:
			sel = &core.Random{DB: work, Seed: task.Seed}
		case AlgoOptimum:
			return Result{}, errors.New("cleansel: Optimum requires a modular objective; use Fairness or AlgoBest")
		default:
			return Result{}, fmt.Errorf("cleansel: unknown algorithm %d", task.Algorithm)
		}
	default:
		return Result{}, fmt.Errorf("cleansel: unknown measure %v", task.Measure)
	}
	if err != nil {
		return Result{}, err
	}
	T, err := core.SelectWithContext(ctx, sel, task.Budget)
	if err != nil {
		return Result{}, err
	}
	before, err := ev.EVWithContext(ctx, engine, nil)
	if err != nil {
		return Result{}, err
	}
	after, err := ev.EVWithContext(ctx, engine, T)
	if err != nil {
		return Result{}, err
	}
	return buildResult(db, T, before, after), nil
}

func selectMaxPr(ctx context.Context, task Task) (Result, error) {
	if task.Measure != Fairness {
		return Result{}, errors.New("cleansel: MaximizeSurprise optimizes the fairness (bias) measure")
	}
	if task.Algorithm != AlgoGreedy {
		return Result{}, fmt.Errorf("cleansel: MaximizeSurprise is solved by GreedyMaxPr only; algorithm %v is not supported", task.Algorithm)
	}
	db := task.DB
	bias := task.Claims.Bias()
	var (
		eval maxpr.Evaluator
		err  error
	)
	switch {
	case db.Cov != nil:
		eval, err = maxpr.NewMVNAffine(db, bias, task.Tau, false)
	default:
		if _, ok := db.Normals(); ok {
			eval, err = maxpr.NewNormalAffine(db, bias, task.Tau)
		} else {
			// Mixed value models: discretize the normals so the exact
			// convolution path applies.
			var (
				work *DB
				h    *maxpr.Hybrid
			)
			if work, err = core.DiscreteView(task.DB, task.Discretize); err == nil {
				h, err = maxpr.NewHybrid(work, bias, task.Tau, 0, 20000, rng.New(task.Seed^0x51ec7))
			}
			if err == nil {
				// Write-only trace: exact/fallback route counts and
				// convolution work tick the request's recorder, if any.
				h.Observe(obs.FromContext(ctx))
				eval = maxpr.NewCached(h)
			}
		}
	}
	if err != nil {
		return Result{}, err
	}
	sel, err := core.NewGreedyMaxPr(db, eval)
	if err != nil {
		return Result{}, err
	}
	T, err := core.SelectWithContext(ctx, sel, task.Budget)
	if err != nil {
		return Result{}, err
	}
	return buildResult(db, T, eval.Prob(nil), eval.Prob(T)), nil
}

func buildResult(db *DB, T Set, before, after float64) Result {
	res := Result{Set: T, Before: before, After: after, CostSpent: T.Cost(db)}
	for _, o := range T {
		res.Chosen = append(res.Chosen, db.Objects[o].Name)
	}
	return res
}

// ObjectBenefit reports one object's standalone cleaning value for a
// measure: the drop in expected variance if it alone were cleaned.
type ObjectBenefit struct {
	ID      int
	Name    string
	Benefit float64
	Cost    float64
}

// RankObjects returns every object's standalone cleaning benefit for the
// measure, sorted by benefit-per-cost descending (ties by ID) — the
// ranking a fact-checker inspects before committing budget. For Fairness
// the benefits are the exact modular weights a_i²·Var[X_i]; for
// Uniqueness/Robustness they are the group engine's singleton deltas
// over normal value models discretized onto 6 points (RankContext takes
// the count from Task.Discretize). A database that fails DB.Validate is
// an error, as it is for Select.
func RankObjects(db *DB, set *PerturbationSet, measure Measure) ([]ObjectBenefit, error) {
	return RankObjectsContext(context.Background(), db, set, measure)
}

// RankObjectsContext is RankObjects under ctx.
func RankObjectsContext(ctx context.Context, db *DB, set *PerturbationSet, measure Measure) ([]ObjectBenefit, error) {
	return RankContext(ctx, Task{DB: db, Claims: set, Measure: measure})
}

// RankContext is RankObjects of task.DB, task.Claims and task.Measure
// over a task.Discretize-point view, under ctx: the group engine's
// benefit pass runs on the parallel worker pool and stops with the
// context's error once ctx is done.
func RankContext(ctx context.Context, task Task) ([]ObjectBenefit, error) {
	if err := checkTask(task); err != nil {
		return nil, err
	}
	db := task.DB
	var benefits []float64
	switch task.Measure {
	case Fairness:
		eng, err := ev.NewModular(db, task.Claims.Bias())
		if err != nil {
			return nil, err
		}
		benefits = eng.Weights()
	case Uniqueness, Robustness:
		_, _, eng, err := compileGroup(task)
		if err != nil {
			return nil, err
		}
		if _, benefits, err = eng.NewStateCtx(ctx); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("cleansel: unknown measure %v", task.Measure)
	}
	out := make([]ObjectBenefit, db.N())
	for i := range out {
		out[i] = ObjectBenefit{
			ID:      i,
			Name:    db.Objects[i].Name,
			Benefit: benefits[i],
			Cost:    db.Objects[i].Cost,
		}
	}
	sort.SliceStable(out, func(a, b int) bool {
		ra, rb := core.Ratio(out[a].Benefit, out[a].Cost), core.Ratio(out[b].Benefit, out[b].Cost)
		return core.Ahead(ra, out[a].ID, rb, out[b].ID)
	})
	return out, nil
}

// QualityReport summarizes a claim's quality measures at the current
// values together with their uncertainty (variance under the error
// model), the §2.2 diagnostics a fact-checker starts from.
type QualityReport = core.Report

// AssessClaim computes the quality report. The database must be
// independent; discrete value models are required for the uniqueness and
// robustness variances (normal models are discretized with k=6 first).
func AssessClaim(db *DB, set *PerturbationSet) (QualityReport, error) {
	return AssessClaimContext(context.Background(), db, set)
}

// AssessClaimContext is AssessClaim under ctx: the duplicity and
// fragility variance solves (the expensive enumerations) run on the
// parallel worker pool and stop with the context's error once ctx is
// done. It runs through a one-shot TriageContext, so a standalone
// assessment and a bulk-triage assessment of the same claim are the
// same code path — bit-identical by construction.
func AssessClaimContext(ctx context.Context, db *DB, set *PerturbationSet) (QualityReport, error) {
	if db == nil || set == nil {
		return QualityReport{}, errors.New("cleansel: AssessClaim needs db and set")
	}
	tc, err := NewTriageContext(db)
	if err != nil {
		return QualityReport{}, err
	}
	return tc.AssessClaim(ctx, set)
}
