// Package wire defines the JSON wire format shared by the cleansel CLI
// and the cleanseld HTTP service, and maps it onto the cleansel public
// API: objects with discrete or normal value models, linear claims with
// perturbation sets, and the task parameters of Select/RankContext/
// AssessClaim. Decoding is strict — unknown fields, repeated keys and
// trailing bytes are rejected (decode.go) — so that malformed requests
// fail loudly instead of producing partial answers. Every request type
// appends its canonical encoding, the bytes json.Marshal produces for
// it (canonical.go), which cache keys, dataset IDs and session specs
// are made of.
package wire

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	cleansel "github.com/factcheck/cleansel"
	"github.com/factcheck/cleansel/internal/claims"
)

// Object is one uncertain value: either a finite support with weights
// (values/probs) or a normal error model.
type Object struct {
	Name    string    `json:"name"`
	Current float64   `json:"current"`
	Cost    float64   `json:"cost"`
	Values  []float64 `json:"values,omitempty"`
	Probs   []float64 `json:"probs,omitempty"`
	Normal  *Normal   `json:"normal,omitempty"`
}

// Normal is a normal error model specification.
type Normal struct {
	Mean  float64 `json:"mean"`
	Sigma float64 `json:"sigma"`
}

// Claim is a linear claim specification; Coef maps object IDs (decimal
// strings, 0-based) to coefficients.
type Claim struct {
	Name  string             `json:"name"`
	Const float64            `json:"const,omitempty"`
	Coef  map[string]float64 `json:"coef"`
}

// Perturbation is one weighted perturbation of the original claim.
type Perturbation struct {
	Claim       Claim   `json:"claim"`
	Sensibility float64 `json:"sensibility"`
}

// Problem names the data and the claim under scrutiny — the part of a
// request shared by the select, rank, and assess endpoints. The data is
// either inline (Objects) or a reference to a previously uploaded
// dataset (DatasetID, cleanseld only).
type Problem struct {
	Objects       []Object       `json:"objects,omitempty"`
	DatasetID     string         `json:"dataset_id,omitempty"`
	Claim         Claim          `json:"claim"`
	Direction     string         `json:"direction,omitempty"` // "higher" (default) or "lower"
	Reference     *float64       `json:"reference,omitempty"`
	Perturbations []Perturbation `json:"perturbations"`
	Discretize    int            `json:"discretize,omitempty"`
}

// Task is a full selection problem: a Problem plus the optimization
// parameters of cleansel.Select. It is the CLI's input format and the
// body of POST /v1/select.
type Task struct {
	Problem
	Measure   string  `json:"measure,omitempty"`   // fairness|uniqueness|robustness
	Goal      string  `json:"goal,omitempty"`      // minvar|maxpr
	Algorithm string  `json:"algorithm,omitempty"` // greedy|optimum|best|naive|random
	Budget    float64 `json:"budget"`
	Tau       float64 `json:"tau,omitempty"`
	Seed      uint64  `json:"seed,omitempty"`
}

// RankRequest is the body of POST /v1/rank.
type RankRequest struct {
	Problem
	Measure string `json:"measure,omitempty"`
}

// AssessRequest is the body of POST /v1/assess.
type AssessRequest struct {
	Problem
}

// TriageClaim is one claim in a triage batch: the claim under scrutiny
// with its perturbation set and strength parameters — the per-claim
// subset of Problem (data and discretization are batch-level).
type TriageClaim struct {
	Claim         Claim          `json:"claim"`
	Direction     string         `json:"direction,omitempty"` // "higher" (default) or "lower"
	Reference     *float64       `json:"reference,omitempty"`
	Perturbations []Perturbation `json:"perturbations"`
}

// TriageRequest is the body of POST /v1/triage: one dataset (inline or
// by reference), a batch of claims to assess against it, and the
// measure whose variance ranks them.
type TriageRequest struct {
	Objects    []Object      `json:"objects,omitempty"`
	DatasetID  string        `json:"dataset_id,omitempty"`
	Measure    string        `json:"measure,omitempty"` // fairness|uniqueness|robustness
	Discretize int           `json:"discretize,omitempty"`
	Claims     []TriageClaim `json:"claims"`
}

// TriageError is a per-claim failure inside an otherwise-successful
// triage batch.
type TriageError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// TriageEntry is one claim's slot in a triage response: either a
// report with its rank and score, or an error.
type TriageEntry struct {
	Index  int          `json:"index"` // position in the request's claims array
	Name   string       `json:"name,omitempty"`
	Rank   int          `json:"rank,omitempty"` // 1-based; 0 for errored claims
	Score  float64      `json:"score"`
	Report *Report      `json:"report,omitempty"`
	Error  *TriageError `json:"error,omitempty"`
}

// TriageStats summarizes a triage batch.
type TriageStats struct {
	Claims int `json:"claims"`
	Unique int `json:"unique"` // distinct claims after signature dedup
	Errors int `json:"errors"`
}

// TriageResponse is the body of a successful POST /v1/triage: entries
// sorted by descending score (ties broken by request position),
// errored claims last in request order.
type TriageResponse struct {
	Measure string        `json:"measure"`
	Claims  []TriageEntry `json:"claims"`
	Stats   TriageStats   `json:"stats"`
}

// Dataset is the body of POST /v1/datasets: a reusable set of objects.
type Dataset struct {
	Name    string   `json:"name,omitempty"`
	Objects []Object `json:"objects"`
}

// Result mirrors cleansel.Result on the wire (and on the CLI's stdout).
type Result struct {
	Chosen    []string `json:"chosen"`
	IDs       []int    `json:"ids"`
	CostSpent float64  `json:"cost_spent"`
	Before    float64  `json:"objective_before"`
	After     float64  `json:"objective_after"`
}

// Benefit mirrors cleansel.ObjectBenefit on the wire.
type Benefit struct {
	ID      int     `json:"id"`
	Name    string  `json:"name"`
	Benefit float64 `json:"benefit"`
	Cost    float64 `json:"cost"`
}

// Report mirrors cleansel.QualityReport on the wire.
type Report struct {
	Bias          float64 `json:"bias"`
	BiasVariance  float64 `json:"bias_variance"`
	Duplicity     int     `json:"duplicity"`
	DupVariance   float64 `json:"duplicity_variance"`
	Fragility     float64 `json:"fragility"`
	FragVariance  float64 `json:"fragility_variance"`
	Perturbations int     `json:"perturbations"`
}

// BuildObjects maps object specifications onto cleansel objects,
// validating each value model.
func BuildObjects(specs []Object) ([]cleansel.Object, error) {
	if len(specs) == 0 {
		return nil, errors.New("no objects given")
	}
	objs := make([]cleansel.Object, len(specs))
	for i, o := range specs {
		obj := cleansel.Object{Name: o.Name, Current: o.Current, Cost: o.Cost}
		switch {
		case o.Normal != nil && len(o.Values) > 0:
			return nil, fmt.Errorf("object %q: give values/probs or normal, not both", o.Name)
		case o.Normal != nil:
			n, err := cleansel.NewNormal(o.Normal.Mean, o.Normal.Sigma)
			if err != nil {
				return nil, fmt.Errorf("object %q: %w", o.Name, err)
			}
			obj.Value = n
		case len(o.Values) > 0:
			d, err := cleansel.NewDiscrete(o.Values, o.Probs)
			if err != nil {
				return nil, fmt.Errorf("object %q: %w", o.Name, err)
			}
			obj.Value = d
		default:
			return nil, fmt.Errorf("object %q: need values/probs or normal", o.Name)
		}
		objs[i] = obj
	}
	return objs, nil
}

// BuildDB assembles and validates a database from object specifications.
func BuildDB(specs []Object) (*cleansel.DB, error) {
	objs, err := BuildObjects(specs)
	if err != nil {
		return nil, err
	}
	db := cleansel.NewDB(objs)
	if err := db.Validate(); err != nil {
		return nil, err
	}
	return db, nil
}

// BuildClaim maps a claim specification onto a cleansel claim. Every
// key must be the canonical decimal spelling (strconv.Itoa) of an object
// ID in [0, n), so no two keys name one object. A claim with bad keys
// is reported by the smallest of them in byte order, so the same claim
// always fails with the same message.
func BuildClaim(spec Claim, n int) (*cleansel.Claim, error) {
	keys := make([]string, 0, len(spec.Coef))
	for key := range spec.Coef {
		keys = append(keys, key)
	}
	type term struct {
		id   int
		coef float64
	}
	terms := make([]term, 0, len(keys))
	bad, failed := "", false
	for _, key := range keys {
		id, ok := objectID(key, n)
		if !ok {
			if !failed || key < bad {
				bad, failed = key, true
			}
			continue
		}
		terms = append(terms, term{id, spec.Coef[key]})
	}
	if failed {
		return nil, fmt.Errorf("claim %q: bad object id %q", spec.Name, bad)
	}
	slices.SortFunc(terms, func(a, b term) int { return cmp.Compare(a.id, b.id) })
	vars := make([]int, len(terms))
	coef := make([]float64, len(terms))
	for j, t := range terms {
		vars[j], coef[j] = t.id, t.coef
	}
	return claims.NewClaimSorted(spec.Name, spec.Const, vars, coef), nil
}

// objectID parses key as an object ID in [0, n) spelled the way
// strconv.Itoa spells it: decimal digits, no sign, no leading zero.
func objectID(key string, n int) (int, bool) {
	if key == "" || key[0] < '0' || key[0] > '9' || key[0] == '0' && len(key) > 1 {
		return 0, false
	}
	id, err := strconv.Atoi(key)
	return id, err == nil && id < n
}

// BuildSet assembles the perturbation set of a problem against db. A
// missing reference defaults to the original claim's value at the
// current data.
func (p *Problem) BuildSet(db *cleansel.DB) (*cleansel.PerturbationSet, error) {
	orig, err := BuildClaim(p.Claim, db.N())
	if err != nil {
		return nil, err
	}
	dir := cleansel.HigherIsStronger
	switch strings.ToLower(p.Direction) {
	case "higher", "":
	case "lower":
		dir = cleansel.LowerIsStronger
	default:
		return nil, fmt.Errorf("unknown direction %q", p.Direction)
	}
	ref := orig.Eval(db.Currents())
	if p.Reference != nil {
		ref = *p.Reference
	}
	perturbs := make([]cleansel.Perturbed, len(p.Perturbations))
	for i, pt := range p.Perturbations {
		cl, err := BuildClaim(pt.Claim, db.N())
		if err != nil {
			return nil, err
		}
		perturbs[i] = cleansel.Perturbed{Claim: cl, Sensibility: pt.Sensibility}
	}
	return cleansel.NewPerturbationSet(orig, dir, ref, perturbs)
}

// BuildTask maps the task onto a cleansel.Task against db, parsing the
// measure/goal/algorithm names; Discretize is carried as given.
func (t *Task) BuildTask(db *cleansel.DB) (cleansel.Task, error) {
	measure, err := cleansel.ParseMeasure(t.Measure)
	if err != nil {
		return cleansel.Task{}, err
	}
	goal, err := cleansel.ParseGoal(t.Goal)
	if err != nil {
		return cleansel.Task{}, err
	}
	algo, err := cleansel.ParseAlgorithm(t.Algorithm)
	if err != nil {
		return cleansel.Task{}, err
	}
	set, err := t.BuildSet(db)
	if err != nil {
		return cleansel.Task{}, err
	}
	return cleansel.Task{
		DB: db, Claims: set,
		Measure: measure, Goal: goal, Algorithm: algo,
		Budget: t.Budget, Tau: t.Tau, Seed: t.Seed, Discretize: t.Discretize,
	}, nil
}

// BuildRank maps the rank request onto the cleansel.Task that
// cleansel.RankContext reads: db, claims, measure and Discretize.
func (r *RankRequest) BuildRank(db *cleansel.DB) (cleansel.Task, error) {
	measure, err := cleansel.ParseMeasure(r.Measure)
	if err != nil {
		return cleansel.Task{}, err
	}
	set, err := r.BuildSet(db)
	if err != nil {
		return cleansel.Task{}, err
	}
	return cleansel.Task{DB: db, Claims: set, Measure: measure, Discretize: r.Discretize}, nil
}

// BuildTriage resolves the batch against db: db itself (the assessment
// picks its discrete view from the batch's discretize), the scoring
// measure, and one perturbation set per claim. A claim that fails to
// build gets a nil set and its error in errs[i] — per-claim failures
// never fail the batch; only an unparseable measure does.
func (t *TriageRequest) BuildTriage(db *cleansel.DB) (*cleansel.DB, cleansel.Measure, []*cleansel.PerturbationSet, []error, error) {
	measure, err := cleansel.ParseMeasure(t.Measure)
	if err != nil {
		return nil, 0, nil, nil, err
	}
	sets := make([]*cleansel.PerturbationSet, len(t.Claims))
	errs := make([]error, len(t.Claims))
	for i, c := range t.Claims {
		p := Problem{
			Claim:         c.Claim,
			Direction:     c.Direction,
			Reference:     c.Reference,
			Perturbations: c.Perturbations,
		}
		set, err := p.BuildSet(db)
		if err != nil {
			errs[i] = err
			continue
		}
		sets[i] = set
	}
	return db, measure, sets, errs, nil
}

// TriageScore extracts the ranking score from a report: the configured
// measure's variance — the claim-quality uncertainty that cleaning
// effort could remove, i.e. how much a fact-checker's attention is
// worth on this claim.
func TriageScore(measure cleansel.Measure, rep cleansel.QualityReport) float64 {
	switch measure {
	case cleansel.Uniqueness:
		return rep.DupVariance
	case cleansel.Robustness:
		return rep.FragVariance
	default:
		return rep.BiasVariance
	}
}

// EncodeTriage assembles the ranked response: scored entries sorted by
// descending score with ties broken by request position, then errored
// entries in request position order with rank 0.
func EncodeTriage(measure cleansel.Measure, names []string, reports []cleansel.QualityReport, errs []error, unique int) TriageResponse {
	resp := TriageResponse{
		Measure: measure.String(),
		Stats:   TriageStats{Claims: len(names), Unique: unique},
	}
	var scored, failed []TriageEntry
	for i, name := range names {
		if errs[i] != nil {
			failed = append(failed, TriageEntry{
				Index: i,
				Name:  name,
				Error: &TriageError{Code: "bad_claim", Message: errs[i].Error()},
			})
			continue
		}
		rep := EncodeReport(reports[i])
		scored = append(scored, TriageEntry{
			Index:  i,
			Name:   name,
			Score:  TriageScore(measure, reports[i]),
			Report: &rep,
		})
	}
	sort.SliceStable(scored, func(a, b int) bool {
		if scored[a].Score != scored[b].Score {
			return scored[a].Score > scored[b].Score
		}
		return scored[a].Index < scored[b].Index
	})
	for r := range scored {
		scored[r].Rank = r + 1
	}
	resp.Claims = append(scored, failed...)
	if resp.Claims == nil {
		resp.Claims = []TriageEntry{}
	}
	resp.Stats.Errors = len(failed)
	return resp
}

// EncodeResult maps a selection result onto the wire.
func EncodeResult(res cleansel.Result) Result {
	out := Result{
		Chosen:    res.Chosen,
		IDs:       res.Set,
		CostSpent: res.CostSpent,
		Before:    res.Before,
		After:     res.After,
	}
	if out.Chosen == nil {
		out.Chosen = []string{}
	}
	if out.IDs == nil {
		out.IDs = []int{}
	}
	return out
}

// EncodeBenefits maps an object ranking onto the wire.
func EncodeBenefits(ranked []cleansel.ObjectBenefit) []Benefit {
	out := make([]Benefit, len(ranked))
	for i, b := range ranked {
		out[i] = Benefit{ID: b.ID, Name: b.Name, Benefit: b.Benefit, Cost: b.Cost}
	}
	return out
}

// EncodeReport maps a quality report onto the wire.
func EncodeReport(rep cleansel.QualityReport) Report {
	return Report{
		Bias:          rep.Bias,
		BiasVariance:  rep.BiasVariance,
		Duplicity:     rep.Duplicity,
		DupVariance:   rep.DupVariance,
		Fragility:     rep.Fragility,
		FragVariance:  rep.FragVariance,
		Perturbations: rep.Perturbations,
	}
}
