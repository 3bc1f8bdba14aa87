// Package claims models the fact-checking layer of §2.2: linear claim
// functions over an uncertain database, perturbation sets with
// sensibilities, the relative-strength function Δ, and the three claim
// quality measures — fairness (bias), uniqueness (duplicity), and
// robustness (fragility) — compiled into query.Functions that the MinVar
// and MaxPr machinery can optimize.
package claims

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"github.com/factcheck/cleansel/internal/query"
)

// Claim is a linear claim function q(X) = Const + Σ_i Coef[i]·X_i.
// Window-aggregate comparisons (Example 4), window sums ("the number of
// injuries is as low as Γ"), and general SQL aggregates over certain
// selection conditions all take this form (§3.4).
//
// A Claim is immutable after construction. Its constructors cache
// Coef's keys in increasing order with their coefficients, and Eval
// and the Set compilers read that cache instead of the map, so a Coef
// changed afterwards would not be seen. A literal Claim has no cache
// and is read from its map, zero coefficients included.
type Claim struct {
	Name  string
	Const float64
	Coef  map[int]float64

	vars []int     // sorted keys of Coef, so Eval sums in a fixed order
	coef []float64 // Coef[vars[j]], so nothing reads the map
}

// NewClaim builds a claim, dropping zero coefficients.
func NewClaim(name string, constant float64, coef map[int]float64) *Claim {
	vars, cf := sortedTerms(coef)
	return NewClaimSorted(name, constant, vars, cf)
}

// NewClaimSorted builds a claim from strictly increasing object IDs and
// their coefficients, dropping zero coefficients. It keeps vars and
// coef, which the caller must not use afterwards.
func NewClaimSorted(name string, constant float64, vars []int, coef []float64) *Claim {
	k := 0
	for j, v := range coef {
		if v != 0 {
			vars[k], coef[k] = vars[j], v
			k++
		}
	}
	vars, coef = vars[:k], coef[:k]
	m := make(map[int]float64, k)
	for j, i := range vars {
		m[i] = coef[j]
	}
	return &Claim{Name: name, Const: constant, Coef: m, vars: vars, coef: coef}
}

// terms returns the claim's object IDs in increasing order and their
// coefficients: the constructors' cache, or for a literal Claim a
// fresh read of Coef.
func (c *Claim) terms() ([]int, []float64) {
	if c.vars != nil {
		return c.vars, c.coef
	}
	return sortedTerms(c.Coef)
}

// Eval evaluates the claim at the full value vector x. Terms are
// summed in increasing variable order so the result does not depend on
// map iteration order (float addition is not associative).
func (c *Claim) Eval(x []float64) float64 {
	vars, coef := c.terms()
	s := c.Const
	for j, i := range vars {
		s += coef[j] * x[i]
	}
	return s
}

// Vars returns the sorted object IDs referenced by the claim.
func (c *Claim) Vars() []int {
	vars, _ := c.terms()
	return slices.Clone(vars)
}

// sortedTerms returns the keys of a coefficient map in increasing order
// and their coefficients, zeros included.
func sortedTerms(coef map[int]float64) ([]int, []float64) {
	vars := make([]int, 0, len(coef))
	for i := range coef {
		vars = append(vars, i)
	}
	slices.Sort(vars)
	cf := make([]float64, len(vars))
	for j, i := range vars {
		cf[j] = coef[i]
	}
	return vars, cf
}

// WindowSum returns the claim Σ_{i=start}^{start+w-1} X_i.
func WindowSum(name string, start, w int) *Claim {
	vars := make([]int, 0, max(w, 0))
	coef := make([]float64, 0, max(w, 0))
	for i := start; i < start+w; i++ {
		vars = append(vars, i)
		coef = append(coef, 1)
	}
	return NewClaimSorted(name, 0, vars, coef)
}

// WindowComparison returns the claim
//
//	Σ_{i=laterStart}^{laterStart+w-1} X_i − Σ_{i=earlierStart}^{earlierStart+w-1} X_i,
//
// the window-aggregate-comparison form of Example 4 oriented so a positive
// value means "the later window is larger" (e.g. adoptions went up).
func WindowComparison(name string, earlierStart, laterStart, w int) *Claim {
	coef := make(map[int]float64, 2*w)
	for i := earlierStart; i < earlierStart+w; i++ {
		coef[i] -= 1
	}
	for i := laterStart; i < laterStart+w; i++ {
		coef[i] += 1
	}
	return NewClaim(name, 0, coef)
}

// Direction tells which way a claim is "strong". A claim about a big
// increase is HigherIsStronger; a claim that a count is unusually low
// ("as low as Γ") is LowerIsStronger.
type Direction int

const (
	// HigherIsStronger means larger query results strengthen the claim.
	HigherIsStronger Direction = 1
	// LowerIsStronger means smaller query results strengthen the claim.
	LowerIsStronger Direction = -1
)

// Perturbed is one perturbation of the original claim together with its
// sensibility weight (§2.2) and the raw distance used to derive it.
type Perturbed struct {
	Claim       *Claim
	Sensibility float64
	Distance    float64
}

// Set is a perturbation set: the original claim, the strengthening
// direction, the reference value the relative-strength function compares
// against (normally q◦(u), or the asserted Γ), and the perturbations with
// sensibilities summing to 1.
type Set struct {
	Original *Claim
	Dir      Direction
	Ref      float64
	Perturbs []Perturbed
}

// NewSet assembles a perturbation set and normalizes sensibilities to sum
// to one. It returns an error if the set is empty or weights are invalid.
func NewSet(original *Claim, dir Direction, ref float64, perturbs []Perturbed) (*Set, error) {
	if len(perturbs) == 0 {
		return nil, fmt.Errorf("claims: perturbation set for %q is empty", original.Name)
	}
	var tot float64
	for _, p := range perturbs {
		if p.Sensibility < 0 || math.IsNaN(p.Sensibility) {
			return nil, fmt.Errorf("claims: invalid sensibility %v", p.Sensibility)
		}
		tot += p.Sensibility
	}
	if tot <= 0 {
		return nil, fmt.Errorf("claims: sensibilities of %q sum to %v", original.Name, tot)
	}
	out := &Set{Original: original, Dir: dir, Ref: ref}
	out.Perturbs = make([]Perturbed, len(perturbs))
	copy(out.Perturbs, perturbs)
	for i := range out.Perturbs {
		out.Perturbs[i].Sensibility /= tot
	}
	return out, nil
}

// Signature returns a canonical identity of everything a quality
// assessment depends on: the direction, the reference, and the ordered
// perturbations (variables, coefficients, constants, normalized
// sensibilities — all floats as exact IEEE-754 bits). Claim NAMES are
// deliberately excluded: a renamed copy of a claim assesses to the
// same QualityReport, which is what lets bulk triage dedup paraphrased
// viral claims. Perturbation order is part of the signature because
// the bias and EV accumulations sum in that order, and float addition
// is not associative.
func (s *Set) Signature() string {
	var b strings.Builder
	b.WriteString(strconv.Itoa(int(s.Dir)))
	b.WriteByte(':')
	b.WriteString(strconv.FormatUint(math.Float64bits(s.Ref), 16))
	for k := range s.Perturbs {
		vars, cf, c := s.dirCoef(k)
		b.WriteByte('\x1e')
		b.WriteString(query.TermSig("p", vars, cf, []float64{c, s.Perturbs[k].Sensibility}))
	}
	return b.String()
}

// Delta evaluates the relative strength Δ(q_k(x), ref) = dir·(q_k(x) − ref)
// of perturbation k at the value vector x: positive strengthens the
// original claim, negative weakens it (§2.2, with Δ as subtraction and the
// direction folded in).
func (s *Set) Delta(k int, x []float64) float64 {
	return float64(s.Dir) * (s.Perturbs[k].Claim.Eval(x) - s.Ref)
}

// M returns the number of perturbations.
func (s *Set) M() int { return len(s.Perturbs) }

// Vars returns the sorted union of object IDs referenced by any
// perturbation.
func (s *Set) Vars() []int {
	seen := map[int]struct{}{}
	for _, p := range s.Perturbs {
		for _, v := range p.Claim.Vars() {
			seen[v] = struct{}{}
		}
	}
	out := make([]int, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// dirCoef returns perturbation k's object IDs, and its coefficients and
// constant with the direction and reference folded in, so that
// Δ_k(x) = Σ coef·x + c. The IDs are the claim's own cache: callers
// only read them.
func (s *Set) dirCoef(k int) (vars []int, coef []float64, c float64) {
	cl := s.Perturbs[k].Claim
	vars, cf := cl.terms()
	coef = make([]float64, len(cf))
	for j, v := range cf {
		coef[j] = float64(s.Dir) * v
	}
	c = float64(s.Dir) * (cl.Const - s.Ref)
	return vars, coef, c
}

// Bias compiles the fairness measure
//
//	bias(q◦(u), X) = Σ_k s_k·Δ(q_k(X), ref)
//
// into an affine query function. Bias 0 means the claim is fair; negative
// bias means it exaggerates (§2.2).
//
// Each object's coefficient is the sum of its perturbations'
// contributions s_k·dir·coef, added in perturbation order: the merge
// below lists every (ID, k) pair ordered by ID and then by k, so the
// bits do not depend on how the perturbations overlap.
func (s *Set) Bias() *query.Affine {
	type contrib struct {
		id      int
		w, coef float64 // s_k and dir·coef
	}
	n := 0
	for _, p := range s.Perturbs {
		vars, _ := p.Claim.terms()
		n += len(vars)
	}
	all := make([]contrib, 0, n)
	merged := true // all is already ordered by ID
	constant := 0.0
	for k := range s.Perturbs {
		w := s.Perturbs[k].Sensibility
		vars, cf := s.Perturbs[k].Claim.terms()
		for j, v := range vars {
			merged = merged && (len(all) == 0 || all[len(all)-1].id <= v)
			all = append(all, contrib{id: v, w: w, coef: float64(s.Dir) * cf[j]})
		}
		constant += w * (float64(s.Dir) * (s.Perturbs[k].Claim.Const - s.Ref))
	}
	if !merged {
		// Stable: an ID's contributions stay in perturbation order.
		slices.SortStableFunc(all, func(a, b contrib) int { return cmp.Compare(a.id, b.id) })
	}
	vars := make([]int, 0, len(all))
	coef := make([]float64, 0, len(all))
	for i := 0; i < len(all); {
		id, sum := all[i].id, 0.0
		for ; i < len(all) && all[i].id == id; i++ {
			sum += all[i].w * all[i].coef
		}
		vars = append(vars, id)
		coef = append(coef, sum)
	}
	return query.NewAffineSorted(constant, vars, coef)
}

// Dup compiles the uniqueness measure
//
//	dup(q◦(u), X) = Σ_k 1[Δ(q_k(X), ref) ≥ 0]
//
// — the number of perturbations at least as strong as the original claim —
// into a GroupSum of indicator terms (§2.2). Lower duplicity means a more
// unique claim.
func (s *Set) Dup() *query.GroupSum {
	g := &query.GroupSum{}
	for k := range s.Perturbs {
		vars, cf, c := s.dirCoef(k)
		g.Terms = append(g.Terms, query.IndicatorGE(vars, cf, c, 1))
	}
	return g
}

// Frag compiles the robustness measure
//
//	frag(q◦(u), X) = Σ_k s_k·(min{Δ(q_k(X), ref), 0})²
//
// into a GroupSum of clipped quadratic terms (§2.2). Low fragility means a
// robust claim: perturbations rarely weaken it by much.
func (s *Set) Frag() *query.GroupSum {
	g := &query.GroupSum{}
	for k := range s.Perturbs {
		vars, cf, c := s.dirCoef(k)
		g.Terms = append(g.Terms, query.NegMinSquared(vars, cf, c, s.Perturbs[k].Sensibility))
	}
	return g
}

// DupValue evaluates the duplicity at a concrete value vector.
func (s *Set) DupValue(x []float64) int {
	n := 0
	for k := range s.Perturbs {
		if s.Delta(k, x) >= 0 {
			n++
		}
	}
	return n
}

// HasCounter reports whether some perturbation weakens the original claim
// by more than margin at the value vector x, i.e. Δ_k(x) < −margin.
func (s *Set) HasCounter(x []float64, margin float64) bool {
	for k := range s.Perturbs {
		if s.Delta(k, x) < -margin {
			return true
		}
	}
	return false
}

// ExponentialSensibility returns exp(−lambda·distance), the decay used for
// the Giuliani claim in §4.1 (λ = 1.5 over the year distance between
// comparison-period endpoints).
func ExponentialSensibility(lambda, distance float64) float64 {
	return math.Exp(-lambda * distance)
}

// SlidingComparisons generates all back-to-back window-comparison claims
// over n objects with window length w: for each span start s, the claim
// compares [s, s+w) against [s+w, s+2w). Distances are |s − origStart|.
func SlidingComparisons(namePrefix string, n, w, origStart int, lambda float64) []Perturbed {
	var out []Perturbed
	for s := 0; s+2*w <= n; s++ {
		cl := WindowComparison(fmt.Sprintf("%s@%d", namePrefix, s), s, s+w, w)
		d := math.Abs(float64(s - origStart))
		out = append(out, Perturbed{
			Claim:       cl,
			Sensibility: ExponentialSensibility(lambda, d),
			Distance:    d,
		})
	}
	return out
}

// NonOverlappingWindows generates window-sum claims over disjoint windows
// of length w starting at 0, w, 2w, … (the perturbation structure of the
// uniqueness/robustness workloads in §4.2). Distances are measured in
// windows from origStart.
func NonOverlappingWindows(namePrefix string, n, w, origStart int, lambda float64) []Perturbed {
	var out []Perturbed
	for s := 0; s+w <= n; s += w {
		cl := WindowSum(fmt.Sprintf("%s@%d", namePrefix, s), s, w)
		d := math.Abs(float64(s-origStart)) / float64(w)
		out = append(out, Perturbed{
			Claim:       cl,
			Sensibility: ExponentialSensibility(lambda, d),
			Distance:    d,
		})
	}
	return out
}

// SlidingWindows generates window-sum claims at every start position.
func SlidingWindows(namePrefix string, n, w, origStart int, lambda float64) []Perturbed {
	var out []Perturbed
	for s := 0; s+w <= n; s++ {
		cl := WindowSum(fmt.Sprintf("%s@%d", namePrefix, s), s, w)
		d := math.Abs(float64(s - origStart))
		out = append(out, Perturbed{
			Claim:       cl,
			Sensibility: ExponentialSensibility(lambda, d),
			Distance:    d,
		})
	}
	return out
}

// Degree returns the maximum claim degree L of the set: the largest number
// of perturbations sharing at least one object with any single
// perturbation (used in the complexity discussion after Theorem 3.8).
func (s *Set) Degree() int {
	maxDeg := 0
	for k := range s.Perturbs {
		deg := 0
		kv := s.Perturbs[k].Claim.Vars()
		kset := map[int]struct{}{}
		for _, v := range kv {
			kset[v] = struct{}{}
		}
		for j := range s.Perturbs {
			if j == k {
				continue
			}
			for _, v := range s.Perturbs[j].Claim.Vars() {
				if _, ok := kset[v]; ok {
					deg++
					break
				}
			}
		}
		if deg > maxDeg {
			maxDeg = deg
		}
	}
	return maxDeg
}
