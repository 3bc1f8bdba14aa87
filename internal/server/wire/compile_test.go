package wire

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/factcheck/cleansel/internal/claims"
	"github.com/factcheck/cleansel/internal/datasets"
	"github.com/factcheck/cleansel/internal/query"
	"github.com/factcheck/cleansel/internal/rng"
)

// The claim compile reads each claim's cached ascending IDs and
// coefficients, and Set.Bias merges them. The reference below is the
// compile as it read before that cache: every step sorts a claim's
// coefficient map afresh, and the bias accumulates into a map.
// FuzzClaimCompile holds the two to the same bits.

// refClaim is a claim as the reference sees it: a constant and a
// coefficient map, zero coefficients kept when the claim was built
// with them.
type refClaim struct {
	constant float64
	coef     map[int]float64
}

// refBuildClaim is BuildClaim over a map: keys visited in byte order,
// each checked by a round trip through strconv, zero coefficients
// dropped as NewClaim drops them.
func refBuildClaim(spec Claim, n int) (refClaim, error) {
	coef := make(map[int]float64, len(spec.Coef))
	for _, key := range slices.Sorted(maps.Keys(spec.Coef)) {
		id, err := strconv.Atoi(key)
		if err != nil || id < 0 || id >= n || strconv.Itoa(id) != key {
			return refClaim{}, fmt.Errorf("claim %q: bad object id %q", spec.Name, key)
		}
		if v := spec.Coef[key]; v != 0 {
			coef[id] = v
		}
	}
	return refClaim{spec.Const, coef}, nil
}

func (c refClaim) eval(x []float64) float64 {
	s := c.constant
	for _, i := range slices.Sorted(maps.Keys(c.coef)) {
		s += c.coef[i] * x[i]
	}
	return s
}

// refDirCoef is Set.dirCoef over the map.
func refDirCoef(s *claims.Set, c refClaim) ([]int, []float64, float64) {
	vars := slices.Sorted(maps.Keys(c.coef))
	coef := make([]float64, len(vars))
	for j, v := range vars {
		coef[j] = float64(s.Dir) * c.coef[v]
	}
	return vars, coef, float64(s.Dir) * (c.constant - s.Ref)
}

func refSignature(s *claims.Set, ps []refClaim) string {
	var b strings.Builder
	b.WriteString(strconv.Itoa(int(s.Dir)))
	b.WriteByte(':')
	b.WriteString(strconv.FormatUint(math.Float64bits(s.Ref), 16))
	for k := range ps {
		vars, cf, c := refDirCoef(s, ps[k])
		b.WriteByte('\x1e')
		b.WriteString(query.TermSig("p", vars, cf, []float64{c, s.Perturbs[k].Sensibility}))
	}
	return b.String()
}

func refBias(s *claims.Set, ps []refClaim) *query.Affine {
	coef := map[int]float64{}
	constant := 0.0
	for k := range ps {
		vars, cf, c := refDirCoef(s, ps[k])
		w := s.Perturbs[k].Sensibility
		for j, v := range vars {
			coef[v] += w * cf[j]
		}
		constant += w * c
	}
	return query.NewAffine(constant, coef)
}

func refGroup(s *claims.Set, ps []refClaim, term func(vars []int, coef []float64, c, w float64) query.Term) *query.GroupSum {
	g := &query.GroupSum{}
	for k := range ps {
		vars, cf, c := refDirCoef(s, ps[k])
		g.Terms = append(g.Terms, term(vars, cf, c, s.Perturbs[k].Sensibility))
	}
	return g
}

// compileGen draws the claims of one perturbation set over ids [0, n).
type compileGen struct {
	r *rng.RNG
	n int
}

// coef favours the values a compile must not lose: 0, −0 and small
// integers that cancel across perturbations.
func (g compileGen) coef() float64 {
	switch g.r.Intn(5) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return float64(g.r.IntRange(-2, 2))
	}
	return g.r.Uniform(-3, 3)
}

// key is usually an id in range, drawn from few enough ids that
// perturbations share them, and sometimes a key BuildClaim refuses.
func (g compileGen) key() string {
	switch g.r.Intn(10) {
	case 0:
		bad := []string{"01", "+1", "-1", "-0", "00", "", " 1", "1 ", "x", "1e1", "1_0", "0x1", "99999999999999999999"}
		return bad[g.r.Intn(len(bad))]
	case 1:
		return strconv.Itoa(g.n + g.r.Intn(3)) // out of range
	}
	return strconv.Itoa(g.r.Intn(g.n))
}

func (g compileGen) spec(name string) Claim {
	coef := map[string]float64{}
	for range g.r.Intn(6) {
		coef[g.key()] = g.coef()
	}
	return Claim{Name: name, Const: g.coef(), Coef: coef}
}

func (g compileGen) coefMap() map[int]float64 {
	coef := map[int]float64{}
	for range g.r.Intn(9) {
		coef[g.r.Intn(g.n)] = g.coef()
	}
	return coef
}

// claim draws one claim four ways: through BuildClaim (checked against
// refBuildClaim, bad keys and all, until a spec builds), through
// NewClaim, as a literal Claim that keeps its zero coefficients, or as
// the window sum [*pos, *pos+w), which moves *pos so successive windows
// touch or share one id and their IDs stay in merged order.
func (g compileGen) claim(t *testing.T, name string, pos *int) (*claims.Claim, refClaim) {
	t.Helper()
	switch g.r.Intn(4) {
	case 0:
		for {
			spec := g.spec(name)
			got, err := BuildClaim(spec, g.n)
			want, wantErr := refBuildClaim(spec, g.n)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("BuildClaim(%v, %d): error %v, want %v", spec.Coef, g.n, err, wantErr)
			}
			if err == nil {
				if got.Name != spec.Name || !sameFloat(got.Const, spec.Const) || !sameCoefs(got.Coef, want.coef) {
					t.Fatalf("BuildClaim(%v) = %q %v %v, want %q %v %v", spec.Coef, got.Name, got.Const, got.Coef, spec.Name, spec.Const, want.coef)
				}
				return got, want
			}
		}
	case 1:
		coef, c := g.coefMap(), g.coef()
		want := map[int]float64{}
		for i, v := range coef {
			if v != 0 {
				want[i] = v
			}
		}
		return claims.NewClaim(name, c, coef), refClaim{c, want}
	case 2:
		coef, c := g.coefMap(), g.coef()
		return &claims.Claim{Name: name, Const: c, Coef: coef}, refClaim{c, maps.Clone(coef)}
	}
	w := g.r.Intn(4)
	cl := claims.WindowSum(name, *pos, w)
	want := map[int]float64{}
	for i := *pos; i < *pos+w; i++ {
		want[i] = 1
	}
	*pos += max(w-g.r.Intn(2), 0)
	return cl, refClaim{0, want}
}

func sameCoefs(got, want map[int]float64) bool {
	return maps.EqualFunc(got, want, sameFloat)
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkClaimCompile draws a perturbation set and holds its compile to
// the reference: the signature, the bias's constant and coefficient
// bits, every duplicity and fragility term, and every value at a drawn
// point.
func checkClaimCompile(t *testing.T, r *rng.RNG) {
	t.Helper()
	g := compileGen{r: r, n: 1 + r.Intn(12)}
	pos := 0
	orig, origRef := g.claim(t, "orig", &pos)
	// Up to 12 perturbations over at most 12 ids: enough contributions
	// per id that an add order other than perturbation order shows.
	ps := make([]claims.Perturbed, 1+r.Intn(12))
	refs := make([]refClaim, len(ps))
	for k := range ps {
		var cl *claims.Claim
		cl, refs[k] = g.claim(t, fmt.Sprint("p", k), &pos)
		ps[k] = claims.Perturbed{Claim: cl, Sensibility: float64(r.Intn(4)) * r.Float64()}
	}
	ps[0].Sensibility += 0.5 // sensibilities must not sum to 0
	dir := claims.HigherIsStronger
	if r.Intn(2) == 0 {
		dir = claims.LowerIsStronger
	}
	set, err := claims.NewSet(orig, dir, g.coef(), ps)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, max(g.n, pos+4))
	for i := range x {
		x[i] = r.Uniform(-10, 10)
	}

	for k, c := range append([]refClaim{origRef}, refs...) {
		cl := orig
		if k > 0 {
			cl = set.Perturbs[k-1].Claim
		}
		if got, want := cl.Eval(x), c.eval(x); !sameFloat(got, want) {
			t.Fatalf("claim %d (%v): Eval %v, want %v", k, c.coef, got, want)
		}
		if got, want := cl.Vars(), slices.Sorted(maps.Keys(c.coef)); !slices.Equal(got, want) {
			t.Fatalf("claim %d: Vars %v, want %v", k, got, want)
		}
	}
	if got, want := set.Signature(), refSignature(set, refs); got != want {
		t.Fatalf("Signature %q, want %q", got, want)
	}
	got, want := set.Bias(), refBias(set, refs)
	if !sameFloat(got.Const, want.Const) || !sameCoefs(got.Coef, want.Coef) {
		t.Fatalf("Bias %v + %v, want %v + %v", got.Const, got.Coef, want.Const, want.Coef)
	}
	if !slices.Equal(got.Vars(), want.Vars()) || !sameFloat(got.Eval(x), want.Eval(x)) {
		t.Fatalf("Bias at x: %v over %v, want %v over %v", got.Eval(x), got.Vars(), want.Eval(x), want.Vars())
	}
	for _, m := range []struct {
		name string
		got  *query.GroupSum
		term func(vars []int, coef []float64, c, w float64) query.Term
	}{
		{"Dup", set.Dup(), func(vars []int, coef []float64, c, _ float64) query.Term { return query.IndicatorGE(vars, coef, c, 1) }},
		{"Frag", set.Frag(), query.NegMinSquared},
	} {
		want := refGroup(set, refs, m.term)
		if len(m.got.Terms) != len(want.Terms) || !sameFloat(m.got.Const, want.Const) {
			t.Fatalf("%s: %d terms + %v, want %d + %v", m.name, len(m.got.Terms), m.got.Const, len(want.Terms), want.Const)
		}
		for k := range want.Terms {
			if g, w := m.got.Terms[k], want.Terms[k]; !slices.Equal(g.Vars, w.Vars) || g.Sig != w.Sig {
				t.Fatalf("%s term %d: %v %q, want %v %q", m.name, k, g.Vars, g.Sig, w.Vars, w.Sig)
			}
		}
		if g, w := m.got.Eval(x), want.Eval(x); !sameFloat(g, w) {
			t.Fatalf("%s at x: %v, want %v", m.name, g, w)
		}
	}
}

// FuzzClaimCompile drives checkClaimCompile from fuzzed seeds, twenty
// perturbation sets per seed.
func FuzzClaimCompile(f *testing.F) {
	for _, seed := range []uint64{0, 1, 7, 42, 20261019} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		r := rng.New(seed)
		for range 20 {
			checkClaimCompile(t, r)
		}
	})
}

// TestBuildSetAllocs counts work rather than time: before claims kept
// sorted slices, BuildSet took 604 allocations on this body and
// compiling its bias another 116.
func TestBuildSetAllocs(t *testing.T) {
	body, err := os.ReadFile(filepath.Join("testdata", "session_create.json"))
	if err != nil {
		t.Fatal(err)
	}
	req, err := DecodeSession(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	db := datasets.SyntheticK(datasets.UR, 200, datasets.MaxSupport, 7)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := req.BuildSet(db); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 400 {
		t.Fatalf("BuildSet: %.0f allocs per run, want ≤ 400", allocs)
	}
	set, err := req.BuildSet(db)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() { set.Bias() }); allocs > 20 {
		t.Fatalf("Bias: %.0f allocs per run, want ≤ 20", allocs)
	}
}
