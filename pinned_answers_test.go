package cleansel_test

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	cleansel "github.com/factcheck/cleansel"
	"github.com/factcheck/cleansel/internal/core"
	"github.com/factcheck/cleansel/internal/datasets"
	"github.com/factcheck/cleansel/internal/ev"
	"github.com/factcheck/cleansel/internal/maxpr"
	"github.com/factcheck/cleansel/internal/obs"
	"github.com/factcheck/cleansel/internal/rng"
)

// slidingRobustnessTask builds a MinVar/robustness task over sliding
// windows: 36 unit-cost objects with 3-point supports, a window-4 sum
// claim, every other window start as a perturbation and a budget of six
// cleanings. Neighbouring windows share objects, so the group engine
// has overlapping pairs and every refresh recomputes pair covariances.
func slidingRobustnessTask(tb testing.TB, seed uint64) cleansel.Task {
	tb.Helper()
	const n, k, w, budget = 36, 3, 4, 6
	r := rng.New(seed)
	db := datasets.SyntheticK(datasets.UR, n, k, r.Uint64())
	for i := range db.Objects {
		db.Objects[i].Cost = 1
	}
	start := r.Intn(n - w + 1)
	var ps []cleansel.Perturbed
	for _, p := range cleansel.SlidingWindows("w", n, w, start, 0.5) {
		if p.Distance > 0 {
			ps = append(ps, p)
		}
	}
	var ref float64
	for i := start; i < start+w; i++ {
		ref += db.Objects[i].Current
	}
	set, err := cleansel.NewPerturbationSet(cleansel.WindowSum("claim", start, w), cleansel.LowerIsStronger, ref, ps)
	if err != nil {
		tb.Fatal(err)
	}
	return cleansel.Task{
		DB: db, Claims: set,
		Measure: cleansel.Robustness, Goal: cleansel.MinimizeUncertainty,
		Algorithm: cleansel.AlgoGreedy, Budget: budget,
	}
}

// pinnedAnswer renders what a MinVar solve and the ranking of its
// task answer, every float as its exact hexadecimal form: the chosen
// set, Before and After, and RankObjects' benefits in ranked order.
func pinnedAnswer(tb testing.TB, task cleansel.Task) string {
	tb.Helper()
	res, err := cleansel.Select(task)
	if err != nil {
		tb.Fatal(err)
	}
	ranked, err := cleansel.RankObjects(task.DB, task.Claims, task.Measure)
	if err != nil {
		tb.Fatal(err)
	}
	hex := func(x float64) string { return strconv.FormatFloat(x, 'x', -1, 64) }
	var b strings.Builder
	fmt.Fprintf(&b, "chosen %v\n", []int(res.Set))
	fmt.Fprintf(&b, "before %s\n", hex(res.Before))
	fmt.Fprintf(&b, "after %s\n", hex(res.After))
	for _, ob := range ranked {
		fmt.Fprintf(&b, "rank %d %s\n", ob.ID, hex(ob.Benefit))
	}
	return b.String()
}

// servedConstantTermsTask is servedMinVarTask with two more
// perturbations: a constant claim with an empty coef, whose term has
// no vars, and a claim whose only coefficient is 0, kept as it is
// written, so its term sweeps one var of the first perturbation's
// window with a −0 coefficient (the direction folded in). Both terms
// are constant, so they add no variance, but every walk still visits
// them.
func servedConstantTermsTask(tb testing.TB, seed uint64, measure cleansel.Measure) cleansel.Task {
	tb.Helper()
	task := servedMinVarTask(tb, seed)
	set := task.Claims
	zeroAt := set.Perturbs[0].Claim.Vars()[1]
	ps := append(slices.Clone(set.Perturbs),
		cleansel.Perturbed{Claim: cleansel.NewClaim("const", set.Ref+1, nil), Sensibility: 0.5},
		cleansel.Perturbed{Claim: &cleansel.Claim{Name: "zero", Coef: map[int]float64{zeroAt: 0}}, Sensibility: 0.5})
	var err error
	task.Claims, err = cleansel.NewPerturbationSet(set.Original, set.Dir, set.Ref, ps)
	if err != nil {
		tb.Fatal(err)
	}
	task.Measure = measure
	return task
}

// pinnedTasks names the tasks whose answers testdata/minvar_pinned
// holds: four of the served uniqueness shape (disjoint windows, no
// pairs), the served shape with two constant terms under uniqueness
// and under robustness, and one robustness task over sliding windows
// (overlapping pairs).
func pinnedTasks(tb testing.TB) map[string]cleansel.Task {
	tasks := map[string]cleansel.Task{
		"robustness-sliding-seed5":           slidingRobustnessTask(tb, 5),
		"served-constant-terms-seed1":        servedConstantTermsTask(tb, 1, cleansel.Uniqueness),
		"served-constant-terms-robust-seed1": servedConstantTermsTask(tb, 1, cleansel.Robustness),
	}
	for _, seed := range []uint64{1, 2, 3, 4} {
		tasks[fmt.Sprintf("served-seed%d", seed)] = servedMinVarTask(tb, seed)
	}
	return tasks
}

// TestMinVarAnswersPinned compares fresh solves with answers recorded
// by an earlier, slower implementation of the group engine's greedy
// routes, bit for bit. The figure goldens print six digits; these pin
// every bit of Before, After and each ranked benefit. There is no
// update flag: a deliberate change rewrites the files and says why.
func TestMinVarAnswersPinned(t *testing.T) {
	for name, task := range pinnedTasks(t) {
		want, err := os.ReadFile(filepath.Join("testdata", "minvar_pinned", name+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if got := pinnedAnswer(t, task); got != string(want) {
			t.Errorf("%s: answer moved\n got:\n%s\nwant:\n%s", name, got, want)
		}
	}
}

// correlatedMaxPrTask builds a MaxPr/fairness task over n normal objects
// with the §4.5 decay covariance at γ = 0.6: integer costs 1–4, a window-4
// sum claim, every sliding window as a perturbation, τ = 0.5 and a budget
// of 20% of the total cost. Currents sit off their means, so the
// conditional semantics shifts every cleaned object's mean.
func correlatedMaxPrTask(tb testing.TB, n int, seed uint64) cleansel.Task {
	tb.Helper()
	const w = 4
	r := rng.New(seed)
	objs := make([]cleansel.Object, n)
	for i := range objs {
		mu, sigma := r.Uniform(10, 50), r.Uniform(0.5, 3)
		v, err := cleansel.NewNormal(mu, sigma)
		if err != nil {
			tb.Fatal(err)
		}
		objs[i] = cleansel.Object{
			Name:    fmt.Sprintf("o%d", i),
			Current: mu + sigma*r.Uniform(-1.5, 1.5),
			Cost:    float64(r.IntRange(1, 4)),
			Value:   v,
		}
	}
	db := cleansel.NewDB(objs)
	if err := cleansel.WithDecayCovariance(db, 0.6); err != nil {
		tb.Fatal(err)
	}
	start := r.Intn(n - w + 1)
	orig := cleansel.WindowSum("claim", start, w)
	set, err := cleansel.NewPerturbationSet(orig, cleansel.HigherIsStronger,
		orig.Eval(db.Currents()), cleansel.SlidingWindows("w", n, w, start, 0.5))
	if err != nil {
		tb.Fatal(err)
	}
	return cleansel.Task{
		DB: db, Claims: set,
		Measure: cleansel.Fairness, Goal: cleansel.MaximizeSurprise,
		Algorithm: cleansel.AlgoGreedy, Budget: db.Budget(0.2), Tau: 0.5,
	}
}

// TestMaxPrCorrelatedPinned compares fresh correlated MaxPr solves with
// answers recorded from the Schur-complement evaluator that factored the
// uncleaned block of Σ twice per probability: the chosen sets exactly,
// and After within 1e-12 relative (the two routes round differently).
// There is no update flag.
func TestMaxPrCorrelatedPinned(t *testing.T) {
	pins := []struct {
		n      int
		seed   uint64
		chosen []int
		after  float64
	}{
		{25, 1, []int{0, 1, 4, 7, 9, 19}, 0x1.e7f930cf8dca2p-01},
		{25, 2, []int{1, 3, 7, 9, 11}, 0x1.fb581a25ba426p-01},
		{50, 1, []int{0, 1, 4, 9, 13, 14, 15, 18, 19, 23}, 0x1.f62e9ac333241p-01},
		{50, 2, []int{29, 35, 37, 39, 40, 42, 46, 49}, 0x1.ffe129939063bp-01},
		{100, 1, []int{0, 1, 4, 7, 9, 11, 13, 14, 15, 18, 19, 20, 21, 22, 23, 25, 26, 30, 35}, 0x1.e9985b85292e9p-01},
		{100, 2, []int{35, 37, 39, 40, 42, 43, 44, 46, 49, 51, 55, 56, 57, 60, 62, 63, 66, 80}, 0x1.ff51c12072607p-01},
	}
	for _, pin := range pins {
		res, err := cleansel.Select(correlatedMaxPrTask(t, pin.n, pin.seed))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal([]int(res.Set), pin.chosen) {
			t.Errorf("n=%d seed %d: chose %v, want %v", pin.n, pin.seed, []int(res.Set), pin.chosen)
		}
		if res.Before != 0 || math.Abs(res.After-pin.after) > 1e-12*pin.after {
			t.Errorf("n=%d seed %d: P %v -> %v, want 0 -> %v", pin.n, pin.seed, res.Before, res.After, pin.after)
		}
	}
}

// servedDecay is the sensibility decay λ of the served select_maxpr
// shape's perturbations.
const servedDecay = 0.35

// maxPrShape builds the served select_maxpr shape over n unit-cost
// objects with 6-point supports: a window-4 sum claim checked against its
// current value, every other disjoint window as a perturbation with
// sensibility decay lambda, and τ a quarter of the bias's standard
// deviation. It returns the database, the claim set and τ.
func maxPrShape(tb testing.TB, n int, seed uint64, lambda float64) (*cleansel.DB, *cleansel.PerturbationSet, float64) {
	tb.Helper()
	const w = 4
	r := rng.New(seed)
	db := datasets.SyntheticK(datasets.UR, n, datasets.MaxSupport, r.Uint64())
	for i := range db.Objects {
		db.Objects[i].Cost = 1
	}
	start := w * r.Intn(n/w)
	orig := cleansel.WindowSum("claim", start, w)
	var ps []cleansel.Perturbed
	for _, p := range cleansel.NonOverlappingWindows("w", n, w, start, lambda) {
		if p.Distance > 0 {
			ps = append(ps, p)
		}
	}
	set, err := cleansel.NewPerturbationSet(orig, cleansel.HigherIsStronger, orig.Eval(db.Currents()), ps)
	if err != nil {
		tb.Fatal(err)
	}
	m, err := ev.NewModular(db, set.Bias())
	if err != nil {
		tb.Fatal(err)
	}
	return db, set, 0.25 * math.Sqrt(m.Variance())
}

// maxPrCounts renders the MaxPr work counters a solve ticked.
func maxPrCounts(rec *obs.Recorder) (string, map[string]int64) {
	got := map[string]int64{}
	for _, c := range rec.Snapshot().Counters {
		got[c.Name] = c.Value
	}
	var b strings.Builder
	for _, name := range []string{"conv_ops", "maxpr_exact", "maxpr_mc_fallback"} {
		fmt.Fprintf(&b, "%s %d\n", name, got[name])
	}
	return b.String(), got
}

// maxPrAnswer renders a traced facade solve of maxPrShape with the
// given budget: the chosen set, Before and After as exact hexadecimal
// floats, and the work counters.
func maxPrAnswer(tb testing.TB, n int, lambda float64, seed uint64, budget float64) string {
	tb.Helper()
	db, set, tau := maxPrShape(tb, n, seed, lambda)
	task := cleansel.Task{
		DB: db, Claims: set,
		Measure: cleansel.Fairness, Goal: cleansel.MaximizeSurprise,
		Algorithm: cleansel.AlgoGreedy, Budget: budget, Tau: tau, Seed: seed,
	}
	rec := obs.NewRecorder(nil)
	res, err := cleansel.SelectContext(obs.WithRecorder(context.Background(), rec), task)
	if err != nil {
		tb.Fatal(err)
	}
	hex := func(x float64) string { return strconv.FormatFloat(x, 'x', -1, 64) }
	counts, _ := maxPrCounts(rec)
	return fmt.Sprintf("chosen %v\nbefore %s\nafter %s\n%s", []int(res.Set), hex(res.Before), hex(res.After), counts)
}

// fallbackMaxPrAnswer renders a GreedyMaxPr solve over 12 objects of the
// same shape whose evaluator caps exact convolution at 36 states: from
// the third round on, candidates go to the Monte-Carlo fallback. It
// returns the chosen set, P of it from the memoizing evaluator as an
// exact hexadecimal float and the work counters, with every counter
// the solve ticked.
func fallbackMaxPrAnswer(tb testing.TB) (string, map[string]int64) {
	tb.Helper()
	db, set, tau := maxPrShape(tb, 12, 9, servedDecay)
	h, err := maxpr.NewHybrid(db, set.Bias(), tau, 36, 2000, rng.New(9))
	if err != nil {
		tb.Fatal(err)
	}
	rec := obs.NewRecorder(nil)
	h.Observe(rec)
	eval := maxpr.NewCached(h)
	g, err := core.NewGreedyMaxPr(db, eval)
	if err != nil {
		tb.Fatal(err)
	}
	T, err := g.Select(6)
	if err != nil {
		tb.Fatal(err)
	}
	p := eval.Prob(T)
	counts, got := maxPrCounts(rec)
	return fmt.Sprintf("chosen %v\np %s\n%s", []int(T), strconv.FormatFloat(p, 'x', -1, 64), counts), got
}

// TestMaxPrDiscretePinned compares fresh MaxPr solves over independent
// discrete errors with answers and work counts recorded before the exact
// convolution and its Monte-Carlo fallback became one evaluator, bit for
// bit: four facade solves of the served shape, which stay exact, and one
// greedy solve whose evaluator falls back to Monte Carlo. A fifth facade
// solve of the served shape, at budget 9 and recorded while the fallback
// was still a separate whole-claim sampler, reaches the facade's own
// fallback: its ninth round's candidates are past the 2^22-state cap and
// are sampled, 20,000 draws each. A sixth facade solve, at n = 68 with
// equal sensibilities, convolves drop laws that lie on a dyadic lattice.
// The figure goldens print six digits. There is no update flag.
func TestMaxPrDiscretePinned(t *testing.T) {
	check := func(name, got string) {
		want, err := os.ReadFile(filepath.Join("testdata", "maxpr_pinned", name+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s: answer moved\n got:\n%s\nwant:\n%s", name, got, want)
		}
	}
	for _, seed := range []uint64{1, 2, 3, 4} {
		check(fmt.Sprintf("served-seed%d", seed), maxPrAnswer(t, 100, servedDecay, seed, 4))
	}
	check("served-budget9-seed2", maxPrAnswer(t, 100, servedDecay, 2, 9))
	got, counters := fallbackMaxPrAnswer(t)
	if counters["maxpr_mc_fallback"] == 0 {
		t.Fatal("the Monte-Carlo fallback never fired: the pin would not cover it")
	}
	check("fallback-n12", got)
	// At λ = 0 the 16 perturbations of n = 68 weigh the same, so every
	// bias coefficient is ±1/16 and each drop law over the integer
	// supports lies on a dyadic lattice.
	check("lattice-n68-seed1", maxPrAnswer(t, 68, 0, 1, 4))
}
