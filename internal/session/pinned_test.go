package session_test

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/factcheck/cleansel/internal/claims"
	"github.com/factcheck/cleansel/internal/datasets"
	"github.com/factcheck/cleansel/internal/dist"
	"github.com/factcheck/cleansel/internal/ev"
	"github.com/factcheck/cleansel/internal/model"
	"github.com/factcheck/cleansel/internal/obs"
	"github.com/factcheck/cleansel/internal/query"
	"github.com/factcheck/cleansel/internal/rng"
	"github.com/factcheck/cleansel/internal/session"
)

// The pinned episodes use the served session shape: a 200-object series
// with 6-point supports, a window-4 sum claim at a seeded start with
// every other disjoint window as a perturbation (λ = 0.35), and a
// budget of 28.
const (
	pinN      = 200
	pinW      = 4
	pinLambda = 0.35
	pinBudget = 28
)

// pinnedEpisode is one episode TestSessionEpisodesPinned replays.
type pinnedEpisode struct {
	file string
	db   *model.DB
	goal session.Goal
	seed uint64 // claim start and revealed values
}

// windowBias compiles the fairness bias of a window-4 claim at a start
// drawn from r, and the MaxPr threshold τ = ¼·√Var[bias].
func windowBias(t testing.TB, db *model.DB, r *rng.RNG) (*query.Affine, float64) {
	t.Helper()
	start := pinW * r.Intn(db.N()/pinW)
	orig := claims.WindowSum("claim", start, pinW)
	var ps []claims.Perturbed
	for _, p := range claims.NonOverlappingWindows("w", db.N(), pinW, start, pinLambda) {
		if p.Distance > 0 {
			ps = append(ps, p)
		}
	}
	set, err := claims.NewSet(orig, claims.HigherIsStronger, orig.Eval(db.Currents()), ps)
	if err != nil {
		t.Fatal(err)
	}
	f := set.Bias()
	m, err := ev.NewModular(db, f)
	if err != nil {
		t.Fatal(err)
	}
	return f, 0.25 * math.Sqrt(m.Variance())
}

// claim draws the episode's claim and returns its bias, its τ (0 for
// MinVar) and the generator the revealed values are then drawn from.
func (ep pinnedEpisode) claim(tb testing.TB) (*query.Affine, float64, *rng.RNG) {
	tb.Helper()
	r := rng.New(ep.seed)
	f, tau := windowBias(tb, ep.db, r)
	if ep.goal == session.MinVar {
		tau = 0
	}
	return f, tau, r
}

// normalSeries builds an n-object series of normal laws with seeded
// means, spreads, currents and integer costs in [1, 10].
func normalSeries(t testing.TB, n int, seed uint64) *model.DB {
	t.Helper()
	r := rng.New(seed)
	objs := make([]model.Object, n)
	for i := range objs {
		mu := r.Uniform(50, 150)
		law, err := dist.NewNormal(mu, r.Uniform(1, 12))
		if err != nil {
			t.Fatal(err)
		}
		objs[i] = model.Object{Name: fmt.Sprintf("n%d", i), Cost: float64(r.IntRange(1, 10)), Current: law.Sample(r), Value: law}
	}
	return model.New(objs)
}

// renderEpisode follows the stepper's recommendations to a terminal
// state, revealing values drawn from each object's law, and writes one
// line per state and one per reveal. Every float is an exact hex float.
func renderEpisode(t *testing.T, ep pinnedEpisode) string {
	t.Helper()
	f, tau, r := ep.claim(t)
	st := mustStepper(t, ep.db, f, ep.goal, tau, pinBudget)
	hex := func(x float64) string { return strconv.FormatFloat(x, 'x', -1, 64) }
	var b strings.Builder
	fmt.Fprintf(&b, "goal %s tau %s budget %s baseline %s\n", ep.goal, hex(tau), hex(float64(pinBudget)), hex(st.Baseline()))
	for step := 0; ; step++ {
		rec := obs.NewRecorder(nil)
		status := st.Status(rec)
		rr, ok := st.Recommend(rec)
		var evals int64
		for _, c := range rec.Snapshot().Counters {
			if c.Name == "session_step_evals" {
				evals = c.Value
			}
		}
		fmt.Fprintf(&b, "step %d %s", step, status)
		if ok {
			fmt.Fprintf(&b, " rec %d %s %s", rr.Object, hex(rr.Benefit), hex(rr.Ratio))
		} else {
			b.WriteString(" rec none")
		}
		fmt.Fprintf(&b, " current %s achieved %s estimate %s uncertainty %s remaining %s spent %s evals %d\n",
			hex(st.Current()), hex(st.Achieved()), hex(st.Estimate()), hex(st.Uncertainty()),
			hex(st.Remaining()), hex(st.Spent()), evals)
		if !ok {
			return b.String()
		}
		value := ep.draw(rr.Object, r)
		if err := st.Reveal(rr.Object, value, nil); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "reveal %d %s\n", rr.Object, hex(value))
	}
}

// draw samples object o's true value from its law.
func (ep pinnedEpisode) draw(o int, r *rng.RNG) float64 {
	return ep.db.Objects[o].Value.(interface{ Sample(*rng.RNG) float64 }).Sample(r)
}

// pinnedEpisodes lists the recorded episodes. A MaxPr episode usually
// ends once its first or second reveal finds the counter, so the MaxPr
// seeds are ones whose episodes run six or seven reveals, one ending
// countered and one exhausted.
func pinnedEpisodes(tb testing.TB) []pinnedEpisode {
	discrete := datasets.SyntheticK(datasets.UR, pinN, datasets.MaxSupport, 7)
	return []pinnedEpisode{
		{file: "minvar_window.txt", db: discrete, goal: session.MinVar, seed: 11},
		{file: "maxpr_window.txt", db: discrete, goal: session.MaxPr, seed: 53},
		{file: "maxpr_normal.txt", db: normalSeries(tb, pinN, 15), goal: session.MaxPr, seed: 16},
	}
}

// TestSessionEpisodesPinned replays three episodes — MinVar and MaxPr on
// the served discrete shape, MaxPr over normal laws — and compares every
// state bit for bit (and each step's session_step_evals count) against
// testdata/*.txt. There is no update flag: the files pin what the
// stepper answered when they were recorded.
func TestSessionEpisodesPinned(t *testing.T) {
	for _, ep := range pinnedEpisodes(t) {
		t.Run(ep.file, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", ep.file))
			if err != nil {
				t.Fatal(err)
			}
			got := renderEpisode(t, ep)
			if got == string(want) {
				return
			}
			gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(gl) || i < len(wl); i++ {
				var g, w string
				if i < len(gl) {
					g = gl[i]
				}
				if i < len(wl) {
					w = wl[i]
				}
				if g != w {
					t.Fatalf("line %d:\n got  %s\n want %s", i+1, g, w)
				}
			}
		})
	}
}
