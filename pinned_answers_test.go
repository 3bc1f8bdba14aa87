package cleansel_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	cleansel "github.com/factcheck/cleansel"
	"github.com/factcheck/cleansel/internal/datasets"
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

// pinnedTasks names the tasks whose answers testdata/minvar_pinned
// holds: four of the served uniqueness shape (disjoint windows, no
// pairs) and one robustness task over sliding windows (overlapping
// pairs).
func pinnedTasks(tb testing.TB) map[string]cleansel.Task {
	tasks := map[string]cleansel.Task{"robustness-sliding-seed5": slidingRobustnessTask(tb, 5)}
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
