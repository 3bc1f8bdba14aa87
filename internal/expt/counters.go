package expt

import (
	"context"
	"fmt"
	"math"

	"github.com/factcheck/cleansel/internal/core"
	"github.com/factcheck/cleansel/internal/datasets"
	"github.com/factcheck/cleansel/internal/dist"
	"github.com/factcheck/cleansel/internal/ev"
	"github.com/factcheck/cleansel/internal/maxpr"
	"github.com/factcheck/cleansel/internal/model"
	"github.com/factcheck/cleansel/internal/rng"
)

func init() {
	register("counters", runCounters)
}

// counterScenario is one §4.3 "finding counters" simulation: hidden true
// values exist; after a selector cleans T, those values are revealed, and
// we measure the probability (over the remaining uncertainty) that some
// perturbation refutes the original claim.
type counterScenario struct {
	w     Workload
	truth []float64
}

// sampleValue draws from either a discrete or normal value model.
func sampleValue(v model.Value, r *rng.RNG) float64 {
	switch d := v.(type) {
	case *dist.Discrete:
		return d.Sample(r)
	case dist.Normal:
		return d.Sample(r)
	}
	panic(fmt.Sprintf("expt: unsupported value model %T", v))
}

// findCounterScenario searches deterministic seeds until the hidden truth
// contains a counterargument while the current (noisy) values do not —
// the setup of both §4.3 scenarios ("if we assume the current noisy
// values to be correct, there would be no counterexample ... however, if
// we clean all data ... there is a counterargument").
func findCounterScenario(build func(seed uint64) Workload, seed uint64) (counterScenario, error) {
	for attempt := uint64(0); attempt < 200; attempt++ {
		w := build(seed + attempt)
		if w.Set.HasCounter(w.DB.Currents(), 0) {
			continue // claim already refuted without cleaning
		}
		r := rng.New(seed + attempt + 0xc0de)
		truth := make([]float64, w.DB.N())
		for i, o := range w.DB.Objects {
			truth[i] = sampleValue(o.Value, r)
		}
		if !w.Set.HasCounter(truth, 0) {
			continue // cleaning everything would not find a counter either
		}
		return counterScenario{w: w, truth: truth}, nil
	}
	return counterScenario{}, fmt.Errorf("expt: no counter scenario found near seed %d", seed)
}

// revealedCounterProb estimates, by Monte Carlo over the remaining
// uncertainty, the probability that the data revealed by cleaning T
// exposes a counterargument.
func revealedCounterProb(sc counterScenario, T model.Set, samples int, r *rng.RNG) float64 {
	x := sc.w.DB.Currents()
	known := make([]bool, sc.w.DB.N())
	for _, o := range T {
		known[o] = true
		x[o] = sc.truth[o]
	}
	hits := 0
	for s := 0; s < samples; s++ {
		for i, o := range sc.w.DB.Objects {
			if !known[i] {
				x[i] = sampleValue(o.Value, r)
			}
		}
		if sc.w.Set.HasCounter(x, 0) {
			hits++
		}
	}
	return float64(hits) / float64(samples)
}

// runCounters reproduces the §4.3 "finding counters" experiments on
// CDC-firearms and URx: the budget each algorithm needs before the
// revealed data exposes the counterargument with probability ≥ 98%.
func runCounters(ctx context.Context, scale Scale, seed uint64) ([]*Figure, error) {
	samples := 4000
	step := 0.01
	if scale == Small {
		samples = 1000
		step = 0.05
	}
	var out []*Figure

	// --- CDC-firearms ("lowest four-year period in recent history").
	scF, err := findCounterScenario(FirearmsLowest, seed)
	if err != nil {
		return nil, err
	}
	figF, err := counterFigure(ctx, "counters-firearms",
		"Probability that revealed data exposes a counterargument (CDC-firearms)",
		scF, counterAlgosNormal, step, samples, seed)
	if err != nil {
		return nil, err
	}
	out = append(out, figF)

	// --- URx (Γ-style low claim on the last window).
	scU, err := findCounterScenario(func(s uint64) Workload {
		return SyntheticLowest(datasets.UR, 40, s)
	}, seed+500)
	if err != nil {
		return nil, err
	}
	figU, err := counterFigure(ctx, "counters-urx",
		"Probability that revealed data exposes a counterargument (URx, n=40)",
		scU, counterAlgosDiscrete, step, samples, seed)
	if err != nil {
		return nil, err
	}
	out = append(out, figU)
	return out, nil
}

// counterAlgosNormal builds the §4.3 competitors for a normal-valued DB.
func counterAlgosNormal(sc counterScenario, seed uint64) ([]core.Selector, error) {
	bias := sc.w.Set.Bias()
	mod, err := ev.NewModular(sc.w.DB, bias)
	if err != nil {
		return nil, err
	}
	tau := 0.25 * math.Sqrt(mod.Variance())
	eval, err := maxpr.NewNormalAffine(sc.w.DB, bias, tau)
	if err != nil {
		return nil, err
	}
	gmp, err := core.NewGreedyMaxPr(sc.w.DB, eval)
	if err != nil {
		return nil, err
	}
	return []core.Selector{
		gmp,
		core.NewGreedyNaive(sc.w.DB, bias.Vars()),
	}, nil
}

// counterAlgosDiscrete builds the competitors for a discrete DB (exact
// convolution with Monte-Carlo fallback).
func counterAlgosDiscrete(sc counterScenario, seed uint64) ([]core.Selector, error) {
	bias := sc.w.Set.Bias()
	mod, err := ev.NewModular(sc.w.DB, bias)
	if err != nil {
		return nil, err
	}
	tau := 0.25 * math.Sqrt(mod.Variance())
	eval, err := maxpr.NewHybrid(sc.w.DB, bias, tau, 1<<20, 8000, rng.New(seed^0xabcd))
	if err != nil {
		return nil, err
	}
	gmp, err := core.NewGreedyMaxPr(sc.w.DB, maxpr.NewCached(eval))
	if err != nil {
		return nil, err
	}
	return []core.Selector{
		gmp,
		core.NewGreedyNaive(sc.w.DB, bias.Vars()),
	}, nil
}

// counterFigure sweeps the budget for each competitor and records both
// the probability curve and the 98% crossing. The sweep is sequential:
// every point draws its Monte-Carlo samples from one stream.
func counterFigure(ctx context.Context, id, title string, sc counterScenario,
	algos func(counterScenario, uint64) ([]core.Selector, error),
	step float64, samples int, seed uint64) (*Figure, error) {

	fig := &Figure{
		ID:     id,
		Title:  title,
		XLabel: "budget (fraction)",
		YLabel: "probability counter revealed",
	}
	selectors, err := algos(sc, seed)
	if err != nil {
		return nil, err
	}
	const confident = 0.98
	for _, sel := range selectors {
		s := Series{Name: sel.Name()}
		crossed := math.NaN()
		var cleanedAtCross int
		mcr := rng.New(seed ^ 0x5eed)
		for frac := 0.0; frac <= 1.0+1e-9; frac += step {
			T, err := core.SelectWithContext(ctx, sel, sc.w.DB.Budget(frac))
			if err != nil {
				return nil, err
			}
			p := revealedCounterProb(sc, T, samples, mcr)
			s.Points = append(s.Points, Point{X: round2(frac), Y: p})
			if math.IsNaN(crossed) && p >= confident {
				crossed = round2(frac)
				cleanedAtCross = len(T)
			}
		}
		fig.Series = append(fig.Series, s)
		if math.IsNaN(crossed) {
			fig.Notes = append(fig.Notes, fmt.Sprintf("%s: never reaches %.0f%% confidence", sel.Name(), confident*100))
		} else {
			fig.Notes = append(fig.Notes, fmt.Sprintf("%s: reaches %.0f%% confidence at %.0f%% budget (%d values cleaned)",
				sel.Name(), confident*100, crossed*100, cleanedAtCross))
		}
	}
	return fig, nil
}
