package expt

import (
	"context"
	"fmt"

	"github.com/factcheck/cleansel/internal/core"
	"github.com/factcheck/cleansel/internal/model"
	"github.com/factcheck/cleansel/internal/parallel"
)

// sweepSelector runs one selector across the budget fractions and scores
// each chosen set with metric (typically the remaining expected variance).
// The points are independent solves, so they run concurrently on the
// parallel worker pool; each lands in its own slot, and every selector
// and engine used by the figure runners is either stateless per call or
// guards its caches, so the series is bit-identical to a sequential
// sweep for every worker count.
func sweepSelector(ctx context.Context, db *model.DB, sel core.Selector, fracs []float64, metric func(model.Set) float64) (Series, error) {
	s := Series{Name: sel.Name(), Points: make([]Point, len(fracs))}
	err := parallel.For(ctx, len(fracs), func(_, i int) error {
		frac := fracs[i]
		T, err := core.SelectWithContext(ctx, sel, db.Budget(frac))
		if err != nil {
			return fmt.Errorf("%s at budget %.2f: %w", sel.Name(), frac, err)
		}
		if c := T.Cost(db); c > db.Budget(frac)+1e-6 {
			return fmt.Errorf("%s exceeded budget: %v > %v", sel.Name(), c, db.Budget(frac))
		}
		s.Points[i] = Point{X: frac, Y: metric(T)}
		return nil
	})
	if err != nil {
		return Series{}, err
	}
	return s, nil
}

// sweepRandomAvg averages the Random baseline over reps seeds, as §4.1
// does (100 runs, error bars omitted). Each budget point runs on the
// worker pool; the per-point repetition seeds are fixed, so the
// averages do not depend on the worker count.
func sweepRandomAvg(ctx context.Context, db *model.DB, fracs []float64, reps int, seed uint64, metric func(model.Set) float64) (Series, error) {
	s := Series{Name: "Random", Points: make([]Point, len(fracs))}
	err := parallel.For(ctx, len(fracs), func(_, i int) error {
		frac := fracs[i]
		var sum float64
		for rep := 0; rep < reps; rep++ {
			sel := &core.Random{DB: db, Seed: seed + uint64(rep)*7919}
			T, err := core.SelectWithContext(ctx, sel, db.Budget(frac))
			if err != nil {
				return err
			}
			sum += metric(T)
		}
		s.Points[i] = Point{X: frac, Y: sum / float64(reps)}
		return nil
	})
	if err != nil {
		return Series{}, err
	}
	return s, nil
}

// randomReps returns the number of Random repetitions per scale.
func randomReps(scale Scale) int {
	if scale == PaperScale {
		return 100
	}
	return 20
}
