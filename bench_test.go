// Benchmarks regenerating every figure/experiment of the paper at reduced
// (Small) scale, plus ablations of the design choices called out in
// docs/ARCHITECTURE.md. Run the full-scale experiments with cmd/repro
// -scale paper.
package cleansel_test

import (
	"fmt"
	"runtime"
	"testing"

	cleansel "github.com/factcheck/cleansel"
	"github.com/factcheck/cleansel/internal/claims"
	"github.com/factcheck/cleansel/internal/core"
	"github.com/factcheck/cleansel/internal/datasets"
	"github.com/factcheck/cleansel/internal/ev"
	"github.com/factcheck/cleansel/internal/expt"
	"github.com/factcheck/cleansel/internal/maxpr"
	"github.com/factcheck/cleansel/internal/model"
	"github.com/factcheck/cleansel/internal/parallel"
	"github.com/factcheck/cleansel/internal/query"
	"github.com/factcheck/cleansel/internal/rng"
)

// benchExperiment runs one registered experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := expt.Run(id, expt.Small, 42); err != nil {
			b.Fatal(err)
		}
	}
}

// --- One bench per paper artifact -------------------------------------------

func BenchmarkFig01(b *testing.B)    { benchExperiment(b, "fig1") }  // Fig 1(a–d): fairness, modular
func BenchmarkFig02(b *testing.B)    { benchExperiment(b, "fig2") }  // Fig 2(a,b): uniqueness, CDC
func BenchmarkFig03(b *testing.B)    { benchExperiment(b, "fig3") }  // Fig 3(a–f): uniqueness, URx
func BenchmarkFig04(b *testing.B)    { benchExperiment(b, "fig4") }  // Fig 4(a–f): uniqueness, LNx
func BenchmarkFig05(b *testing.B)    { benchExperiment(b, "fig5") }  // Fig 5(a–f): uniqueness, SMx
func BenchmarkFig06(b *testing.B)    { benchExperiment(b, "fig6") }  // Fig 6(a,b): improvement curves
func BenchmarkFig07(b *testing.B)    { benchExperiment(b, "fig7") }  // Fig 7(a,b): robustness
func BenchmarkFig08(b *testing.B)    { benchExperiment(b, "fig8") }  // Fig 8(a,b): in action, CDC-causes
func BenchmarkFig09(b *testing.B)    { benchExperiment(b, "fig9") }  // Fig 9(a,b): in action, URx
func BenchmarkFig10(b *testing.B)    { benchExperiment(b, "fig10") } // Fig 10(a,b): running time
func BenchmarkFig11(b *testing.B)    { benchExperiment(b, "fig11") } // Fig 11(a,b): dependencies
func BenchmarkFig12(b *testing.B)    { benchExperiment(b, "fig12") } // Fig 12(a,b): competing objectives
func BenchmarkCounters(b *testing.B) { benchExperiment(b, "counters") }
func BenchmarkThm39(b *testing.B)    { benchExperiment(b, "thm39") }

// --- Ablations ----------------------------------------------------------------

// uniqWorkload builds a small uniqueness workload shared by the ablations.
func uniqWorkload(n int) (*model.DB, *query.GroupSum) {
	db := datasets.URx(n, 7)
	w := expt.SyntheticUniquenessFromDB(db, 100)
	return db, w.Set.Dup()
}

// BenchmarkAblationGroupEV measures the Theorem 3.8 group engine against
// joint enumeration on an instance small enough for both (8 objects).
func BenchmarkAblationGroupEV(b *testing.B) {
	db, g := uniqWorkload(8)
	engine, err := ev.NewGroupEngine(db, g)
	if err != nil {
		b.Fatal(err)
	}
	T := model.NewSet(0, 5)
	b.Run("group", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			engine.EV(T)
		}
	})
	bf, err := ev.NewBruteForce(db, g)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("bruteforce", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bf.EV(T)
		}
	})
}

// BenchmarkAblationLazyGreedy compares the local-invalidation queue
// greedy (GreedyMinVarGroup) against the O(n²) adaptive greedy re-scan.
func BenchmarkAblationLazyGreedy(b *testing.B) {
	db, g := uniqWorkload(200)
	budget := db.Budget(0.3)
	b.Run("queue", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sel, err := core.NewGreedyMinVarGroup(db, g)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sel.Select(budget); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rescan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			engine, err := ev.NewGroupEngine(db, g)
			if err != nil {
				b.Fatal(err)
			}
			sel, err := core.NewGreedyEngine("GreedyMinVar", db, engine)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sel.Select(budget); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationSingletonBulk compares the bulk one-pass-per-term
// initial benefit computation, which NewState runs with its start
// walks, against per-object Delta calls on top of it.
func BenchmarkAblationSingletonBulk(b *testing.B) {
	db, g := uniqWorkload(400)
	engine, err := ev.NewGroupEngine(db, g)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("bulk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			engine.NewState()
		}
	})
	b.Run("perobject", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st := engine.NewState()
			for o := 0; o < db.N(); o++ {
				st.Delta(o)
			}
		}
	})
}

// BenchmarkAblationConvVsMC compares exact convolution against Monte
// Carlo for the MaxPr objective. The convolution side is a Hybrid whose
// default state cap T stays under, so its Prob never samples.
func BenchmarkAblationConvVsMC(b *testing.B) {
	db, _ := uniqWorkload(24)
	w := expt.SyntheticUniquenessFromDB(db, 100)
	bias := w.Set.Bias()
	T := model.NewSet(0, 1, 2, 3, 4, 5)
	exact, err := maxpr.NewHybrid(db, bias, 1, 0, 1, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	if exact.Extensions(T) == nil {
		b.Fatal("T is past the state cap: Prob would sample")
	}
	b.Run("convolution", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			exact.Prob(T)
		}
	})
	mc, err := maxpr.NewMonteCarlo(db, bias, 1, 10000, rng.New(3))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("montecarlo10k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mc.Prob(T)
		}
	})
}

// BenchmarkAblationEVCache measures the per-term mask memoization that
// makes Best/OPT affordable: repeated EV calls over related subsets.
func BenchmarkAblationEVCache(b *testing.B) {
	db, g := uniqWorkload(40)
	sets := make([]model.Set, 0, 40)
	for o := 0; o < db.N(); o++ {
		sets = append(sets, model.NewSet(o))
	}
	b.Run("warm", func(b *testing.B) {
		engine, err := ev.NewGroupEngine(db, g)
		if err != nil {
			b.Fatal(err)
		}
		for _, T := range sets {
			engine.EV(T) // warm the caches
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, T := range sets {
				engine.EV(T)
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			engine, err := ev.NewGroupEngine(db, g)
			if err != nil {
				b.Fatal(err)
			}
			for _, T := range sets {
				engine.EV(T)
			}
		}
	})
}

// BenchmarkSelectFacade measures the end-to-end public API path: one
// cleansel.Select of a MinVar/uniqueness task, with Before and After.
func BenchmarkSelectFacade(b *testing.B) {
	db, _ := uniqWorkload(40)
	w := expt.SyntheticUniquenessFromDB(db, 100)
	task := cleansel.Task{
		DB: db, Claims: w.Set,
		Measure: cleansel.Uniqueness, Goal: cleansel.MinimizeUncertainty,
		Algorithm: cleansel.AlgoGreedy, Budget: db.Budget(0.25),
	}
	for i := 0; i < b.N; i++ {
		if _, err := cleansel.Select(task); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelectMaxPrCorrelated measures the facade's MaxPr solve over
// correlated normal errors (the §4.5 decay covariance at γ = 0.6, the
// tasks TestMaxPrCorrelatedPinned pins): the greedy evaluates every
// candidate's probability through the conditional MVNAffine.
func BenchmarkSelectMaxPrCorrelated(b *testing.B) {
	for _, n := range []int{25, 50, 100} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			task := correlatedMaxPrTask(b, n, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cleansel.Select(task); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Parallel subsystem -------------------------------------------------------

// benchWorkerCounts runs the benchmark body across a worker-count
// curve — CLEANSEL_WORKERS at 1, every power of two up to GOMAXPROCS,
// and GOMAXPROCS itself — the scaling data scripts/bench.sh records:
// the full-width run must beat workers=1 while producing bit-identical
// results (pinned by the bit-identity tests, not re-checked here).
func benchWorkerCounts(b *testing.B, body func(b *testing.B)) {
	b.Helper()
	max := runtime.GOMAXPROCS(0)
	if max == 1 {
		// Single-CPU machine: no speedup to demonstrate, but still
		// exercise the pool so its overhead shows in the comparison.
		max = 2
	}
	counts := []int{1}
	for w := 2; w < max; w *= 2 {
		counts = append(counts, w)
	}
	counts = append(counts, max)
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.Setenv(parallel.EnvWorkers, fmt.Sprint(workers))
			body(b)
		})
	}
}

// wideUniquenessWorkload builds a uniqueness workload whose claim
// windows are wide enough (7-point supports, width-6 windows → 7^6
// enumerations per term) that the per-term passes dominate — the shape
// the parallel GroupEngine paths target.
func wideUniquenessWorkload(n int) (*model.DB, *cleansel.PerturbationSet) {
	db := datasets.URx(n, 7)
	const w = 6
	orig := claims.WindowSum("orig", n-w, w)
	perturbs := claims.NonOverlappingWindows("w", n, w, n-w, 0.5)
	set, err := claims.NewSet(orig, claims.LowerIsStronger, 100, perturbs)
	if err != nil {
		panic(err)
	}
	return db, set
}

// BenchmarkGroupEngineParallel measures the engine-level fan-out: the
// initial state build, which yields the bulk singleton benefits (the
// per-object enumeration of Theorem 3.8).
func BenchmarkGroupEngineParallel(b *testing.B) {
	db, set := wideUniquenessWorkload(120)
	g := set.Dup()
	benchWorkerCounts(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			engine, err := ev.NewGroupEngine(db, g)
			if err != nil {
				b.Fatal(err)
			}
			engine.NewState()
		}
	})
}

// BenchmarkSelectParallel measures the end-to-end public API under the
// worker pool: a full GreedyMinVar uniqueness solve over the wide
// workload, so the parallel per-term enumeration (state build,
// singleton benefits, EV misses along the greedy picks) dominates and
// the fan-out has real work to amortize the pool overhead against.
// (Solving the narrow disjoint-4-window workload here instead makes
// the per-term passes so cheap that pool overhead shows as a slowdown
// — the 0.78x regression scripts/bench.sh now gates against.)
func BenchmarkSelectParallel(b *testing.B) {
	db, set := wideUniquenessWorkload(120)
	task := cleansel.Task{
		DB:      db,
		Claims:  set,
		Measure: cleansel.Uniqueness,
		Goal:    cleansel.MinimizeUncertainty,
		Budget:  db.Budget(0.25),
	}
	benchWorkerCounts(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cleansel.Select(task); err != nil {
				b.Fatal(err)
			}
		}
	})
}
