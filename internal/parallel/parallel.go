// Package parallel is the library's deterministic parallel-execution
// substrate: a bounded worker pool that shards index ranges across
// goroutines with cooperative context cancellation.
//
// Every fan-out in this repository — the per-object enumeration of
// ev.GroupEngine, the budget sweeps of internal/expt, the server's
// request solving — funnels through For/Map here, so one invariant is
// enforced in one place: the observable output of a parallel loop is
// bit-identical for every worker count, including 1. Two rules make
// that hold:
//
//  1. Work item i may depend only on i (plus read-only shared state and
//     a per-worker scratch area that it fully overwrites before
//     reading). Which worker runs which item is scheduling-dependent
//     and must not matter.
//  2. Randomized items never share a generator: derive one
//     independent rng.RNG per item up front with rng.Split, which is
//     deterministic in the parent seed, so sampling is reproducible no
//     matter which worker draws first.
//
// Results are written into index-addressed slots and reduced in index
// order by the caller, so floating-point accumulation order is fixed.
// The worker count comes from GOMAXPROCS, overridable with the
// CLEANSEL_WORKERS environment variable; CLEANSEL_WORKERS=1 reproduces
// the single-threaded execution exactly. Extra workers are drawn from
// one process-wide budget, so nested fan-outs (sweep → solver →
// engine) degrade to inline execution instead of multiplying
// goroutines level by level.
package parallel

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/factcheck/cleansel/internal/obs"
)

// EnvWorkers is the environment variable that overrides the worker
// count (0 or unset means GOMAXPROCS; values are clamped to ≥ 1).
const EnvWorkers = "CLEANSEL_WORKERS"

// Workers returns the worker count used by For and Map: the
// CLEANSEL_WORKERS environment variable when set to a positive
// integer, otherwise GOMAXPROCS. It is consulted on every call, so
// tests can flip the variable between runs.
func Workers() int {
	if s := os.Getenv(EnvWorkers); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
}

// active counts extra worker goroutines currently spawned by For
// across the whole process. Nested fan-outs (a budget sweep whose
// points run solves whose engines fan out again) claim from one shared
// budget of Workers()−1 extras, so the total stays ~Workers() runnable
// goroutines instead of multiplying at every level; inner loops that
// find the budget exhausted simply run inline on their caller.
var active atomic.Int64

// claimExtra reserves up to want extra worker slots from the global
// budget; the calling goroutine itself needs no slot.
func claimExtra(want int) int {
	limit := int64(Workers()) - 1
	claimed := 0
	for claimed < want {
		cur := active.Load()
		if cur >= limit {
			break
		}
		if active.CompareAndSwap(cur, cur+1) {
			claimed++
		}
	}
	return claimed
}

// For runs fn(worker, i) for every i in [0, n), sharding the items
// across up to Workers() goroutines (the caller participates as
// worker 0). worker identifies the executing worker so callers can
// reuse per-worker scratch buffers; item i must not otherwise depend
// on the worker it lands on.
//
// Items are handed out dynamically (an atomic counter), so the load
// balances even when item costs are skewed, and extra workers come
// from a process-wide budget so nested For calls do not multiply
// goroutines. Cancellation is checked between items: when ctx is
// done, remaining items are skipped and For returns the context's
// cause. When one or more fn calls fail, the error of the smallest
// item index is returned — deterministic regardless of scheduling.
// When an fn call panics, the remaining items are skipped, every
// worker is waited for, and the panic is raised again on the caller as
// a *WorkerPanic, so a recover there sees it whichever worker it
// happened on.
func For(ctx context.Context, n int, fn func(worker, i int) error) error {
	if n <= 0 {
		if ctx.Err() != nil {
			return context.Cause(ctx)
		}
		return nil
	}
	// Write-only trace ticks; the recorder never influences sharding,
	// scheduling, or results.
	if rec := obs.FromContext(ctx); rec != nil {
		rec.Add("parallel_fanouts", 1)
		rec.Add("parallel_items", int64(n))
	}
	workers := Workers()
	if workers > n {
		workers = n
	}
	extra := 0
	if workers > 1 {
		extra = claimExtra(workers - 1)
	}
	defer active.Add(-int64(extra))

	var (
		next     atomic.Int64
		stop     atomic.Bool
		mu       sync.Mutex
		firstI   = n
		firstEr  error
		panicked *WorkerPanic
		wg       sync.WaitGroup
	)
	fail := func(i int, err error) {
		mu.Lock()
		if i < firstI {
			firstI, firstEr = i, err
		}
		mu.Unlock()
		stop.Store(true)
	}
	run := func(worker int) {
		defer func() {
			if p := recover(); p != nil {
				// A nested For already captured the innermost site.
				wp, ok := p.(*WorkerPanic)
				if !ok {
					wp = &WorkerPanic{Value: p, Stack: debug.Stack()}
				}
				mu.Lock()
				if panicked == nil {
					panicked = wp
				}
				mu.Unlock()
				stop.Store(true)
			}
		}()
		for !stop.Load() {
			if ctx.Err() != nil {
				stop.Store(true)
				return
			}
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if err := fn(worker, i); err != nil {
				fail(i, err)
				return
			}
		}
	}
	for w := 1; w <= extra; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			run(worker)
		}(w)
	}
	run(0) // the caller works too — progress never depends on the budget
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	if firstEr != nil {
		return firstEr
	}
	if err := ctx.Err(); err != nil {
		return context.Cause(ctx)
	}
	return nil
}

// A WorkerPanic is what For raises on its caller when an item panics:
// the item's panic value and the stack of the goroutine it panicked on.
type WorkerPanic struct {
	Value any
	Stack []byte
}

// Error renders the panic value followed by the worker's stack, so a
// logged recover shows where the item panicked, not just where For
// raised it again.
func (p *WorkerPanic) Error() string { return fmt.Sprintf("%v\n\n%s", p.Value, p.Stack) }

// Map runs fn over [0, n) like For and collects the results in item
// order. On error (or cancellation) the partial results are discarded
// and only the error is returned.
func Map[T any](ctx context.Context, n int, fn func(worker, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := For(ctx, n, func(worker, i int) error {
		v, err := fn(worker, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
