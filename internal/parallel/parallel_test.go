package parallel

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/factcheck/cleansel/internal/rng"
)

func TestWorkersEnvOverride(t *testing.T) {
	t.Setenv(EnvWorkers, "3")
	if got := Workers(); got != 3 {
		t.Fatalf("Workers() = %d with %s=3", got, EnvWorkers)
	}
	t.Setenv(EnvWorkers, "0")
	if got := Workers(); got < 1 {
		t.Fatalf("Workers() = %d with %s=0", got, EnvWorkers)
	}
	t.Setenv(EnvWorkers, "nonsense")
	if got := Workers(); got < 1 {
		t.Fatalf("Workers() = %d with garbage env", got)
	}
}

func TestForVisitsEveryItemOnce(t *testing.T) {
	for _, workers := range []string{"1", "2", "8"} {
		t.Setenv(EnvWorkers, workers)
		const n = 1000
		var counts [n]atomic.Int32
		if err := For(context.Background(), n, func(_, i int) error {
			counts[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%s: %v", workers, err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%s: item %d visited %d times", workers, i, c)
			}
		}
	}
}

// splitStreams derives one generator per item from a seeded base with
// rng.Split, as rule 2 of the package contract asks.
func splitStreams(seed uint64, n int) []*rng.RNG {
	base := rng.New(seed)
	out := make([]*rng.RNG, n)
	for i := range out {
		out[i] = base.Split()
	}
	return out
}

// TestMapBitIdenticalAcrossWorkerCounts is the determinism contract: the
// same computation, including per-item RNG streams, must produce
// bit-for-bit equal output for every worker count. Run with -race it
// also exercises the pool's synchronization.
func TestMapBitIdenticalAcrossWorkerCounts(t *testing.T) {
	const n = 257
	compute := func(workers string) []float64 {
		t.Setenv(EnvWorkers, workers)
		streams := splitStreams(42, n)
		out, err := Map(context.Background(), n, func(_, i int) (float64, error) {
			r := streams[i]
			v := 0.0
			for k := 0; k < 100; k++ {
				v += r.NormFloat64() * float64(i+1)
			}
			return v, nil
		})
		if err != nil {
			t.Fatalf("workers=%s: %v", workers, err)
		}
		return out
	}
	want := compute("1")
	for _, workers := range []string{"2", "4", "16"} {
		got := compute(workers)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%s: item %d = %v, want %v (bit-identity broken)", workers, i, got[i], want[i])
			}
		}
	}
}

func TestForReturnsSmallestIndexError(t *testing.T) {
	for _, workers := range []string{"1", "8"} {
		t.Setenv(EnvWorkers, workers)
		err := For(context.Background(), 100, func(_, i int) error {
			if i%30 == 7 { // items 7, 37, 67, 97 fail
				return fmt.Errorf("item %d failed", i)
			}
			return nil
		})
		if err == nil {
			t.Fatalf("workers=%s: no error", workers)
		}
		// Workers race past higher failing indices, but the reported
		// error must be the smallest failing index that was reached;
		// with sequential execution that is always item 7. With many
		// workers the contract is only "some failing item's error",
		// smallest among those that ran — item 7 is always dispatched
		// before the pool can drain 100 items, so accept 7 only.
		if want := "item 7 failed"; err.Error() != want && workers == "1" {
			t.Fatalf("workers=%s: err = %q, want %q", workers, err, want)
		}
	}
}

func TestForCancellation(t *testing.T) {
	for _, workers := range []string{"1", "4"} {
		t.Setenv(EnvWorkers, workers)
		ctx, cancel := context.WithCancel(context.Background())
		var started atomic.Int32
		done := make(chan error, 1)
		go func() {
			done <- For(ctx, 1_000_000, func(_, i int) error {
				if started.Add(1) == 3 {
					cancel()
				}
				time.Sleep(50 * time.Microsecond)
				return nil
			})
		}()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%s: err = %v, want context.Canceled", workers, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("workers=%s: For did not return promptly after cancel", workers)
		}
		if n := started.Load(); n >= 1_000_000 {
			t.Fatalf("workers=%s: cancellation did not skip remaining items", workers)
		}
		cancel()
	}
}

func TestForPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := For(ctx, 10, func(_, i int) error { ran = true; return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("fn ran under a pre-cancelled context")
	}
}

// TestForNestedSharesOneBudget checks that nested For calls stay
// correct (every inner item visited exactly once) and release the
// shared extra-worker budget when done.
func TestForNestedSharesOneBudget(t *testing.T) {
	t.Setenv(EnvWorkers, "4")
	const outer, inner = 8, 200
	var counts [outer][inner]atomic.Int32
	err := For(context.Background(), outer, func(_, i int) error {
		return For(context.Background(), inner, func(_, j int) error {
			counts[i][j].Add(1)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		for j := range counts[i] {
			if c := counts[i][j].Load(); c != 1 {
				t.Fatalf("item (%d,%d) visited %d times", i, j, c)
			}
		}
	}
	if got := active.Load(); got != 0 {
		t.Fatalf("extra-worker budget not released: active = %d", got)
	}
}

func TestForZeroItems(t *testing.T) {
	if err := For(context.Background(), 0, func(_, i int) error {
		t.Fatal("fn called for n=0")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamsIndependentOfConsumptionOrder(t *testing.T) {
	// Drawing from stream 3 then stream 0 gives the same values as the
	// reverse order: the streams share no state.
	a, b := splitStreams(7, 4), splitStreams(7, 4)
	a3, a0 := a[3].Uint64(), a[0].Uint64()
	b0, b3 := b[0].Uint64(), b[3].Uint64()
	if a3 != b3 || a0 != b0 {
		t.Fatal("stream values depend on consumption order")
	}
}

func TestMapCollectsInOrder(t *testing.T) {
	t.Setenv(EnvWorkers, "8")
	out, err := Map(context.Background(), 50, func(_, i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

// TestForWorkerPanicReachesCaller panics in an item that runs on an
// extra worker: the panic must come back to For's caller, where a
// recover catches it, after every worker has stopped and the budget is
// released.
func TestForWorkerPanicReachesCaller(t *testing.T) {
	t.Setenv(EnvWorkers, "2")
	onWorker1 := make(chan struct{})
	var p any
	func() {
		defer func() { p = recover() }()
		_ = For(context.Background(), 2, func(worker, i int) error {
			if worker == 1 {
				close(onWorker1)
				panic("item bug")
			}
			// Hold the caller's item until worker 1 has taken the other.
			select {
			case <-onWorker1:
			case <-time.After(5 * time.Second):
			}
			return nil
		})
	}()
	wp, ok := p.(*WorkerPanic)
	if !ok {
		t.Fatalf("recovered %v (%T), want a *WorkerPanic", p, p)
	}
	if wp.Value != "item bug" || !strings.Contains(wp.Error(), "TestForWorkerPanicReachesCaller") {
		t.Fatalf("panic %q lost its value or the worker's stack:\n%s", wp.Value, wp.Error())
	}
	if got := active.Load(); got != 0 {
		t.Fatalf("extra-worker budget not released: active = %d", got)
	}
}
