package main

import (
	"math"
	"math/rand/v2"
	"testing"
	"time"
)

func TestNearestRank(t *testing.T) {
	for _, c := range []struct{ n, permille, want int }{
		{1, 500, 1},
		{10, 500, 5},
		{11, 500, 6},
		{1000, 999, 999},
		{1000, 990, 990},
		{160, 900, 144},
		{160, 950, 152},
	} {
		if got := nearestRank(c.n, c.permille); got != c.want {
			t.Errorf("nearestRank(%d, %d) = %d, want %d", c.n, c.permille, got, c.want)
		}
	}
}

// TestTailRung pins which percentile the tail reports for a given
// sample count: the highest rung with at least minBeyond (twenty)
// samples beyond it.
func TestTailRung(t *testing.T) {
	for _, c := range []struct{ n, permille, beyond int }{
		{40, 500, 20},
		{80, 750, 20},
		{199, 750, 49},
		{200, 900, 20},
		{286, 900, 28},
		{399, 900, 39},
		{400, 950, 20},
		{35002, 950, 1750},
	} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		_, tail := latencySummary(xs)
		if tail.Permille != c.permille || tail.Beyond != c.beyond || tail.Samples != c.n {
			t.Errorf("n=%d: tail %+v, want permille %d with %d beyond", c.n, tail, c.permille, c.beyond)
		}
		if tail.Beyond < minBeyond {
			t.Errorf("n=%d: tail rests on %d samples beyond it", c.n, tail.Beyond)
		}
		// Exactly tail.Beyond samples lie strictly above the tail.
		above := 0
		for _, x := range xs {
			if x > tail.Value {
				above++
			}
		}
		if above != tail.Beyond {
			t.Errorf("n=%d: %d samples above the tail, reported %d", c.n, above, tail.Beyond)
		}
	}
}

// TestTailNeverBelowMedian checks, over random samples with ties and
// heavy tails, that the tail is taken from the same samples as the
// median and never reads below it.
func TestTailNeverBelowMedian(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + r.IntN(400)
		xs := make([]float64, n)
		for i := range xs {
			switch r.IntN(3) {
			case 0:
				xs[i] = float64(r.IntN(5)) // ties
			case 1:
				xs[i] = r.ExpFloat64() * 100 // heavy tail
			default:
				xs[i] = 10 + r.NormFloat64()
			}
		}
		p50, tail := latencySummary(xs)
		if tail.Value < p50 {
			t.Fatalf("n=%d: tail %v below p50 %v", n, tail.Value, p50)
		}
		if tail.Samples != n {
			t.Fatalf("n=%d: tail reports %d samples", n, tail.Samples)
		}
		if n >= 2*minBeyond && tail.Beyond < minBeyond {
			t.Fatalf("n=%d: tail has only %d samples beyond it", n, tail.Beyond)
		}
	}
}

func TestLatencySummaryLeavesInputUnsorted(t *testing.T) {
	xs := []float64{3, 1, 2}
	latencySummary(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input reordered: %v", xs)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// paced returns n one-op samples answered every step, with the gaps
// listed in stall (sample index → extra wait before that answer).
func paced(n int, step time.Duration, stall map[int]time.Duration) []sample {
	out := make([]sample, n)
	var at time.Duration
	for i := range out {
		at += step + stall[i]
		out[i] = sample{ops: 1, done: at}
	}
	return out
}

func TestSliceRate(t *testing.T) {
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-9*want }
	steady := paced(100, 10*time.Millisecond, nil)
	if got := sliceRate(steady, 10); !near(got, 100) {
		t.Errorf("steady pace: %v ops/s, want 100", got)
	}
	// A one-second stall inside one slice of ten leaves the median
	// where it was, while the whole-phase rate halves.
	stalled := paced(100, 10*time.Millisecond, map[int]time.Duration{42: time.Second})
	if got := sliceRate(stalled, 10); !near(got, 100) {
		t.Errorf("one stalled slice: %v ops/s, want 100", got)
	}
	if whole := float64(len(stalled)) / stalled[len(stalled)-1].done.Seconds(); !near(whole, 50) {
		t.Errorf("whole-phase rate %v, want 50", whole)
	}
	// Ops weight a slice: a triage batch counts its claims.
	batches := paced(40, 100*time.Millisecond, nil)
	for i := range batches {
		batches[i].ops = 100
	}
	if got := sliceRate(batches, 4); !near(got, 1000) {
		t.Errorf("batches: %v ops/s, want 1000", got)
	}
	// More slices than samples: one slice per sample.
	if got := sliceRate(paced(3, 250*time.Millisecond, nil), 10); !near(got, 4) {
		t.Errorf("three samples: %v ops/s, want 4", got)
	}
	if got := sliceRate(nil, 10); got != 0 {
		t.Errorf("no samples: %v, want 0", got)
	}
}

// TestLoopResultAdd checks that parts of the timed phase served by
// separate daemons tile one phase: completion times shift by the wall
// time before them, and counts add up.
func TestLoopResultAdd(t *testing.T) {
	a := &loopResult{samples: paced(10, 10*time.Millisecond, nil), attempted: 10, wall: 100 * time.Millisecond}
	b := &loopResult{samples: paced(10, 10*time.Millisecond, nil), attempted: 11, failed: 1, errs: []string{"x"}, wall: 110 * time.Millisecond}
	var lr loopResult
	lr.add(a)
	lr.add(b)
	if len(lr.samples) != 20 || lr.attempted != 21 || lr.failed != 1 || len(lr.errs) != 1 || lr.wall != 210*time.Millisecond {
		t.Fatalf("merged %d samples, %d attempted, %d failed, %d errs, wall %v", len(lr.samples), lr.attempted, lr.failed, len(lr.errs), lr.wall)
	}
	for i, s := range lr.samples {
		if want := time.Duration(i+1) * 10 * time.Millisecond; s.done != want {
			t.Fatalf("sample %d done at %v, want %v", i, s.done, want)
		}
	}
	if got := sliceRate(lr.samples, 4); math.Abs(got-100) > 1e-9 {
		t.Errorf("rate over the merged phase %v, want 100", got)
	}
}
