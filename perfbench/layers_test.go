package main

import (
	"math"
	"testing"
)

// TestTraceOverheadIgnoresRequestMix builds a session-like sample set:
// costly creates and cleans, traced or not at random, with no tracing
// cost at all, plus cheap deletes that are never traced. The overhead
// must read zero; pooling all untraced samples would let the deletes
// pull the baseline down and count the mix as overhead.
func TestTraceOverheadIgnoresRequestMix(t *testing.T) {
	var samples []sample
	for i := 0; i < 400; i++ {
		traced := i%3 != 0
		samples = append(samples,
			sample{kind: kindCreate, ms: 2 + float64(i%7)/10, traced: traced},
			sample{kind: kindClean, ms: 1 + float64(i%5)/10, traced: !traced},
			sample{kind: kindDelete, ms: 0.1})
	}
	if got := traceOverhead(samples); got != 0 {
		t.Fatalf("overhead %v with no tracing cost, want 0", got)
	}

	// A 10% cost on every traced request reads as 10%, deletes or not.
	for i := range samples {
		if samples[i].traced {
			samples[i].ms *= 1.1
		}
	}
	if got := traceOverhead(samples); math.Abs(got-0.1) > 1e-9 {
		t.Fatalf("overhead %v with a 10%% tracing cost, want 0.1", got)
	}
}

func TestTraceOverheadWithoutBaseline(t *testing.T) {
	only := []sample{{kind: kindSelect, ms: 5, traced: true}, {kind: kindDelete, ms: 1}}
	if got := traceOverhead(only); got != 0 {
		t.Fatalf("overhead %v with no kind seen both ways, want 0", got)
	}
}

// TestFacadeSelf checks that the root's self time is its facade span
// minus the layer calls of its replay, not the harness's own time
// inside the replay span.
func TestFacadeSelf(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Op: 0, Layer: "cleansel", Name: "facade", Start: 0, End: 10e6},
		{ID: 1, Parent: -1, Op: 0, Layer: "cleansel", Name: "replay", Start: 11e6, End: 25e6},
		{ID: 2, Parent: 1, Op: 0, Layer: "ev", Name: "NewGroupEngine", Start: 12e6, End: 14e6},
		{ID: 3, Parent: 1, Op: 0, Layer: "core", Name: "SelectWithContext", Start: 14e6, End: 20e6},
		{ID: 4, Parent: 3, Op: 0, Layer: "ev", Name: "singleton_benefits", Start: 14e6, End: 16e6, Aggregate: true},
		{ID: 5, Parent: 1, Op: 0, Layer: "ev", Name: "EVCtx", Start: 20e6, End: 21e6},
		{ID: 6, Parent: -1, Op: 1, Layer: "session", Name: "create", Start: 30e6, End: 31e6},
	}
	// 10 ms of facade, 2+6+1 ms of layer calls in the replay; the
	// replay's 5 ms of its own time and the nested stage do not count.
	if got := facadeSelfMS(spans); math.Abs(got-1) > 1e-12 {
		t.Fatalf("facade self %v ms, want 1", got)
	}
}
