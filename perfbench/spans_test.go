package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 30},
		{ID: 2, Parent: 0, Start: 20, End: 50},  // overlaps span 1
		{ID: 3, Parent: 0, Start: 90, End: 120}, // clipped to the parent
		{ID: 4, Parent: 2, Start: 25, End: 45},  // grandchild: counts for span 2 only
		{ID: 5, Parent: -1, Start: 200, End: 260},
	}
	want := []int64{100 - 40 - 10, 20, 30 - 20, 30, 20, 60}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self %d, want %d", i, got[i], want[i])
		}
	}
}

func TestAggregateSpansLaidEndToEnd(t *testing.T) {
	l := newSpanLog()
	l.spans = append(l.spans, span{ID: 0, Parent: -1, Start: 1000, End: 5000})
	l.aggregate(0, "ev", "ev_state_init", 1500*time.Nanosecond)
	l.aggregate(0, "ev", "singleton_benefits", 500*time.Nanosecond)
	l.aggregate(0, "ev", "empty", 0)
	if len(l.spans) != 3 {
		t.Fatalf("got %d spans, want 3 (a zero total adds none)", len(l.spans))
	}
	if a, b := l.spans[1], l.spans[2]; a.Start != 1000 || a.End != 2500 || b.Start != 2500 || b.End != 3000 {
		t.Fatalf("aggregates at [%d,%d] and [%d,%d]", a.Start, a.End, b.Start, b.End)
	}
	if self := selfTimes(l.spans); self[0] != 4000-2000 {
		t.Fatalf("parent self %d, want 2000", self[0])
	}
}

func TestSpanMemoryAccounting(t *testing.T) {
	l := newSpanLog()
	s := l.begin(0, -1, "cleansel", "facade", true)
	sink = make([]byte, 1<<20)
	l.end(s)
	if got := l.spans[s]; got.AllocBytes < 1<<20 || got.Allocs < 1 || got.End < got.Start {
		t.Fatalf("span %+v missed a 1 MiB allocation", got)
	}
	plain := l.begin(0, -1, "core", "x", false)
	l.end(plain)
	if got := l.spans[plain]; got.AllocBytes != 0 || got.Allocs != 0 {
		t.Fatalf("unaccounted span reports allocations: %+v", got)
	}
}

var sink []byte
