package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"time"
)

// span is one call the traced replay timed: a call into a layer's
// public API, or a stage a layer reported through its obs.Recorder.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Op     int    `json:"op"`     // index of the request the call replays
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the replay began
	End    int64  `json:"end_ns"`
	// AllocBytes and Allocs are the runtime.MemStats deltas (TotalAlloc,
	// Mallocs) over the span, for spans opened with memory accounting.
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
	Allocs     uint64 `json:"allocs,omitempty"`
	// Aggregate marks a stage a layer reported as a total: its interval
	// is placed at its parent's start, after earlier aggregate siblings.
	Aggregate bool `json:"aggregate,omitempty"`

	memAcct          bool
	alloc0, mallocs0 uint64 // MemStats at begin, for memory-accounted spans
}

// spanLog keeps the replay's spans in memory until the run ends.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) now() int64 { return time.Since(l.t0).Nanoseconds() }

// begin opens a span and returns its id; with mem it also records the
// allocation deltas (a stop-the-world read at each end, so only for
// spans around whole calls).
func (l *spanLog) begin(op, parent int, layer, name string, mem bool) int {
	s := span{ID: len(l.spans), Parent: parent, Op: op, Layer: layer, Name: name, memAcct: mem}
	if mem {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		s.alloc0, s.mallocs0 = m.TotalAlloc, m.Mallocs
	}
	s.Start = l.now()
	l.spans = append(l.spans, s)
	return s.ID
}

// end closes span id.
func (l *spanLog) end(id int) {
	s := &l.spans[id]
	s.End = l.now()
	if s.memAcct {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		s.AllocBytes = m.TotalAlloc - s.alloc0
		s.Allocs = m.Mallocs - s.mallocs0
	}
}

// aggregate adds a child of parent for a stage total d that a layer
// reported without timestamps; consecutive aggregates are laid end to
// end from the parent's start, the order the layers run them in.
func (l *spanLog) aggregate(parent int, layer, name string, d time.Duration) {
	if d <= 0 {
		return
	}
	p := l.spans[parent]
	start := p.Start
	for _, s := range l.spans[parent+1:] {
		if s.Parent == parent && s.Aggregate && s.End > start {
			start = s.End
		}
	}
	l.spans = append(l.spans, span{
		ID: len(l.spans), Parent: parent, Op: p.Op, Layer: layer, Name: name,
		Start: start, End: start + d.Nanoseconds(), Aggregate: true,
	})
}

// selfTimes returns every span's self time: its duration minus the part
// of its interval that its children cover (overlapping children count
// once).
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		iv := make([][2]int64, 0, len(children[i]))
		for _, c := range children[i] {
			a, b := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if b > a {
				iv = append(iv, [2]int64{a, b})
			}
		}
		sort.Slice(iv, func(x, y int) bool { return iv[x][0] < iv[y][0] })
		var covered, reach int64
		reach = s.Start
		for _, v := range iv {
			if v[1] <= reach {
				continue
			}
			covered += v[1] - max(v[0], reach)
			reach = v[1]
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// write stores the spans as JSON lines, each with its self time.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	self := selfTimes(l.spans)
	for i, s := range l.spans {
		line := struct {
			span
			SelfNS int64 `json:"self_ns"`
		}{s, self[i]}
		if err := enc.Encode(line); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
