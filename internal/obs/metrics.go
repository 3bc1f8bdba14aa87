package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// A Counter is a monotonically increasing float64, safe for concurrent
// use. The zero value is ready; methods are nil-receiver safe so
// optional instrumentation points can hold a possibly-nil *Counter and
// tick unconditionally. Counters registered in a Registry are the same
// objects handed to the code that increments them — /metrics and any
// JSON view (like /healthz) read one source and can never disagree.
type Counter struct {
	bits atomic.Uint64 // float64 bits
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add accumulates d (negative deltas are ignored: counters only go up).
func (c *Counter) Add(d float64) {
	if c == nil || d < 0 || math.IsNaN(d) {
		return
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// vec is a family of metrics of one kind keyed by label values; With
// creates each child with newChild on first use.
type vec[T any] struct {
	labelNames []string
	newChild   func() T

	mu       sync.Mutex
	children map[string]*vecChild[T]
}

type vecChild[T any] struct {
	labelValues []string
	metric      T
}

const labelSep = "\x1f"

func labelKey(values []string) string { return strings.Join(values, labelSep) }

func newVec[T any](labelNames []string, newChild func() T) vec[T] {
	for _, l := range labelNames {
		if !validLabelName(l) {
			panic(fmt.Sprintf("obs: invalid label name %q", l))
		}
	}
	return vec[T]{
		labelNames: append([]string(nil), labelNames...),
		newChild:   newChild,
		children:   make(map[string]*vecChild[T]),
	}
}

// With returns the metric for the given label values, creating it on
// first use. The number of values must match the vec's label names.
func (v *vec[T]) With(values ...string) T {
	if len(values) != len(v.labelNames) {
		panic(fmt.Sprintf("obs: %d label values for %d labels %v", len(values), len(v.labelNames), v.labelNames))
	}
	key := labelKey(values)
	v.mu.Lock()
	defer v.mu.Unlock()
	child, ok := v.children[key]
	if !ok {
		child = &vecChild[T]{labelValues: append([]string(nil), values...), metric: v.newChild()}
		v.children[key] = child
	}
	return child.metric
}

// sortedChildren returns the children ordered by label values, for
// deterministic exposition.
func (v *vec[T]) sortedChildren() []*vecChild[T] {
	v.mu.Lock()
	out := make([]*vecChild[T], 0, len(v.children))
	for _, child := range v.children {
		out = append(out, child)
	}
	v.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		return labelKey(out[i].labelValues) < labelKey(out[j].labelValues)
	})
	return out
}

// A CounterVec is a family of Counters keyed by label values.
type CounterVec struct{ vec[*Counter] }

// Total returns the sum over every child counter.
func (v *CounterVec) Total() float64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	var sum float64
	for _, child := range v.children {
		sum += child.metric.Value()
	}
	return sum
}

// DefLatencyBuckets are the fixed upper bounds (seconds) of the
// request-latency histograms: half a millisecond through ten seconds,
// roughly logarithmic.
var DefLatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// A Histogram counts observations into fixed buckets (cumulative on
// exposition, per the Prometheus histogram contract) and tracks their
// sum. Observations and snapshots are mutex-guarded, so a scrape sees a
// consistent (counts, sum) pair.
type Histogram struct {
	bounds []float64 // ascending finite upper bounds

	mu     sync.Mutex
	counts []uint64 // len(bounds)+1; last bucket is +Inf
	sum    float64
}

func newHistogram(buckets []float64) *Histogram {
	bounds := append([]float64(nil), buckets...)
	sort.Float64s(bounds)
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v: its bucket
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.mu.Unlock()
}

// HistogramSnapshot is one consistent view of a histogram: cumulative
// bucket counts aligned with Bounds plus the +Inf bucket at the end.
type HistogramSnapshot struct {
	Bounds     []float64
	Cumulative []uint64 // len(Bounds)+1, non-decreasing; last is Count
	Count      uint64
	Sum        float64
}

// Snapshot returns the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	counts := append([]uint64(nil), h.counts...)
	sum := h.sum
	h.mu.Unlock()
	var running uint64
	for i := range counts {
		running += counts[i]
		counts[i] = running
	}
	return HistogramSnapshot{Bounds: h.bounds, Cumulative: counts, Count: running, Sum: sum}
}

// A HistogramVec is a family of Histograms keyed by label values.
type HistogramVec struct{ vec[*Histogram] }

type familyKind int

const (
	counterKind familyKind = iota
	counterVecKind
	gaugeKind
	histogramVecKind
)

type family struct {
	name, help string
	kind       familyKind

	counter *Counter
	vec     *CounterVec
	gauge   func() float64
	histVec *HistogramVec
}

// A Registry holds named metric families and renders them in the
// Prometheus text exposition format (version 0.0.4). It is an
// http.Handler, so `mux.Handle("GET /metrics", registry)` is the whole
// endpoint. Registration happens at construction time; rendering is
// safe concurrently with metric updates, each family snapshotted
// consistently.
type Registry struct {
	mu     sync.Mutex
	byName map[string]*family
}

// NewRegistry returns an empty Registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

func (r *Registry) register(f *family) {
	if !validMetricName(f.name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", f.name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[f.name]; dup {
		panic(fmt.Sprintf("obs: metric %q registered twice", f.name))
	}
	r.byName[f.name] = f
}

// Counter registers and returns a label-less counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(&family{name: name, help: help, kind: counterKind, counter: c})
	return c
}

// CounterVec registers and returns a labeled counter family. Labels
// are exposed in the order given here.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	v := &CounterVec{newVec(labelNames, func() *Counter { return &Counter{} })}
	r.register(&family{name: name, help: help, kind: counterVecKind, vec: v})
	return v
}

// GaugeFunc registers a gauge whose value is read by calling f at
// scrape time — the natural fit for instantaneous state someone else
// owns (cache entries, pool depth, snapshot age). f must be safe for
// concurrent use.
func (r *Registry) GaugeFunc(name, help string, f func() float64) {
	r.register(&family{name: name, help: help, kind: gaugeKind, gauge: f})
}

// HistogramVec registers and returns a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	bounds := append([]float64(nil), buckets...)
	sort.Float64s(bounds)
	v := &HistogramVec{newVec(labelNames, func() *Histogram { return newHistogram(bounds) })}
	r.register(&family{name: name, help: help, kind: histogramVecKind, histVec: v})
	return v
}

// WritePrometheus renders every registered family in the text
// exposition format, families sorted by name, label sets sorted within
// a family.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.byName))
	for _, f := range r.byName {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		writeFamily(&b, f)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// ServeHTTP makes a Registry the GET /metrics handler.
func (r *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := r.WritePrometheus(w); err != nil {
		// Headers are gone; nothing to do but drop the connection state.
		return
	}
}

func writeFamily(b *strings.Builder, f *family) {
	typ := "counter"
	switch f.kind {
	case gaugeKind:
		typ = "gauge"
	case histogramVecKind:
		typ = "histogram"
	}
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, typ)
	switch f.kind {
	case counterKind:
		fmt.Fprintf(b, "%s %s\n", f.name, formatValue(f.counter.Value()))
	case gaugeKind:
		fmt.Fprintf(b, "%s %s\n", f.name, formatValue(f.gauge()))
	case counterVecKind:
		for _, child := range f.vec.sortedChildren() {
			fmt.Fprintf(b, "%s%s %s\n", f.name,
				labelString(f.vec.labelNames, child.labelValues, "", ""),
				formatValue(child.metric.Value()))
		}
	case histogramVecKind:
		for _, child := range f.histVec.sortedChildren() {
			writeHistogram(b, f.name, f.histVec.labelNames, child.labelValues, child.metric.Snapshot())
		}
	}
}

func writeHistogram(b *strings.Builder, name string, labelNames, labelValues []string, s HistogramSnapshot) {
	for i, bound := range s.Bounds {
		fmt.Fprintf(b, "%s_bucket%s %d\n", name,
			labelString(labelNames, labelValues, "le", formatValue(bound)), s.Cumulative[i])
	}
	fmt.Fprintf(b, "%s_bucket%s %d\n", name,
		labelString(labelNames, labelValues, "le", "+Inf"), s.Count)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, labelString(labelNames, labelValues, "", ""), formatValue(s.Sum))
	fmt.Fprintf(b, "%s_count%s %d\n", name, labelString(labelNames, labelValues, "", ""), s.Count)
}

// labelString renders {a="x",b="y"} with an optional extra trailing
// label (the histogram `le`), or "" when there are no labels at all.
func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, n, escapeLabelValue(values[i]))
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, extraName, escapeLabelValue(extraValue))
	}
	b.WriteByte('}')
	return b.String()
}

func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func escapeLabelValue(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

func escapeHelp(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || s == "le" {
		return false // le is reserved for histogram buckets
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
