package obs

import (
	"bufio"
	"fmt"
	"math"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// --- a small strict parser for the Prometheus text format, used by the
// roundtrip tests here and (via the exposition contract) mirrored by
// the server-level scrape tests. ---

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
	sampleRe     = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([^}]*)\})? (\S+)$`)
	labelPairRe  = regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"$`)
)

type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parseProm validates the overall shape of a text exposition — HELP
// then TYPE then samples per family, legal names, parseable values —
// and returns every sample. It fails the test on any malformed line.
func parseProm(t *testing.T, text string) (samples []promSample, types map[string]string) {
	t.Helper()
	types = make(map[string]string)
	helped := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if !metricNameRe.MatchString(parts[0]) {
				t.Fatalf("bad HELP name in %q", line)
			}
			helped[parts[0]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(parts) != 2 || !metricNameRe.MatchString(parts[0]) {
				t.Fatalf("bad TYPE line %q", line)
			}
			switch parts[1] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("unknown type %q in %q", parts[1], line)
			}
			if !helped[parts[0]] {
				t.Fatalf("TYPE before HELP for %s", parts[0])
			}
			if _, dup := types[parts[0]]; dup {
				t.Fatalf("duplicate TYPE for %s", parts[0])
			}
			types[parts[0]] = parts[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unexpected comment %q", line)
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed sample line %q", line)
		}
		name := m[1]
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if _, ok := types[name]; !ok {
			if _, ok := types[base]; !ok {
				t.Fatalf("sample %q before its TYPE", line)
			}
		}
		labels := map[string]string{}
		if m[3] != "" {
			for _, pair := range splitLabelPairs(t, m[3]) {
				lm := labelPairRe.FindStringSubmatch(pair)
				if lm == nil {
					t.Fatalf("malformed label pair %q in %q", pair, line)
				}
				if !labelNameRe.MatchString(lm[1]) {
					t.Fatalf("bad label name %q in %q", lm[1], line)
				}
				if _, dup := labels[lm[1]]; dup {
					t.Fatalf("duplicate label %q in %q", lm[1], line)
				}
				labels[lm[1]] = lm[2]
			}
		}
		var value float64
		if m[4] == "+Inf" {
			value = math.Inf(1)
		} else {
			v, err := strconv.ParseFloat(m[4], 64)
			if err != nil {
				t.Fatalf("bad value in %q: %v", line, err)
			}
			value = v
		}
		samples = append(samples, promSample{name: name, labels: labels, value: value})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return samples, types
}

func splitLabelPairs(t *testing.T, s string) []string {
	t.Helper()
	var out []string
	depth := false // inside quotes
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			depth = !depth
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	out = append(out, s[start:])
	return out
}

func findSample(samples []promSample, name string, labels map[string]string) (float64, bool) {
	for _, s := range samples {
		if s.name != name || len(s.labels) != len(labels) {
			continue
		}
		match := true
		for k, v := range labels {
			if s.labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return s.value, true
		}
	}
	return 0, false
}

func TestExpositionRoundtrip(t *testing.T) {
	reg := NewRegistry()
	total := reg.Counter("demo_total", "a scalar counter")
	vec := reg.CounterVec("demo_requests_total", "requests by endpoint and code", "endpoint", "code")
	reg.GaugeFunc("demo_depth", "a gauge", func() float64 { return 7 })
	hist := reg.HistogramVec("demo_seconds", "latency", []float64{0.01, 0.1, 1}, "endpoint")

	total.Add(3)
	vec.With("select", "200").Inc()
	vec.With("select", "200").Inc()
	vec.With("rank", "400").Inc()
	hist.With("select").Observe(0.05)
	hist.With("select").Observe(0.0001)
	hist.With("select").Observe(5)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	samples, types := parseProm(t, b.String())

	if types["demo_total"] != "counter" || types["demo_requests_total"] != "counter" ||
		types["demo_depth"] != "gauge" || types["demo_seconds"] != "histogram" {
		t.Fatalf("wrong types: %v", types)
	}
	if v, ok := findSample(samples, "demo_total", nil); !ok || v != 3 {
		t.Fatalf("demo_total = %v, %v", v, ok)
	}
	if v, ok := findSample(samples, "demo_requests_total", map[string]string{"endpoint": "select", "code": "200"}); !ok || v != 2 {
		t.Fatalf("select/200 = %v, %v", v, ok)
	}
	if v, ok := findSample(samples, "demo_depth", nil); !ok || v != 7 {
		t.Fatalf("demo_depth = %v, %v", v, ok)
	}
	if v, ok := findSample(samples, "demo_seconds_count", map[string]string{"endpoint": "select"}); !ok || v != 3 {
		t.Fatalf("histogram count = %v, %v", v, ok)
	}
	// Cumulative buckets must be non-decreasing and end at the count,
	// with the +Inf bucket present.
	var prev float64 = -1
	infSeen := false
	for _, le := range []string{"0.01", "0.1", "1", "+Inf"} {
		v, ok := findSample(samples, "demo_seconds_bucket", map[string]string{"endpoint": "select", "le": le})
		if !ok {
			t.Fatalf("missing bucket le=%s", le)
		}
		if v < prev {
			t.Fatalf("bucket le=%s decreased: %v < %v", le, v, prev)
		}
		prev = v
		if le == "+Inf" {
			infSeen = true
			if v != 3 {
				t.Fatalf("+Inf bucket = %v, want 3", v)
			}
		}
	}
	if !infSeen {
		t.Fatal("no +Inf bucket")
	}
	if v, ok := findSample(samples, "demo_seconds_sum", map[string]string{"endpoint": "select"}); !ok || math.Abs(v-5.0501) > 1e-9 {
		t.Fatalf("histogram sum = %v, %v", v, ok)
	}
}

func TestCounterSemantics(t *testing.T) {
	var c *Counter
	c.Inc() // nil-safe
	c.Add(3)
	if c.Value() != 0 {
		t.Fatal("nil counter must read 0")
	}
	c = &Counter{}
	c.Inc()
	c.Add(2.5)
	c.Add(-10) // ignored: counters are monotonic
	c.Add(math.NaN())
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
}

func TestVecLabelArity(t *testing.T) {
	reg := NewRegistry()
	vec := reg.CounterVec("v_total", "h", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("wrong arity must panic")
		}
	}()
	vec.With("only-one")
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dup_total", "h")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate name must panic")
		}
	}()
	reg.Counter("dup_total", "h")
}

func TestLabelValueEscaping(t *testing.T) {
	reg := NewRegistry()
	vec := reg.CounterVec("esc_total", "h", "path")
	vec.With("a\"b\\c\nd").Inc()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `esc_total{path="a\"b\\c\nd"} 1`
	if !strings.Contains(b.String(), want) {
		t.Fatalf("escaped sample %q not found in:\n%s", want, b.String())
	}
	// And the strict parser must still accept it.
	parseProm(t, b.String())
}

func TestRegistryServeHTTP(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("served_total", "h").Inc()
	rec := httptest.NewRecorder()
	reg.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") || !strings.Contains(ct, "0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "served_total 1") {
		t.Fatalf("body:\n%s", rec.Body.String())
	}
}

// TestConcurrentScrape hammers counters and histograms from many
// goroutines while scraping: the race detector (CI race job) verifies
// the synchronization, and each family must stay internally consistent.
func TestConcurrentScrape(t *testing.T) {
	reg := NewRegistry()
	vec := reg.CounterVec("cc_total", "h", "w")
	hist := reg.HistogramVec("cc_seconds", "h", []float64{0.5}, "w").With("0")
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := vec.With(fmt.Sprint(w % 2))
			for i := 0; i < perWorker; i++ {
				c.Inc()
				hist.Observe(float64(i%2) * 0.9)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var b strings.Builder
			if err := reg.WritePrometheus(&b); err != nil {
				t.Error(err)
				return
			}
			samples, _ := parseProm(t, b.String())
			if v, ok := findSample(samples, "cc_seconds_count", map[string]string{"w": "0"}); ok {
				if inf, ok2 := findSample(samples, "cc_seconds_bucket", map[string]string{"w": "0", "le": "+Inf"}); !ok2 || inf != v {
					t.Errorf("inconsistent histogram snapshot: count %v, +Inf %v", v, inf)
					return
				}
			}
		}
	}()
	wg.Wait()
	<-done
	if got := vec.Total(); got != workers*perWorker {
		t.Fatalf("total = %v, want %d", got, workers*perWorker)
	}
	if s := hist.Snapshot(); s.Count != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", s.Count, workers*perWorker)
	}
}
