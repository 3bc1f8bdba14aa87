package dist

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/factcheck/cleansel/internal/rng"
)

// mixturePin is one opinion pool whose exact result
// testdata/mixture_pinned.txt records.
type mixturePin struct {
	name    string
	weights []float64
	comps   []*Discrete
}

// mixturePins returns the pinned pools: five hand-written shapes and a
// seeded sweep over five atom kinds (integers, dyadic fractions, plain
// fractions with round-off twins, ±1e12-wide atoms, and ±0 atoms),
// with zero and real weights, zero masses, and a few pools wide enough
// (more than 16 pooled atoms) for Discrete's indexed queries.
func mixturePins() []mixturePin {
	pins := []mixturePin{
		{
			name:    "integer pool with shared atoms",
			weights: []float64{1, 2, 0.5},
			comps: []*Discrete{
				UniformOver([]float64{1, 2, 3}),
				UniformOver([]float64{2, 3, 4}),
				UniformOver([]float64{0, 4}),
			},
		},
		{
			name:    "zero-weight component skipped",
			weights: []float64{1, 0},
			comps: []*Discrete{
				UniformOver([]float64{0.5, 1.25}),
				UniformOver([]float64{1e300, -1e300}),
			},
		},
		{
			name:    "wide integer pool",
			weights: []float64{1, 1},
			comps: []*Discrete{
				UniformOver([]float64{1e12, 3e12}),
				UniformOver([]float64{2e12, 3e12}),
			},
		},
		{
			name:    "non-dyadic pool",
			weights: []float64{1, 1},
			comps: []*Discrete{
				UniformOver([]float64{0.1, 0.7}),
				UniformOver([]float64{0.3}),
			},
		},
		{
			name:    "negative-zero atom",
			weights: []float64{1},
			comps:   []*Discrete{UniformOver([]float64{math.Copysign(0, -1), 1})},
		},
	}
	r := rng.New(2024)
	kinds := []string{"integer", "dyadic", "fractional", "wide", "zeros"}
	for i := 0; i < 60; i++ {
		kind := i % len(kinds)
		wide := i%12 >= 10 // two pools per kind with 20-atom components
		var seen []float64 // atoms drawn so far, for round-off twins
		atom := func() float64 {
			switch kind {
			case 0:
				return math.Round(r.Uniform(-20, 20))
			case 1:
				return math.Round(r.Uniform(-200, 200)) / float64(int64(1)<<r.Intn(8))
			case 2:
				if len(seen) > 0 && r.Intn(3) == 0 {
					x := seen[r.Intn(len(seen))]
					return x * (1 + 1e-15)
				}
				return r.Uniform(-10, 10)
			case 3:
				if r.Intn(2) == 0 {
					return math.Round(r.Uniform(-1e6, 1e6)) * 1e6
				}
				return r.Uniform(-1e12, 1e12)
			default:
				switch r.Intn(4) {
				case 0:
					return math.Copysign(0, -1)
				case 1:
					return 0
				}
				return math.Round(r.Uniform(-3, 3))
			}
		}
		nComps := 1 + r.Intn(4)
		pin := mixturePin{name: fmt.Sprintf("%s-%d", kinds[kind], i)}
		positive := false
		for c := 0; c < nComps; c++ {
			size := 1 + r.Intn(6)
			if wide {
				size = 20
			}
			vals := make([]float64, size)
			probs := make([]float64, size)
			for j := range vals {
				vals[j] = atom()
				seen = append(seen, vals[j])
				if r.Intn(8) > 0 {
					probs[j] = r.Uniform(0.05, 1)
				}
			}
			probs[r.Intn(size)] = r.Uniform(0.05, 1)
			d, err := NewDiscrete(vals, probs)
			if err != nil {
				panic(err)
			}
			w := 0.0
			switch r.Intn(4) {
			case 0: // zero weight
			case 1:
				w = float64(1 + r.Intn(3))
			default:
				w = r.Uniform(0.1, 3)
			}
			if c == nComps-1 && !positive && w == 0 {
				w = 1
			}
			positive = positive || w > 0
			pin.comps = append(pin.comps, d)
			pin.weights = append(pin.weights, w)
		}
		pins = append(pins, pin)
	}
	return pins
}

// renderPin pools one pin and renders the result with every float in
// exact hexadecimal: one "atom value mass Prob(value)" line per pooled
// atom, then one "prob x Prob(x)" line per component atom x that is
// not, bit for bit, a pooled atom (a round-off twin merged into
// another atom, or the sign twin of a zero).
func renderPin(tb testing.TB, p mixturePin) string {
	tb.Helper()
	m, err := Mixture(p.comps, p.weights)
	if err != nil {
		tb.Fatalf("%s: %v", p.name, err)
	}
	hex := func(x float64) string { return strconv.FormatFloat(x, 'x', -1, 64) }
	var b strings.Builder
	fmt.Fprintf(&b, "pool %s\n", p.name)
	pooled := map[uint64]bool{}
	for j, v := range m.Values {
		pooled[math.Float64bits(v)] = true
		fmt.Fprintf(&b, "atom %s %s %s\n", hex(v), hex(m.Probs[j]), hex(m.Prob(v)))
	}
	for _, c := range p.comps {
		for _, x := range c.Values {
			if !pooled[math.Float64bits(x)] {
				fmt.Fprintf(&b, "prob %s %s\n", hex(x), hex(m.Prob(x)))
			}
		}
	}
	return b.String()
}

// TestMixturePinned compares Mixture's pooled laws with results recorded
// when Mixture still had a second, dense pooling kernel beside its map
// path: every value, mass and Prob query bit for bit. There is no
// update flag: a deliberate change rewrites the file and says why.
func TestMixturePinned(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "mixture_pinned.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, block := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n\n") {
		name, _, _ := strings.Cut(strings.TrimPrefix(block, "pool "), "\n")
		want[name] = block + "\n"
	}
	pins := mixturePins()
	if len(want) != len(pins) {
		t.Fatalf("file holds %d pools, the test builds %d", len(want), len(pins))
	}
	for _, p := range pins {
		t.Run(p.name, func(t *testing.T) {
			if got := renderPin(t, p); got != want[p.name] {
				t.Errorf("pool moved\n got:\n%s\nwant:\n%s", got, want[p.name])
			}
		})
	}
}
