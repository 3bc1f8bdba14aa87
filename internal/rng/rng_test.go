package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSplitIndependentButDeterministic(t *testing.T) {
	a, b := New(7), New(7)
	sa, sb := a.Split(), b.Split()
	for i := 0; i < 100; i++ {
		if sa.Uint64() != sb.Uint64() {
			t.Fatalf("split streams diverged at step %d", i)
		}
	}
	// Parent and child streams should differ.
	p, c := New(7), New(7).Split()
	same := 0
	for i := 0; i < 100; i++ {
		if p.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("parent and split streams look identical (%d collisions)", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(1)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(3)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want about 0.5", mean)
	}
}

func TestIntnUniformity(t *testing.T) {
	r := New(5)
	const n, buckets = 120000, 6
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	want := float64(n) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Fatalf("bucket %d count %d too far from %v", b, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntRange(t *testing.T) {
	r := New(11)
	for i := 0; i < 1000; i++ {
		v := r.IntRange(3, 9)
		if v < 3 || v > 9 {
			t.Fatalf("IntRange out of bounds: %d", v)
		}
	}
	if got := r.IntRange(4, 4); got != 4 {
		t.Fatalf("degenerate IntRange = %d, want 4", got)
	}
}

func TestNormMoments(t *testing.T) {
	r := New(9)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Fatalf("normal mean = %v, want about 0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("normal variance = %v, want about 1", variance)
	}
}

func TestNormalAffine(t *testing.T) {
	r := New(13)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Normal(10, 2)
	}
	if mean := sum / n; math.Abs(mean-10) > 0.05 {
		t.Fatalf("Normal(10,2) mean = %v", mean)
	}
}

func TestPerm(t *testing.T) {
	r := New(17)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	r := New(19)
	for trial := 0; trial < 100; trial++ {
		s := r.SampleWithoutReplacement(1, 100, 6)
		if len(s) != 6 {
			t.Fatalf("sample size %d", len(s))
		}
		seen := map[int]bool{}
		for _, v := range s {
			if v < 1 || v > 100 || seen[v] {
				t.Fatalf("bad sample %v", s)
			}
			seen[v] = true
		}
	}
	// Exhaustive draw returns the whole population.
	s := r.SampleWithoutReplacement(5, 9, 5)
	seen := map[int]bool{}
	for _, v := range s {
		seen[v] = true
	}
	for v := 5; v <= 9; v++ {
		if !seen[v] {
			t.Fatalf("exhaustive sample missing %d: %v", v, s)
		}
	}
}

func TestSampleWithoutReplacementPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversized sample should panic")
		}
	}()
	New(1).SampleWithoutReplacement(1, 3, 4)
}

func TestUniform(t *testing.T) {
	r := New(29)
	for i := 0; i < 1000; i++ {
		v := r.Uniform(-2, 5)
		if v < -2 || v >= 5 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
}
