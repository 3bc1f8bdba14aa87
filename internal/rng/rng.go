// Package rng provides a small, deterministic pseudo-random number
// generator used throughout the library.
//
// Experiments in the paper are defined over randomly generated value
// distributions, costs, and hidden ground truths. To make every figure
// reproducible bit-for-bit across runs and Go versions, we avoid math/rand
// (whose stream is not guaranteed stable across releases for all helpers)
// and implement a splitmix64 generator with the samplers we need.
package rng

import "math"

// RNG is a deterministic splitmix64 pseudo-random generator.
// It is not safe for concurrent use; derive per-goroutine streams
// with Split.
type RNG struct {
	state uint64
	// spare holds a cached standard normal variate from Box-Muller.
	spare    float64
	hasSpare bool
}

// New returns a generator seeded with seed.
func New(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Split derives an independent generator from r in a deterministic way.
// The i-th Split of a given RNG state is always the same stream.
func (r *RNG) Split() *RNG {
	return New(r.Uint64() ^ 0x9e3779b97f4a7c15)
}

// Uint64 returns the next 64 pseudo-random bits (splitmix64).
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	// 53 high-quality bits.
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Uniform returns a uniform value in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire-style rejection-free enough for our sizes: use modulo of a
	// 64-bit draw with rejection to remove bias.
	bound := uint64(n)
	threshold := -bound % bound // (2^64 - bound) % bound
	for {
		v := r.Uint64()
		if v >= threshold {
			return int(v % bound)
		}
	}
}

// IntRange returns a uniform integer in [lo, hi] inclusive.
func (r *RNG) IntRange(lo, hi int) int {
	if hi < lo {
		panic("rng: IntRange with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// NormFloat64 returns a standard normal variate (Box-Muller with caching).
func (r *RNG) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	m := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * m
	r.hasSpare = true
	return u * m
}

// Normal returns a normal variate with the given mean and standard deviation.
func (r *RNG) Normal(mean, sd float64) float64 {
	return mean + sd*r.NormFloat64()
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// SampleWithoutReplacement returns k distinct integers drawn uniformly from
// [lo, hi] inclusive. It panics if the range holds fewer than k integers.
func (r *RNG) SampleWithoutReplacement(lo, hi, k int) []int {
	n := hi - lo + 1
	if k > n {
		panic("rng: sample larger than population")
	}
	// Floyd's algorithm keeps memory O(k) even for huge ranges.
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := r.Intn(j + 1)
		if _, ok := chosen[t]; ok {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, lo+t)
	}
	// Shuffle so the order itself is uniform.
	for i := len(out) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}
