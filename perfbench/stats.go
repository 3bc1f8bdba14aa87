package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// tailLadder lists the percentiles, in permille, that a tail latency may
// be reported at. latencySummary picks the highest rung that still has
// at least minBeyond samples above it, so the tail is never a single
// outlier and always names how many requests it rests on. The ladder
// stops at p95: on a shared 2-vCPU host, CPU steal of a few percent
// moved the p99 of a 0.2 ms session request by up to 60% between runs
// (quartile spread 0.26 over ten seeds), against 0.07 for its p95.
var tailLadder = []int{950, 900, 750, 500}

// minBeyond is the number of samples a tail percentile must leave
// beyond it. Twenty rather than ten: a burst of host contention a
// second or two long slows a few dozen of a run's requests, and a p95
// resting on ten of 220 solves moved with each burst (quartile spread
// 0.29 over ten seeds on select_maxpr).
const minBeyond = 20

// tailStat is one latency percentile with the sample counts it rests on.
type tailStat struct {
	Permille int     `json:"permille"`
	Value    float64 `json:"value_ms"`
	Samples  int     `json:"samples"`
	Beyond   int     `json:"beyond"`
}

// nearestRank returns the 1-based nearest-rank index of the permille-th
// percentile among n samples: the smallest rank r with r/n >= p/1000.
// Integer arithmetic keeps rungs such as 99.9 exact.
func nearestRank(n, permille int) int {
	r := (permille*n + 999) / 1000
	if r < 1 {
		r = 1
	}
	return r
}

// latencySummary returns the median and the tail of samples (in ms).
// Both come from one sorted copy by nearest rank, and the tail rung is
// never below the median's, so the tail can never read below p50.
func latencySummary(samples []float64) (p50 float64, tail tailStat) {
	n := len(samples)
	if n == 0 {
		return 0, tailStat{}
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	p50 = sorted[nearestRank(n, 500)-1]
	tail = tailStat{Permille: 500, Value: p50, Samples: n, Beyond: n - nearestRank(n, 500)}
	for _, pm := range tailLadder {
		r := nearestRank(n, pm)
		if n-r >= minBeyond {
			tail = tailStat{Permille: pm, Value: sorted[r-1], Samples: n, Beyond: n - r}
			break
		}
	}
	return p50, tail
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for none.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sliceRate cuts samples (in the order they were sent) into slices of
// equal request count and returns the median over the slices of each
// slice's ops per second of wall time. A slice's wall time runs from
// the previous slice's last answer to its own last answer, so the
// slices tile the timed phase. The median keeps a stall or a burst of
// host contention in a few slices from moving the whole run's rate, as
// it would move a rate taken over the whole phase. It returns 0 for no
// samples.
func sliceRate(samples []sample, slices int) float64 {
	n := len(samples)
	slices = min(slices, n)
	if slices < 1 {
		return 0
	}
	rates := make([]float64, slices)
	var from time.Duration
	for k := range rates {
		lo, hi := k*n/slices, (k+1)*n/slices
		ops := 0
		for _, s := range samples[lo:hi] {
			ops += s.ops
		}
		to := samples[hi-1].done
		rates[k] = share(float64(ops), (to - from).Seconds())
		from = to
	}
	return median(rates)
}

// share returns part/whole, or 0 when whole is not positive.
func share(part, whole float64) float64 {
	if whole <= 0 || math.IsNaN(whole) {
		return 0
	}
	return part / whole
}

// diagPercentiles are the percentiles, in permille, every run reports
// in its diagnostics: the tail ladder and p99.
var diagPercentiles = []int{500, 750, 900, 950, 990}

// diagnosticPercentiles returns the diagPercentiles of lat, by name.
func diagnosticPercentiles(lat []float64) map[string]float64 {
	sorted := append([]float64(nil), lat...)
	sort.Float64s(sorted)
	out := map[string]float64{}
	if len(sorted) == 0 {
		return out
	}
	for _, pm := range diagPercentiles {
		out[fmt.Sprintf("p%g", float64(pm)/10)] = sorted[nearestRank(len(sorted), pm)-1]
	}
	return out
}
