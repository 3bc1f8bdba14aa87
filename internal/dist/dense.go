package dist

import (
	"math"
	"sync"

	"github.com/factcheck/cleansel/internal/numeric"
)

// Dense-span convolution.
//
// Every convolution lives on a known uniform numeric.Grid, so whenever
// the working support is an integer lattice the merge's key-sorted
// layer (merge.go: one heap step per product) is a dense []float64 in
// disguise: cell index = (key − lo)/stride. The kernel here runs exactly
// that layout, and is used only when a pre-flight certificate
// (convLattice) proves the result is bit-identical to the merge:
//
//   - every atom the convolution adds — the offset and each fp product
//     weights[i]·v — is a multiple of a common dyadic stride d = 2^-shift
//     (the same dyadicShift test the exact-grid ladder already uses);
//   - one stride spans an exact integer number of grid cells ≥ 1
//     (numeric.Grid.CellsPerStride), so lattice order and key order agree
//     and distinct lattice points get distinct keys;
//   - every reachable partial sum, measured in strides on the actual
//     integer atoms (sumAbs below), stays inside float64's exact-integer
//     range both as a value (≤ 2^53 strides) and as a scaled key
//     (≤ 2^53 cells) — so every fp add the merge performs is exact,
//     merge-by-key coincides with merge-by-lattice-point, and the
//     first-seen value the merge keeps per key reconstructs bit-for-bit
//     as float64(units)·d.
//
// Under that certificate the dense pass visits source cells in ascending
// index order (= ascending key order, = the merge's source order) and
// atoms in slice order, so every float64 addition happens in the same
// sequence with the same operands as the merge's (key, i, j) order: the
// output Discrete is bit-identical, and the conv_ops/conv_atoms_merged
// trace counters tick identically. Anything that fails the certificate —
// non-dyadic values, a relative (scale < 1) grid, spans past the width
// caps, a −0.0 that the merge would preserve but value reconstruction
// cannot — falls back to the merge unchanged. FuzzDenseVsMap pins the
// equivalence. Pooling (Mixture) runs on a map only: it sits on no hot
// path.

// maxDenseWidth caps a dense span at 2^20 cells (8 MiB per float buffer):
// wider lattices fall back to the merge rather than committing
// unbounded memory to a sparse support.
const maxDenseWidth = 1 << 20

// maxDenseFanout bounds span width relative to the work the merge
// would do (the product state space of the convolution): a span more
// than 64× wider than the atom traffic is sparse territory where
// scanning cells loses to merging atoms.
const maxDenseFanout = 64

// denseScratch holds the reusable buffers of one dense convolution: the
// ping-pong probability spans, their occupancy masks, and the per-layer
// integer step table. Pooled so steady-state convolutions allocate
// nothing beyond the result Discrete; every cell is (re)initialized
// before it is read, so reuse cannot leak state between convolutions.
type denseScratch struct {
	probsA, probsB []float64
	seenA, seenB   []bool
	steps          []int64
}

var denseScratchPool = sync.Pool{New: func() any { return new(denseScratch) }}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func growInts(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

// gcd64 folds |b| into the running non-negative gcd a.
func gcd64(a, b int64) int64 {
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// convLattice is the certificate weightedSumLattice produces before the
// dense kernel may run: the common dyadic stride, the lattice step, the
// integer offset, and the exact final span width.
type convLattice struct {
	shift  int   // atoms are multiples of d = 2^-shift
	g      int64 // lattice step in strides: gcd of within-part atom deltas
	offInt int64 // offset in strides
	width  int   // final span cells: 1 + Σ_i (maxA_i − minA_i)/g
}

// weightedSumLattice checks the dense-kernel certificate for one
// convolution (see the package comment above for the conditions) and
// derives the span geometry from the already-validated reach — the
// allocation is exact, never speculative. Returns ok=false whenever any
// condition fails; the caller then takes the merge.
func weightedSumLattice(offset float64, weights []float64, parts []*Discrete, grid numeric.Grid, reach float64) (convLattice, bool) {
	if !grid.KeysExactWithin(reach) {
		return convLattice{}, false
	}
	// A −0.0 offset that survives to the output (no layer shifts it)
	// would reconstruct as +0.0; the merge keeps the exact −0.0 bits.
	if offset == 0 && math.Signbit(offset) {
		return convLattice{}, false
	}
	shift, ok := dyadicShift(offset)
	if !ok {
		return convLattice{}, false
	}
	states := 1
	for i, w := range weights {
		if w == 0 {
			continue
		}
		for _, v := range parts[i].Values {
			s, ok := dyadicShift(w * v)
			if !ok {
				return convLattice{}, false
			}
			if s > shift {
				shift = s
			}
		}
		// Saturating product: the bound below only needs to know
		// whether the state space dwarfs the span, not its exact size.
		if states <= maxDenseWidth*maxDenseFanout {
			states *= parts[i].Size()
		}
	}
	t, ok := grid.CellsPerStride(math.Ldexp(1, -shift))
	if !ok {
		return convLattice{}, false
	}
	// Integer atoms, lattice gcd, span extent, and the authoritative
	// exactness bound. KeysExactWithin above guarantees every product
	// below is far inside int64 before conversion; the integer sumAbs
	// check then certifies — on the actual atoms, immune to fp slop in
	// reach — that no reachable partial sum or key leaves the exact
	// range.
	pow2 := math.Ldexp(1, shift)
	offInt := int64(offset * pow2)
	sumAbs := offInt
	if sumAbs < 0 {
		sumAbs = -sumAbs
	}
	var g, span int64
	for i, w := range weights {
		if w == 0 {
			continue
		}
		first := int64(w * parts[i].Values[0] * pow2)
		minA, maxA := first, first
		for _, v := range parts[i].Values[1:] {
			a := int64(w * v * pow2)
			if a < minA {
				minA = a
			}
			if a > maxA {
				maxA = a
			}
			g = gcd64(g, a-first)
		}
		span += maxA - minA
		if -minA > maxA {
			sumAbs += -minA
		} else {
			sumAbs += maxA
		}
	}
	if sumAbs > maxExactInt/t {
		return convLattice{}, false
	}
	if g == 0 {
		g = 1
	}
	width := span/g + 1
	if width > maxDenseWidth || width > int64(maxDenseFanout)*int64(states) {
		return convLattice{}, false
	}
	return convLattice{shift: shift, g: g, offInt: offInt, width: int(width)}, true
}

// weightedSumDense is the dense twin of weightedSumMerge, run only under
// a convLattice certificate. Same layer structure, same visit order
// (source cells ascending = keys ascending, atoms in slice order), same
// fp operands — bit-identical output and trace counters.
func weightedSumDense(st *convStats, offset float64, weights []float64, parts []*Discrete, lat convLattice) (*Discrete, error) {
	sc := denseScratchPool.Get().(*denseScratch)
	cur := growFloats(sc.probsA, lat.width)
	next := growFloats(sc.probsB, lat.width)
	curSeen := growBools(sc.seenA, lat.width)
	nextSeen := growBools(sc.seenB, lat.width)
	pow2 := math.Ldexp(1, lat.shift)
	cur[0], curSeen[0] = 1, true
	curLo, curN := lat.offInt, 1
	for i, part := range parts {
		if weights[i] == 0 {
			continue
		}
		steps := growInts(sc.steps, part.Size())
		sc.steps = steps
		minA := int64(math.MaxInt64)
		for j, v := range part.Values {
			a := int64(weights[i] * v * pow2)
			steps[j] = a
			if a < minA {
				minA = a
			}
		}
		var maxStep int64
		for j := range steps {
			steps[j] = (steps[j] - minA) / lat.g
			if steps[j] > maxStep {
				maxStep = steps[j]
			}
		}
		destN := curN + int(maxStep)
		clear(next[:destN])
		clear(nextSeen[:destN])
		for m := 0; m < curN; m++ {
			if !curSeen[m] {
				continue
			}
			p := cur[m]
			for j, step := range steps {
				idx := m + int(step)
				if !nextSeen[idx] {
					nextSeen[idx] = true
				} else if st != nil {
					st.merged++
				}
				if st != nil {
					st.ops++
				}
				next[idx] += p * part.Probs[j]
			}
		}
		cur, next = next, cur
		curSeen, nextSeen = nextSeen, curSeen
		curLo += minA
		curN = destN
	}
	n := 0
	for m := 0; m < curN; m++ {
		if curSeen[m] {
			n++
		}
	}
	values := make([]float64, 0, n)
	probs := make([]float64, 0, n)
	d := math.Ldexp(1, -lat.shift)
	for m := 0; m < curN; m++ {
		if !curSeen[m] {
			continue
		}
		// Exact reconstruction of the first-seen sum the merge would
		// keep: the units fit 2^53, so float64(units)·d is the exact
		// lattice value, bit for bit.
		values = append(values, float64(curLo+int64(m)*lat.g)*d)
		probs = append(probs, cur[m])
	}
	sc.probsA, sc.probsB = cur, next
	sc.seenA, sc.seenB = curSeen, nextSeen
	denseScratchPool.Put(sc)
	return NewDiscrete(values, probs)
}
