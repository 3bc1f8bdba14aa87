package dist

import (
	"sync"

	"github.com/factcheck/cleansel/internal/numeric"
)

// Merge convolution.
//
// Every convolution runs here, on layers kept as parallel slices of
// first-seen values and masses in ascending grid-key order. No key is
// hashed and no layer is sorted: the order comes from monotonicity.
//
//   - Distinct keys of a layer mean strictly ascending values, because
//     Grid.Key is monotone: Key(x) ≤ Key(y) whenever x ≤ y.
//   - fl(a + c) is monotone in a for a fixed c, so for each support
//     index j of the next part the products vals[i] + w·v_j, i = 0, 1, …,
//     come out in ascending key order: one sorted stream per j.
//   - A binary heap merges the K streams by (key, source index i, support
//     index j). Equal keys leave the heap consecutively, so each output
//     key is one run of pops.
//
// That is the order in which the hashed-key convolution this kernel
// replaced adds products into each key: it visited source keys
// ascending, then support atoms in slice order. Every sum is formed from
// the same operands in the same sequence, so the first-seen value kept
// per key, every mass, the output order and the conv_ops and
// conv_atoms_merged counts are bit-identical to it. The hashed kernel
// survives in the tests as the reference the merge is pinned against.

// mergeHead is the next unconsumed product of one stream: stream j at
// source atom i yields s = vals[i] + w·v_j on grid key key.
type mergeHead struct {
	key  int64
	s    float64
	i, j int
}

// before is the merge order (key, i, j).
func (a *mergeHead) before(b *mergeHead) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	if a.i != b.i {
		return a.i < b.i
	}
	return a.j < b.j
}

// siftDown restores the heap order below h[m].
func siftDown(h []mergeHead, m int) {
	x := h[m]
	for {
		c := 2*m + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&x) {
			break
		}
		h[m] = h[c]
		m = c
	}
	h[m] = x
}

// mergeScratch holds the reusable buffers of one merge convolution: the
// ping-pong layer slices and the heap. Pooled so steady-state
// convolutions allocate little beyond the result Discrete; every slice
// is truncated before it is written, so reuse cannot leak state.
type mergeScratch struct {
	valsA, valsB   []float64
	probsA, probsB []float64
	heap           []mergeHead
}

var mergeScratchPool = sync.Pool{New: func() any { return new(mergeScratch) }}

// weightedSumMerge convolves offset + Σ_i weights[i]·parts[i] on grid,
// one layer per part with a nonzero weight.
func weightedSumMerge(st *convStats, grid numeric.Grid, offset float64, weights []float64, parts []*Discrete) (*Discrete, error) {
	sc := mergeScratchPool.Get().(*mergeScratch)
	vals := append(sc.valsA[:0], offset)
	probs := append(sc.probsA[:0], 1)
	next, nextProbs := sc.valsB, sc.probsB
	for i, part := range parts {
		if weights[i] == 0 {
			continue
		}
		next, nextProbs = mergeLayer(sc, grid, vals, probs, weights[i], part, next[:0], nextProbs[:0])
		if st != nil {
			ops := int64(len(vals)) * int64(part.Size())
			st.ops += ops
			st.merged += ops - int64(len(next))
		}
		vals, next = next, vals
		probs, nextProbs = nextProbs, probs
	}
	d, err := NewDiscrete(vals, probs)
	sc.valsA, sc.valsB = vals, next
	sc.probsA, sc.probsB = probs, nextProbs
	mergeScratchPool.Put(sc)
	return d, err
}

// mergeLayer convolves one layer (vals, probs) with w·part into out and
// outProbs, which it returns grown.
func mergeLayer(sc *mergeScratch, grid numeric.Grid, vals, probs []float64, w float64, part *Discrete, out, outProbs []float64) ([]float64, []float64) {
	if len(vals) == 0 {
		return out, outProbs
	}
	h := sc.heap[:0]
	for j, v := range part.Values {
		s := vals[0] + w*v
		h = append(h, mergeHead{key: grid.Key(s), s: s, j: j})
	}
	for m := len(h)/2 - 1; m >= 0; m-- {
		siftDown(h, m)
	}
	var lastKey int64
	for len(h) > 0 {
		top := &h[0]
		if n := len(out); n > 0 && top.key == lastKey {
			outProbs[n-1] += probs[top.i] * part.Probs[top.j]
		} else {
			// A fresh key accumulates from +0, as a missing map entry
			// did: 0 + x turns a −0 product into +0.
			out = append(out, top.s)
			outProbs = append(outProbs, 0)
			outProbs[n] += probs[top.i] * part.Probs[top.j]
			lastKey = top.key
		}
		if i := top.i + 1; i < len(vals) {
			s := vals[i] + w*part.Values[top.j]
			top.key, top.s, top.i = grid.Key(s), s, i
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
			if len(h) == 0 {
				break
			}
		}
		siftDown(h, 0)
	}
	sc.heap = h
	return out, outProbs
}
