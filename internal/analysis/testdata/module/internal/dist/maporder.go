package dist

// foldProbs mirrors the pre-fix WeightedSum hot loop: several source
// atoms can land on one destination key, so the += below sums in map
// iteration order.
func foldProbs(probs map[int64]float64) map[int64]float64 {
	next := map[int64]float64{}
	for k, p := range probs {
		next[k%7] += p * 0.5 // want maporder "accumulation inside range over map"
	}
	return next
}

// negEntropy mirrors the pre-fix entropy loop (h -= p·log p in map
// order).
func negEntropy(pmf map[int64]float64) float64 {
	var h float64
	for _, p := range pmf {
		h -= p // want maporder "accumulation inside range over map"
	}
	return h
}

func product(m map[int64]float64) float64 {
	r := 1.0
	for _, v := range m {
		r *= v // want maporder "accumulation inside range over map"
	}
	return r
}

func values(m map[int64]float64) []float64 {
	var out []float64
	for _, v := range m {
		out = append(out, v) // want maporder "append inside range over map"
	}
	return out
}

// sortedKeysExtraction is the first half of the sanctioned idiom: only
// the range key is appended, and the caller sorts before use.
func sortedKeysExtraction(m map[int64]float64) []int64 {
	keys := make([]int64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

// parseIDs mirrors the pre-fix claim decoder: "1" and "01" both parse to
// id 1, and whichever the randomized order visits last wins.
func parseIDs(coef map[string]float64) map[int]float64 {
	out := map[int]float64{}
	for key, v := range coef {
		out[len(key)] = v // want maporder "store inside range over map under an index other than the range key"
	}
	return out
}

// firstByValue stores into a slice under the range value, not the key:
// two keys with one value collide.
func firstByValue(m map[int64]int, owner []int64) {
	for k, v := range m {
		owner[v] = k // want maporder "store inside range over map under an index other than the range key"
	}
}

// keyedStores write one element per distinct key, so the iteration
// order cannot matter; a plain variable is not a store into a map, slice
// or array.
func keyedStores(m map[int64]float64) (map[int64]float64, bool) {
	out := make(map[int64]float64, len(m))
	nonEmpty := false
	for k, v := range m {
		out[k] = v
		(out)[(k)] = v
		nonEmpty = true
	}
	return out, nonEmpty
}

// intAccumulation is exact arithmetic; order cannot leak into the bits.
func intAccumulation(m map[int64]int64) int64 {
	var s int64
	for _, v := range m {
		s += v
	}
	return s
}
