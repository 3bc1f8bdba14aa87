package wire

import (
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"
)

// The canonical encoding of a request is exactly the bytes json.Marshal
// produces for its decoded value: fields in declaration order (an
// embedded Problem's first), omitempty as encoding/json applies it, map
// keys sorted bytewise, encoding/json's string escaping and float
// formatting. Three things persist these bytes — CLEANSNP cache
// snapshot keys, ds_<sha256> dataset IDs (also dataset file names) and
// session snapshot specs — so a changed byte would turn a restored
// entry into a silent miss or give a re-upload a second ID. The
// appenders are written out by hand because reflection dominated the
// select path; TestAppendCanonicalMatchesMarshal and FuzzWireDecode
// pin them to json.Marshal. Every float must be finite, as every
// decoded one is: json.Marshal rejects NaN and ±Inf.

// AppendCanonical appends the canonical encoding of t to dst.
func (t *Task) AppendCanonical(dst []byte) []byte {
	dst = t.Problem.appendFields(append(dst, '{'))
	dst = appendStringField(dst, "measure", t.Measure)
	dst = appendStringField(dst, "goal", t.Goal)
	dst = appendStringField(dst, "algorithm", t.Algorithm)
	dst = appendFloat(appendKey(dst, "budget"), t.Budget)
	if t.Tau != 0 {
		dst = appendFloat(appendKey(dst, "tau"), t.Tau)
	}
	if t.Seed != 0 {
		dst = strconv.AppendUint(appendKey(dst, "seed"), t.Seed, 10)
	}
	return append(dst, '}')
}

// AppendCanonical appends the canonical encoding of r to dst.
func (r *RankRequest) AppendCanonical(dst []byte) []byte {
	dst = r.Problem.appendFields(append(dst, '{'))
	dst = appendStringField(dst, "measure", r.Measure)
	return append(dst, '}')
}

// AppendCanonical appends the canonical encoding of a to dst.
func (a *AssessRequest) AppendCanonical(dst []byte) []byte {
	return append(a.Problem.appendFields(append(dst, '{')), '}')
}

// AppendCanonical appends the canonical encoding of s to dst.
func (s *SessionRequest) AppendCanonical(dst []byte) []byte {
	dst = s.Problem.appendFields(append(dst, '{'))
	dst = appendStringField(dst, "goal", s.Goal)
	dst = appendFloat(appendKey(dst, "budget"), s.Budget)
	if s.Tau != 0 {
		dst = appendFloat(appendKey(dst, "tau"), s.Tau)
	}
	return append(dst, '}')
}

// AppendCanonical appends the canonical encoding of t to dst.
func (t *TriageRequest) AppendCanonical(dst []byte) []byte {
	dst = append(dst, '{')
	if len(t.Objects) > 0 {
		dst = AppendObjects(appendKey(dst, "objects"), t.Objects)
	}
	dst = appendStringField(dst, "dataset_id", t.DatasetID)
	dst = appendStringField(dst, "measure", t.Measure)
	if t.Discretize != 0 {
		dst = strconv.AppendInt(appendKey(dst, "discretize"), int64(t.Discretize), 10)
	}
	dst = appendKey(dst, "claims")
	if t.Claims == nil {
		return append(dst, "null}"...)
	}
	dst = append(dst, '[')
	for i := range t.Claims {
		c := &t.Claims[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = c.Claim.append(appendKey(append(dst, '{'), "claim"))
		dst = appendStringField(dst, "direction", c.Direction)
		if c.Reference != nil {
			dst = appendFloat(appendKey(dst, "reference"), *c.Reference)
		}
		dst = appendPerturbations(appendKey(dst, "perturbations"), c.Perturbations)
		dst = append(dst, '}')
	}
	return append(dst, "]}"...)
}

// AppendObjects appends the canonical encoding of an object list to
// dst: the bytes a dataset ID hashes.
func AppendObjects(dst []byte, objects []Object) []byte {
	if objects == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i := range objects {
		o := &objects[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(appendKey(append(dst, '{'), "name"), o.Name)
		dst = appendFloat(appendKey(dst, "current"), o.Current)
		dst = appendFloat(appendKey(dst, "cost"), o.Cost)
		if len(o.Values) > 0 {
			dst = appendFloats(appendKey(dst, "values"), o.Values)
		}
		if len(o.Probs) > 0 {
			dst = appendFloats(appendKey(dst, "probs"), o.Probs)
		}
		if o.Normal != nil {
			dst = appendFloat(appendKey(append(appendKey(dst, "normal"), '{'), "mean"), o.Normal.Mean)
			dst = append(appendFloat(appendKey(dst, "sigma"), o.Normal.Sigma), '}')
		}
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

// appendFields appends p's fields, each preceded by a comma unless it
// opens the object.
func (p *Problem) appendFields(dst []byte) []byte {
	if len(p.Objects) > 0 {
		dst = AppendObjects(appendKey(dst, "objects"), p.Objects)
	}
	dst = appendStringField(dst, "dataset_id", p.DatasetID)
	dst = p.Claim.append(appendKey(dst, "claim"))
	dst = appendStringField(dst, "direction", p.Direction)
	if p.Reference != nil {
		dst = appendFloat(appendKey(dst, "reference"), *p.Reference)
	}
	dst = appendPerturbations(appendKey(dst, "perturbations"), p.Perturbations)
	if p.Discretize != 0 {
		dst = strconv.AppendInt(appendKey(dst, "discretize"), int64(p.Discretize), 10)
	}
	return dst
}

func (c *Claim) append(dst []byte) []byte {
	dst = appendString(appendKey(append(dst, '{'), "name"), c.Name)
	if c.Const != 0 {
		dst = appendFloat(appendKey(dst, "const"), c.Const)
	}
	dst = appendKey(dst, "coef")
	if c.Coef == nil {
		return append(dst, "null}"...)
	}
	// Sorting in a stack array keeps the common small map allocation-free.
	var stack [16]string
	keys := stack[:0]
	for k := range c.Coef {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	dst = append(dst, '{')
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendFloat(append(appendString(dst, k), ':'), c.Coef[k])
	}
	return append(dst, "}}"...)
}

func appendPerturbations(dst []byte, ps []Perturbation) []byte {
	if ps == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i := range ps {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = ps[i].Claim.append(appendKey(append(dst, '{'), "claim"))
		dst = append(appendFloat(appendKey(dst, "sensibility"), ps[i].Sensibility), '}')
	}
	return append(dst, ']')
}

// appendKey appends `"key":`, after a comma unless the key opens its
// object — no value ends in '{', so the last byte tells.
func appendKey(dst []byte, key string) []byte {
	if dst[len(dst)-1] != '{' {
		dst = append(dst, ',')
	}
	dst = append(append(dst, '"'), key...)
	return append(dst, '"', ':')
}

// appendStringField appends an omitempty string field.
func appendStringField(dst []byte, key, s string) []byte {
	if s == "" {
		return dst
	}
	return appendString(appendKey(dst, key), s)
}

// appendString appends s as encoding/json quotes it. Strings that need
// an escape — a quote, backslash, control byte, '<', '>', '&', U+2028,
// U+2029 or invalid UTF-8 — are rare on the wire and go through
// json.Marshal itself.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && size == 1 || r == '\u2028' || r == '\u2029' {
				return appendMarshaled(dst, s)
			}
			i += size - 1
			continue
		}
		if c < ' ' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return appendMarshaled(dst, s)
		}
	}
	dst = append(append(dst, '"'), s...)
	return append(dst, '"')
}

func appendMarshaled(dst []byte, s string) []byte {
	b, _ := json.Marshal(s) // a string always marshals
	return append(dst, b...)
}

func appendFloats(dst []byte, fs []float64) []byte {
	dst = append(dst, '[')
	for i, f := range fs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendFloat(dst, f)
	}
	return append(dst, ']')
}

// appendFloat formats f as encoding/json does: the shortest
// round-tripping form, in 'f' format unless |f| < 1e-6 or |f| ≥ 1e21,
// which use 'e' with a two-digit negative exponent trimmed (e-09 →
// e-9). Most wire numbers (values, costs, currents) are integers:
// below 2^53 every integer is a float64, so the shortest form of an
// integral f there is all of its digits, and it formats as an int.
func appendFloat(dst []byte, f float64) []byte {
	//lint:allow floateq — an exact integrality test: int64(f) converts back to f only when f is integral
	if i := int64(f); float64(i) == f && -1<<53 < i && i < 1<<53 && (i != 0 || !math.Signbit(f)) {
		return strconv.AppendInt(dst, i, 10)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}
