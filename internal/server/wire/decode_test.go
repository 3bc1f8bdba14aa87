package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unicode"
)

// decodeStrict is the reference decoder the hand-written one is held
// to: encoding/json with DisallowUnknownFields, which is what served
// requests went through before. It checks for trailing data with More,
// which lets a stray '}' or ']' through; the hand-written decoder
// rejects those.
func decodeStrict[T any](r io.Reader) (T, error) {
	var v T
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		return v, fmt.Errorf("parsing request: %w", err)
	}
	if dec.More() {
		return v, errors.New("parsing request: trailing data after JSON value")
	}
	return v, nil
}

type canonical interface{ AppendCanonical([]byte) []byte }

// codec is one wire request type: its decoder, the reference decoder,
// two members for building bodies, one well typed and one not, and the
// canonical bytes of a decoded value with the value json.Marshal must
// reproduce them from — nil for a type whose bytes are neither keyed
// nor persisted.
type codec struct {
	name      string
	member    string
	mistyped  string
	decode    func(io.Reader) (any, error)
	oracle    func(io.Reader) (any, error)
	canonical func(v any) ([]byte, any)
}

func codecFor[T any](name, member, mistyped string, dec func(io.Reader) (T, error), canon func(*T) ([]byte, any)) codec {
	c := codec{
		name:     name,
		member:   member,
		mistyped: mistyped,
		decode:   func(r io.Reader) (any, error) { v, err := dec(r); return &v, err },
		oracle:   func(r io.Reader) (any, error) { v, err := decodeStrict[T](r); return &v, err },
	}
	if canon != nil {
		c.canonical = func(v any) ([]byte, any) { return canon(v.(*T)) }
	}
	return c
}

// appended is the canonical bytes of a request type that is keyed or
// persisted whole.
func appended[P canonical](v P) ([]byte, any) { return v.AppendCanonical(nil), v }

var codecs = []codec{
	codecFor("task", `"budget":1`, `"budget":"lots"`, DecodeTask, appended[*Task]),
	codecFor("rank", `"measure":"x"`, `"measure":1`, DecodeRank, appended[*RankRequest]),
	codecFor("assess", `"direction":"x"`, `"direction":[]`, DecodeAssess, appended[*AssessRequest]),
	codecFor("triage", `"measure":"x"`, `"claims":{}`, DecodeTriage, appended[*TriageRequest]),
	codecFor("dataset", `"name":"x"`, `"objects":"x"`, DecodeDataset, func(ds *Dataset) ([]byte, any) {
		return AppendObjects(nil, ds.Objects), ds.Objects // what a dataset ID hashes
	}),
	codecFor("session", `"budget":1`, `"budget":true`, DecodeSession, appended[*SessionRequest]),
	codecFor[CleanRequest]("clean", `"step":1`, `"step":1.5`, DecodeClean, nil),
}

func TestDecodeStrictness(t *testing.T) {
	cases := []struct {
		name string
		raw  func(c codec) string
	}{
		{"unknown field", func(c codec) string { return `{` + c.member + `, "frobnicate": 1}` }},
		{"trailing garbage", func(c codec) string { return `{` + c.member + `} {"more": true}` }},
		{"trailing brace", func(c codec) string { return `{` + c.member + `}}` }},
		{"trailing bracket", func(c codec) string { return `{` + c.member + `} ]` }},
		{"malformed", func(c codec) string { return `{` + c.member + `, "objects": [` }},
		{"wrong type", func(c codec) string { return `{` + c.mistyped + `}` }},
		{"not an object", func(c codec) string { return `[` + c.member + `]` }},
		{"empty", func(codec) string { return `` }},
		{"control byte in string", func(codec) string { return `{"name": "a` + "\n" + `b"}` }},
		{"leading zero", func(codec) string { return `{"step": 01}` }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, c := range codecs {
				if _, err := c.decode(strings.NewReader(tc.raw(c))); err == nil {
					t.Errorf("%s: bad payload %q accepted", c.name, tc.raw(c))
				}
			}
		})
	}
	for _, c := range codecs {
		if _, err := c.decode(strings.NewReader(" {" + c.member + "}\n\t ")); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

// TestDecodeRejectsRepeatedKeys pins the second tightening:
// encoding/json merges a repeated key into what the first occurrence
// decoded, so the result depended on slice capacity.
func TestDecodeRejectsRepeatedKeys(t *testing.T) {
	for _, raw := range []string{
		`{"objects":[{"name":"a","cost":5}],"objects":[{"name":"c"}]}`,
		`{"budget":1,"BUDGET":2}`,
		`{"objects":[{"name":"a","Name":"b"}]}`,
		`{"claim":{"coef":{"0":1,"0":2}}}`,
		`{"claim":{"coef":{"0":1,"\u0030":2}}}`,
		`{"perturbations":[{"sensibility":1,"sensibility":1}]}`,
	} {
		_, err := DecodeTask(strings.NewReader(raw))
		if err == nil || !strings.Contains(err.Error(), "repeated key") {
			t.Errorf("%s: err = %v, want a repeated-key error", raw, err)
		}
	}
	// Map keys compare exactly, so keys that differ in case are distinct.
	task, err := DecodeTask(strings.NewReader(`{"claim":{"coef":{"a":1,"A":2}}}`))
	if err != nil || len(task.Claim.Coef) != 2 {
		t.Fatalf("case-distinct map keys: %v, %v", task.Claim.Coef, err)
	}
}

// TestDecodeEscapedStringsAllocLinear holds the bytes one decode
// allocates to a small multiple of the body on a body of thousands of
// escaped names, as Python's json.dumps writes every non-ASCII name.
// Sizing each unescaped string by the rest of the body rather than by
// its own literal made allocation grow with the square of the body.
func TestDecodeEscapedStringsAllocLinear(t *testing.T) {
	var b strings.Builder
	b.WriteString(`{"objects":[`)
	for i := range 2000 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"name":"caf\u00e9 \u2014 site %04d","values":[1],"probs":[1]}`, i)
	}
	b.WriteString(`]}`)
	body := b.String()
	decodeOnce := func() {
		ds, err := DecodeDataset(strings.NewReader(body))
		if err != nil || len(ds.Objects) != 2000 || ds.Objects[7].Name != "café — site 0007" {
			t.Fatalf("decoded %d objects, err %v", len(ds.Objects), err)
		}
	}
	decodeOnce() // warm the body buffer pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decodeOnce()
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16*uint64(len(body)) {
		t.Fatalf("decoding a %d-byte body allocated %d bytes, want ≤ 16× the body", len(body), alloc)
	}
}

// TestDecodeOverLimit pins the third tightening: a body over its
// reader's limit is a body-limit error even when a complete value
// comes first, where encoding/json stopped reading after the value.
func TestDecodeOverLimit(t *testing.T) {
	body := `{"step":1}` + strings.Repeat(" ", 64)
	for _, c := range codecs {
		_, err := c.decode(limited([]byte(body), 32))
		var mbe *http.MaxBytesError
		if !errors.As(err, &mbe) {
			t.Errorf("%s: err = %v, want *http.MaxBytesError in the chain", c.name, err)
		}
	}
}

// limited wraps body in the same body limit the server applies.
func limited(body []byte, limit int64) io.Reader {
	return http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(body)), limit)
}

func isBodyLimit(err error) bool {
	var mbe *http.MaxBytesError
	return errors.As(err, &mbe)
}

// checkAgainstOracle decodes body with both decoders under the same
// limit and compares the outcomes: the accept/reject set, the error
// class (body limit or not), the decoded values bit for bit, and the
// canonical bytes against json.Marshal.
func checkAgainstOracle(t *testing.T, c codec, body []byte, limit int64) {
	t.Helper()
	got, err := c.decode(limited(body, limit))
	want, oerr := c.oracle(limited(body, limit))
	if int64(len(body)) > limit {
		if !isBodyLimit(err) {
			t.Fatalf("%s: over-limit body gave %v, want a body-limit error", c.name, err)
		}
		return
	}
	if isBodyLimit(err) || isBodyLimit(oerr) {
		t.Fatalf("%s: body-limit error under the limit: %v / %v", c.name, err, oerr)
	}
	tightened := trailingData(body) || repeatedKey(body)
	switch {
	case oerr != nil && err == nil:
		t.Fatalf("%s: accepted what encoding/json rejects (%v)", c.name, oerr)
	case oerr == nil && err != nil && !tightened:
		t.Fatalf("%s: rejected what encoding/json accepts: %v", c.name, err)
	case err != nil:
		return
	case tightened:
		t.Fatalf("%s: accepted trailing data or a repeated key", c.name)
	}
	if !sameBits(reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()) {
		t.Fatalf("%s: decoded\n%#v\nencoding/json decoded\n%#v", c.name, got, want)
	}
	if c.canonical == nil {
		return
	}
	canon, _ := c.canonical(got)
	_, wantValue := c.canonical(want)
	marshaled, merr := json.Marshal(wantValue)
	if merr != nil {
		t.Fatalf("%s: marshal: %v", c.name, merr)
	}
	if !bytes.Equal(canon, marshaled) {
		t.Fatalf("%s: canonical bytes\n%s\njson.Marshal\n%s", c.name, canon, marshaled)
	}
}

// trailingData reports whether anything but whitespace follows the
// first JSON value of body.
func trailingData(body []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	var raw json.RawMessage
	if dec.Decode(&raw) != nil {
		return false
	}
	return len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) > 0
}

// repeatedKey reports whether an object in the first JSON value of
// body repeats a key: exactly within a coef map, and case-insensitively
// elsewhere, where keys name struct fields.
func repeatedKey(body []byte) bool {
	type frame struct {
		object, exact, wantKey bool
		keys                   map[string]bool
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	var stack []*frame
	lastKey := ""
	valueDone := func() {
		if n := len(stack); n > 0 && stack[n-1].object {
			stack[n-1].wantKey = true
		}
	}
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		var top *frame
		if n := len(stack); n > 0 {
			top = stack[n-1]
		}
		switch tok := tok.(type) {
		case json.Delim:
			switch tok {
			case '{', '[':
				if top != nil && top.object {
					top.wantKey = false
				}
				stack = append(stack, &frame{
					object: tok == '{', exact: strings.EqualFold(lastKey, "coef"),
					wantKey: tok == '{', keys: map[string]bool{},
				})
			default:
				stack = stack[:len(stack)-1]
				if len(stack) == 0 {
					return false
				}
				valueDone()
			}
			lastKey = ""
		case string:
			if top != nil && top.object && top.wantKey {
				k := tok
				if !top.exact {
					k = foldKey(tok)
				}
				if top.keys[k] {
					return true
				}
				top.keys[k] = true
				top.wantKey = false
				lastKey = tok
				continue
			}
			valueDone()
		default:
			valueDone()
		}
		if len(stack) == 0 {
			return false
		}
	}
}

// foldKey maps s to a form equal for exactly the strings
// strings.EqualFold equates: encoding/json's own folding.
func foldKey(s string) string {
	var b strings.Builder
	for _, r := range s {
		b.WriteRune(unicode.ToUpper(unicode.ToLower(r)))
	}
	return b.String()
}

// sameBits reports whether a and b hold the same value bit for bit:
// floats by their bits, so -0 differs from 0, and slices, maps and
// pointers by nil-ness as well as by contents.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameBits(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := range a.Len() {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for it := a.MapRange(); it.Next(); {
			bv := b.MapIndex(it.Key())
			if !bv.IsValid() || !sameBits(it.Value(), bv) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := range a.NumField() {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	default:
		return a.Equal(b)
	}
}

// edgeBodies are hand-picked inputs at the edges of the accept set:
// case folding, null versus empty, escapes and surrogates, invalid
// UTF-8, number grammar and range, and the three tightenings.
var edgeBodies = []string{
	`null`,
	` {"BUDGET":2, "Objects":[{"NAME":"x","cUrReNt":1}]} `,
	`{"meaſure":"x","K":1}`,
	`{"objects":null,"perturbations":[],"claim":{"coef":{}}}`,
	`{"objects":[],"perturbations":null,"claim":{"coef":null}}`,
	`{"objects":[null,{"values":[null,1],"probs":[],"normal":null}]}`,
	`{"reference":null,"claim":null}`,
	`{"reference":0,"claim":{"name":"a\u0000\"\\\/\b\f\n\r\t"}}`,
	`{"claim":{"name":"😀 \ud800 \udc00x \ud800A \udbff\udfff \ud800\ud800 \uDBFF\uDFFF"}}`,
	"{\"claim\":{\"name\":\"\xff\xfe \xed\xa0\x80 \xf0\x9f\x98\x80 \u2028\u2029 <>&\"}}",
	"{\"claim\":{\"coef\":{\"\xff\":1,\"\xfe\":2}}}",
	`{"claim":{"coef":{"a":1,"A":2,"10":3,"2":4}}}`,
	`{"budget":-0,"tau":1e-6,"seed":18446744073709551615,"discretize":-0}`,
	`{"budget":9.999999999999999e-7,"tau":1e21,"objects":[{"values":[999999999999999900000,5e-324,2.2250738585072014e-308,1.7976931348623157e308]}]}`,
	`{"budget":1e400}`,
	`{"budget":1e-400,"tau":-1E-400}`,
	`{"seed":-1}`,
	`{"seed":18446744073709551616}`,
	`{"discretize":1.0}`,
	`{"discretize":1e2}`,
	`{"discretize":9223372036854775808}`,
	`{"budget":01}`,
	`{"budget":1.}`,
	`{"budget":.5}`,
	`{"budget":+1}`,
	`{"budget":1e}`,
	`{"budget":-}`,
	`{"budget":"1"}`,
	`{"budget":true}`,
	`{"budget":nul}`,
	`{"budget":1,}`,
	`{"objects":[1,]}`,
	`{"budget":1}}`,
	`{"budget":1} ]`,
	`{"budget":1} {}`,
	`{"budget":1}` + "\x00",
	`{"budget":1,"budget":2}`,
	`{"step":1,"STEP":1}`,
	`{"name":"a","objects":[]}`,
	`{"Problem":{}}`,
	`{"claims":[{"claim":{"name":"c"},"reference":1,"perturbations":[]},null]}`,
	"\ufeff{}",
	`{"claim":{"name":"\u12"}}`,
	`{"claim":{"name":"\x"}}`,
	`{"claim":{"name":"ab`,
	`[]`,
	`"x"`,
	``,
	`   `,
}

// perfbenchBodies reads the request bodies generated by the benchmark
// harness's own workload generators.
func perfbenchBodies(tb testing.TB) [][]byte {
	tb.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no perfbench bodies in testdata (%v)", err)
	}
	var out [][]byte
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// TestDecodeMatchesEncodingJSON runs the differential on the seed
// bodies under every request type, with room to spare and at a limit
// one byte short.
func TestDecodeMatchesEncodingJSON(t *testing.T) {
	bodies := perfbenchBodies(t)
	for _, s := range edgeBodies {
		bodies = append(bodies, []byte(s))
	}
	for _, c := range codecs {
		for _, b := range bodies {
			checkAgainstOracle(t, c, b, 1<<20)
			if len(b) > 0 {
				checkAgainstOracle(t, c, b, int64(len(b)-1))
			}
		}
	}
}

func FuzzWireDecode(f *testing.F) {
	for k := range codecs {
		for _, s := range edgeBodies {
			f.Add(uint8(k), uint16(1024), []byte(s))
		}
	}
	// Whole benchmark bodies cost milliseconds per run and would spend
	// the fuzzing budget minimizing; the fuzzer starts from the same
	// shapes cut down, and TestDecodeMatchesEncodingJSON runs them whole.
	for _, b := range perfbenchBodies(f) {
		for k := range codecs {
			f.Add(uint8(k), uint16(4096), shrink(f, b))
		}
	}
	f.Fuzz(func(t *testing.T, kind uint8, limit uint16, body []byte) {
		checkAgainstOracle(t, codecs[int(kind)%len(codecs)], body, int64(limit))
	})
}

// shrink cuts every array in a JSON document to its first three
// elements, keeping the number texts as they are.
func shrink(tb testing.TB, body []byte) []byte {
	tb.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		tb.Fatal(err)
	}
	var cut func(any) any
	cut = func(v any) any {
		switch v := v.(type) {
		case []any:
			v = v[:min(len(v), 3)]
			for i := range v {
				v[i] = cut(v[i])
			}
			return v
		case map[string]any:
			for k, e := range v {
				v[k] = cut(e)
			}
		}
		return v
	}
	out, err := json.Marshal(cut(v))
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// TestAppendCanonicalMatchesMarshal compares the appenders with
// json.Marshal on generated values of every type whose canonical bytes
// are keyed or persisted, weighted toward what encoding/json treats
// specially: HTML characters, U+2028/U+2029, invalid UTF-8, control
// bytes, -0, subnormals, floats either side of the 1e-6 and 1e21 format
// cutoffs, nil versus empty slices and maps, and maps too large to sort
// on the stack.
func TestAppendCanonicalMatchesMarshal(t *testing.T) {
	g := valueGen{rand.New(rand.NewPCG(17, 29))}
	for i := range 3000 {
		objects := g.objects()
		for _, v := range []any{
			&Task{Problem: g.problem(), Measure: g.str(), Goal: g.str(), Algorithm: g.str(), Budget: g.float(), Tau: g.float(), Seed: g.seed()},
			&RankRequest{Problem: g.problem(), Measure: g.str()},
			&AssessRequest{Problem: g.problem()},
			&SessionRequest{Problem: g.problem(), Goal: g.str(), Budget: g.float(), Tau: g.float()},
			&TriageRequest{Objects: g.objects(), DatasetID: g.str(), Measure: g.str(), Discretize: g.int(), Claims: g.triageClaims()},
			objects,
		} {
			want, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			prefix := []byte("prefix")
			var got []byte
			if c, ok := v.(canonical); ok {
				got = c.AppendCanonical(prefix)
			} else {
				got = AppendObjects(prefix, objects)
			}
			if !bytes.Equal(got[len(prefix):], want) {
				t.Fatalf("value %d (%T):\nappended     %s\njson.Marshal %s", i, v, got[len(prefix):], want)
			}
		}
	}
}

type valueGen struct{ r *rand.Rand }

var (
	edgeFloats = []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1e-7, 123456789, 1e20, 3.0000000000000004,
		1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), -1e-6, -math.Nextafter(1e-6, 0),
		1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), -1e21, -math.Nextafter(1e21, 0),
		5e-324, -5e-324, 2.2250738585072014e-308, math.Nextafter(2.2250738585072014e-308, 0),
		math.MaxFloat64, -math.MaxFloat64, 1e-100, 1e100, 1.5e-9, 2.5e-10,
		1 << 53, 1<<53 - 1, 1<<53 + 2, -(1 << 53), -(1<<53 - 1), 1e15, 1e16, 9007199254740993,
		1 << 63, -(1 << 63), 1 << 64, 57, -57, 0.5, -0.5, 1e20 + 65536,
	}
	edgeStrings = []string{
		"", "a", "name", "<b>&</b>", "\u2028", "x\u2029y", "\xff", "a\xc3", "\xed\xa0\x80",
		"é", "😀", "\"quoted\\", "\x00\x01\x1f", "\b\f\n\r\t", "\x7f", "ſK", "\ufffd", "/",
	}
)

func (g valueGen) float() float64 {
	switch g.r.IntN(5) {
	case 0:
		return 0
	case 1:
		for {
			if f := math.Float64frombits(g.r.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
	case 2:
		return (g.r.Float64() - 0.5) * math.Pow(10, float64(g.r.IntN(60)-30))
	case 3:
		if g.r.IntN(2) == 0 {
			return math.Trunc((g.r.Float64() - 0.5) * math.Pow(2, float64(g.r.IntN(70))))
		}
	}
	return edgeFloats[g.r.IntN(len(edgeFloats))]
}

func (g valueGen) str() string {
	switch g.r.IntN(4) {
	case 0:
		return ""
	case 1:
		b := make([]byte, g.r.IntN(8))
		for i := range b {
			b[i] = byte(g.r.UintN(256))
		}
		return string(b)
	}
	return edgeStrings[g.r.IntN(len(edgeStrings))] + edgeStrings[g.r.IntN(len(edgeStrings))]
}

func (g valueGen) int() int {
	if g.r.IntN(2) == 0 {
		return 0
	}
	return int(g.r.Int64()) >> g.r.IntN(64)
}

func (g valueGen) seed() uint64 {
	if g.r.IntN(2) == 0 {
		return 0
	}
	return g.r.Uint64() >> g.r.IntN(64)
}

func (g valueGen) floats() []float64 {
	switch g.r.IntN(3) {
	case 0:
		return nil
	case 1:
		return []float64{}
	}
	out := make([]float64, 1+g.r.IntN(6))
	for i := range out {
		out[i] = g.float()
	}
	return out
}

func (g valueGen) objects() []Object {
	switch g.r.IntN(4) {
	case 0:
		return nil
	case 1:
		return []Object{}
	}
	out := make([]Object, 1+g.r.IntN(4))
	for i := range out {
		out[i] = Object{Name: g.str(), Current: g.float(), Cost: g.float(), Values: g.floats(), Probs: g.floats()}
		if g.r.IntN(2) == 0 {
			out[i].Normal = &Normal{Mean: g.float(), Sigma: g.float()}
		}
	}
	return out
}

func (g valueGen) claim() Claim {
	c := Claim{Name: g.str(), Const: g.float()}
	switch g.r.IntN(4) {
	case 0:
	case 1:
		c.Coef = map[string]float64{}
	default:
		n := 1 + g.r.IntN(6)
		if g.r.IntN(4) == 0 {
			n = 17 + g.r.IntN(20) // past the stack sort buffer
		}
		c.Coef = make(map[string]float64, n)
		for range n {
			c.Coef[g.str()] = g.float()
		}
	}
	return c
}

func (g valueGen) reference() *float64 {
	if g.r.IntN(2) == 0 {
		return nil
	}
	f := g.float()
	return &f
}

func (g valueGen) perturbations() []Perturbation {
	switch g.r.IntN(3) {
	case 0:
		return nil
	case 1:
		return []Perturbation{}
	}
	out := make([]Perturbation, 1+g.r.IntN(3))
	for i := range out {
		out[i] = Perturbation{Claim: g.claim(), Sensibility: g.float()}
	}
	return out
}

func (g valueGen) problem() Problem {
	return Problem{
		Objects: g.objects(), DatasetID: g.str(), Claim: g.claim(), Direction: g.str(),
		Reference: g.reference(), Perturbations: g.perturbations(), Discretize: g.int(),
	}
}

func (g valueGen) triageClaims() []TriageClaim {
	switch g.r.IntN(3) {
	case 0:
		return nil
	case 1:
		return []TriageClaim{}
	}
	out := make([]TriageClaim, 1+g.r.IntN(3))
	for i := range out {
		out[i] = TriageClaim{Claim: g.claim(), Direction: g.str(), Reference: g.reference(), Perturbations: g.perturbations()}
	}
	return out
}

// maxprBody is a select_maxpr body from the benchmark's generator: 100
// objects with 6-point supports and 24 perturbations.
func maxprBody(tb testing.TB) []byte {
	tb.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "select_maxpr.json"))
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// TestDecodeTaskAllocs counts work rather than time: reflective
// encoding/json took 1,227 allocations on this body.
func TestDecodeTaskAllocs(t *testing.T) {
	body := maxprBody(t)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := DecodeTask(bytes.NewReader(body)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 500 {
		t.Fatalf("DecodeTask: %.0f allocs per run, want ≤ 500", allocs)
	}
}

func BenchmarkDecodeTask(b *testing.B) {
	body := maxprBody(b)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := DecodeTask(bytes.NewReader(body)); err != nil {
			b.Fatal(err)
		}
	}
}
