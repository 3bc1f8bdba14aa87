package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
)

// Requests are decoded by hand rather than through encoding/json's
// reflection: one pass over one immutable copy of the body, with no
// per-token allocation. The accept set is encoding/json's with
// DisallowUnknownFields: field names match case-insensitively, null
// leaves a value at zero (and sets a slice, map or pointer to nil),
// numbers follow the JSON grammar and parse with strconv exactly as
// encoding/json parses them, and strings unescape to the same bytes.
// Three things encoding/json lets through are rejected: anything but
// whitespace after the value, an object that repeats a key, and a body
// over its reader's limit even when a complete value precedes the
// limit. FuzzWireDecode pins all of this against encoding/json.
//
// Decoded strings are substrings of the body copy where no unescaping
// was needed, so a decoded value kept past the request keeps that copy
// alive.

// MaxPooledBuffer caps the buffers the request codec and its callers
// keep for reuse, so one large request does not pin its buffer for the
// life of the process.
const MaxPooledBuffer = 1 << 20

var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readBody reads r to EOF and returns the bytes as one string. The
// bytes pass through a pooled buffer, so the string — which decoded
// values may alias, and which the pool never reuses — is the only
// allocation of a warm call.
func readBody(r io.Reader) (string, error) {
	buf := bodyBufs.Get().(*bytes.Buffer)
	buf.Reset()
	_, err := buf.ReadFrom(r)
	s := buf.String()
	if buf.Cap() <= MaxPooledBuffer {
		bodyBufs.Put(buf)
	}
	return s, err
}

// decode reads r and parses exactly one JSON value from it with parse.
// A read error stays in the returned error's chain, so a caller can
// tell an *http.MaxBytesError from a malformed body.
func decode[T any](r io.Reader, what string, parse func(*decoder, *T)) (T, error) {
	var v T
	s, err := readBody(r)
	if err != nil {
		return v, fmt.Errorf("parsing %s: %w", what, err)
	}
	d := decoder{s: s}
	parse(&d, &v)
	d.peek()
	if d.err == nil && d.i < len(d.s) {
		d.fail(fmt.Errorf("trailing data after JSON value (offset %d)", d.i))
	}
	if d.err != nil {
		var zero T
		return zero, fmt.Errorf("parsing %s: %w", what, d.err)
	}
	return v, nil
}

// DecodeTask parses a select task specification.
func DecodeTask(r io.Reader) (Task, error) { return decode(r, "request", (*decoder).task) }

// DecodeRank parses a rank request.
func DecodeRank(r io.Reader) (RankRequest, error) { return decode(r, "request", (*decoder).rank) }

// DecodeAssess parses an assess request.
func DecodeAssess(r io.Reader) (AssessRequest, error) {
	return decode(r, "request", (*decoder).assess)
}

// DecodeDataset parses a dataset upload.
func DecodeDataset(r io.Reader) (Dataset, error) { return decode(r, "request", (*decoder).dataset) }

// DecodeTriage parses a triage request.
func DecodeTriage(r io.Reader) (TriageRequest, error) {
	return decode(r, "request", (*decoder).triage)
}

// DecodeSession parses a session create request.
func DecodeSession(r io.Reader) (SessionRequest, error) {
	return decode(r, "request", (*decoder).session)
}

// DecodeClean parses a clean report.
func DecodeClean(r io.Reader) (CleanRequest, error) { return decode(r, "request", (*decoder).clean) }

// DecodeObjects parses an object list, the encoding AppendObjects
// writes.
func DecodeObjects(r io.Reader) ([]Object, error) {
	return decode(r, "objects", func(d *decoder, out *[]Object) { *out = d.objects() })
}

// JSON field names of the wire types, in declaration order.
var (
	objectFields       = []string{"name", "current", "cost", "values", "probs", "normal"}
	normalFields       = []string{"mean", "sigma"}
	claimFields        = []string{"name", "const", "coef"}
	perturbationFields = []string{"claim", "sensibility"}
	problemFields      = []string{"objects", "dataset_id", "claim", "direction", "reference", "perturbations", "discretize"}
	taskFields         = withProblem("measure", "goal", "algorithm", "budget", "tau", "seed")
	rankFields         = withProblem("measure")
	sessionFields      = withProblem("goal", "budget", "tau")
	triageClaimFields  = []string{"claim", "direction", "reference", "perturbations"}
	triageFields       = []string{"objects", "dataset_id", "measure", "discretize", "claims"}
	datasetFields      = []string{"name", "objects"}
	cleanFields        = []string{"step", "object", "value"}
)

// withProblem lists the fields of a struct that embeds Problem first.
func withProblem(own ...string) []string {
	return append(append([]string(nil), problemFields...), own...)
}

// decoder parses one request body. Errors are sticky: the first is
// kept in err, the read offset jumps to the end, and every later call
// returns a zero value, so the parse routines need no error plumbing.
type decoder struct {
	s     string    // the whole body
	i     int       // read offset into s
	err   error     // the first error
	field string    // the field being decoded, for error messages
	nums  []float64 // scratch for number arrays
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.i = len(d.s)
}

func (d *decoder) syntaxError(context string) {
	if d.i >= len(d.s) {
		d.fail(errors.New("unexpected end of JSON input"))
		return
	}
	d.fail(fmt.Errorf("invalid character %q %s (offset %d)", d.s[d.i], context, d.i))
}

// mismatch reports the value at the read offset, which starts with c,
// as not the want kind: a type error for a well-formed start, a syntax
// error otherwise.
func (d *decoder) mismatch(c byte, want string) {
	var got string
	switch {
	case c == '"':
		got = "string"
	case c == '{':
		got = "object"
	case c == '[':
		got = "array"
	case c == 't' || c == 'f':
		got = "bool"
	case c == '-' || isDigit(c):
		got = "number"
	default:
		d.syntaxError("looking for beginning of value")
		return
	}
	where := want
	if d.field != "" {
		where = fmt.Sprintf("%s field %q", want, d.field)
	}
	d.fail(fmt.Errorf("cannot decode %s into %s (offset %d)", got, where, d.i))
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// peek skips whitespace and returns the next byte, or 0 at the end.
func (d *decoder) peek() byte {
	for d.i < len(d.s) {
		switch c := d.s[d.i]; c {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return c
		}
	}
	return 0
}

// null consumes the null literal at the read offset.
func (d *decoder) null() {
	if !strings.HasPrefix(d.s[d.i:], "null") {
		d.syntaxError("in literal null")
		return
	}
	d.i += 4
}

// elem advances to the next element of an array whose '[' has been
// consumed, reporting false at the closing bracket or on error; n
// counts the elements seen so far.
func (d *decoder) elem(n *int) bool {
	c := d.peek()
	if *n == 0 {
		if c == ']' {
			d.i++
			return false
		}
	} else {
		switch c {
		case ',':
			d.i++
		case ']':
			d.i++
			return false
		default:
			d.syntaxError("after array element")
			return false
		}
	}
	*n++
	return d.err == nil
}

// key advances to the next member of an object whose '{' has been
// consumed and consumes its key and colon, reporting false at the
// closing brace or on error; n counts the members seen so far.
func (d *decoder) key(n *int) (string, bool) {
	c := d.peek()
	if *n == 0 {
		if c == '}' {
			d.i++
			return "", false
		}
	} else {
		switch c {
		case ',':
			d.i++
			c = d.peek()
		case '}':
			d.i++
			return "", false
		default:
			d.syntaxError("after object key:value pair")
			return "", false
		}
	}
	if c != '"' {
		d.syntaxError("looking for beginning of object key string")
		return "", false
	}
	k := d.str()
	if d.peek() != ':' {
		d.syntaxError("after object key")
		return "", false
	}
	d.i++
	*n++
	return k, d.err == nil
}

// fields walks the members of one JSON object decoded into a struct.
type fields struct {
	names []string // the struct's JSON field names
	n     int      // members read so far
	seen  uint32   // bit f is set once names[f] has been read
	name  string   // the current member's field name
}

// open starts decoding a struct with the given field names from the
// value at the read offset: it consumes '{' and reports true, or
// consumes null (which leaves the struct as it is) and reports false.
func (d *decoder) open(names []string) (fields, bool) {
	switch c := d.peek(); c {
	case '{':
		d.i++
		return fields{names: names}, true
	case 'n':
		d.null()
	default:
		d.mismatch(c, "object")
	}
	return fields{}, false
}

// next advances to the struct's next member, reporting false at the
// closing brace or on error. Keys match field names as encoding/json
// matches them — exactly, else case-insensitively — and an unknown or
// repeated field is an error.
func (d *decoder) next(fs *fields) bool {
	k, ok := d.key(&fs.n)
	if !ok {
		return false
	}
	f := fieldIndex(fs.names, k)
	switch {
	case f < 0:
		d.fail(fmt.Errorf("unknown field %q", k))
		return false
	case fs.seen&(1<<f) != 0:
		d.fail(fmt.Errorf("repeated key %q", k))
		return false
	}
	fs.seen |= 1 << f
	fs.name = fs.names[f]
	d.field = fs.name
	return true
}

func fieldIndex(names []string, key string) int {
	for f, name := range names {
		if name == key {
			return f
		}
	}
	for f, name := range names {
		if strings.EqualFold(name, key) {
			return f
		}
	}
	return -1
}

// str parses the string literal at the read offset, which holds '"'.
// A literal without escapes or invalid UTF-8 is returned as a
// substring of the body.
func (d *decoder) str() string {
	start := d.i + 1
	for j := start; j < len(d.s); j++ {
		c := d.s[j]
		switch {
		case c == '"':
			d.i = j + 1
			return d.s[start:j]
		case c == '\\' || c < ' ':
			return d.unquote(start)
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRuneInString(d.s[j:])
			if r == utf8.RuneError && size == 1 {
				return d.unquote(start)
			}
			j += size - 1
		}
	}
	d.i = len(d.s)
	d.syntaxError("in string literal")
	return ""
}

// unquote decodes the string literal whose contents start at start, as
// encoding/json does: escapes are resolved, a \u surrogate pair joins
// into one rune, and a lone surrogate or an invalid UTF-8 byte becomes
// U+FFFD. Control bytes are a syntax error.
func (d *decoder) unquote(start int) string {
	s := d.s
	b := make([]byte, 0, literalLen(s[start:]))
	for j := start; j < len(s); {
		c := s[j]
		switch {
		case c == '"':
			d.i = j + 1
			return string(b)
		case c < ' ':
			d.i = j
			d.syntaxError("in string literal")
			return ""
		case c == '\\':
			if j+1 >= len(s) {
				d.i = len(s)
				d.syntaxError("in string escape code")
				return ""
			}
			switch e := s[j+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := hex4(s[j:])
				if r < 0 {
					d.i = min(j+2, len(s))
					d.syntaxError("in \\u hexadecimal character escape")
					return ""
				}
				j += 6
				if utf16.IsSurrogate(r) {
					if pair := utf16.DecodeRune(r, hex4(s[j:])); pair != utf8.RuneError {
						b = utf8.AppendRune(b, pair)
						j += 6
						continue
					}
					r = utf8.RuneError
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				d.i = j + 1
				d.syntaxError("in string escape code")
				return ""
			}
			j += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			j++
		default:
			r, size := utf8.DecodeRuneInString(s[j:])
			b = utf8.AppendRune(b, r)
			j += size
		}
	}
	d.i = len(s)
	d.syntaxError("in string literal")
	return ""
}

// literalLen returns the length of the string literal contents at the
// start of s: the bytes before its closing quote, or all of s if it is
// unterminated. No escape unescapes to more bytes than it is written
// in, so this bounds the decoded length, short of invalid UTF-8 bytes
// growing into U+FFFD.
func literalLen(s string) int {
	for j := 0; j < len(s); j++ {
		switch s[j] {
		case '"':
			return j
		case '\\':
			j++
		}
	}
	return len(s)
}

// hex4 decodes the \uXXXX escape at the start of s, or returns -1.
func hex4(s string) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range []byte(s[2:6]) {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// number scans the JSON number at the read offset and returns its text.
func (d *decoder) number() string {
	s, i := d.s, d.i
	if i < len(s) && s[i] == '-' {
		i++
	}
	switch {
	case i < len(s) && s[i] == '0':
		i++
	case i < len(s) && '1' <= s[i] && s[i] <= '9':
		for i++; i < len(s) && isDigit(s[i]); i++ {
		}
	default:
		d.i = i
		d.syntaxError("in numeric literal")
		return ""
	}
	if i < len(s) && s[i] == '.' {
		i++
		if i >= len(s) || !isDigit(s[i]) {
			d.i = i
			d.syntaxError("after decimal point in numeric literal")
			return ""
		}
		for i++; i < len(s) && isDigit(s[i]); i++ {
		}
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		if i >= len(s) || !isDigit(s[i]) {
			d.i = i
			d.syntaxError("in exponent of numeric literal")
			return ""
		}
		for i++; i < len(s) && isDigit(s[i]); i++ {
		}
	}
	text := s[d.i:i]
	d.i = i
	return text
}

// numberText returns the text of the number at the read offset, or ""
// after consuming a null (or reporting a mismatch).
func (d *decoder) numberText(want string) string {
	switch c := d.peek(); {
	case c == '-' || isDigit(c):
		return d.number()
	case c == 'n':
		d.null()
	default:
		d.mismatch(c, want)
	}
	return ""
}

func (d *decoder) rangeError(text, kind string) {
	d.fail(fmt.Errorf("number %s does not fit %s field %q", text, kind, d.field))
}

func (d *decoder) float() float64 {
	text := d.numberText("number")
	if text == "" {
		return 0
	}
	f, err := strconv.ParseFloat(text, 64)
	if err != nil {
		d.rangeError(text, "float64")
		return 0
	}
	return f
}

func (d *decoder) int() int {
	text := d.numberText("integer")
	if text == "" {
		return 0
	}
	n, err := strconv.ParseInt(text, 10, 64)
	if err != nil || int64(int(n)) != n {
		d.rangeError(text, "int")
		return 0
	}
	return int(n)
}

func (d *decoder) uint64() uint64 {
	text := d.numberText("unsigned integer")
	if text == "" {
		return 0
	}
	n, err := strconv.ParseUint(text, 10, 64)
	if err != nil {
		d.rangeError(text, "uint64")
		return 0
	}
	return n
}

func (d *decoder) floatPtr() *float64 {
	if d.peek() == 'n' {
		d.null()
		return nil
	}
	f := d.float()
	if d.err != nil {
		return nil
	}
	return &f
}

func (d *decoder) string() string {
	switch c := d.peek(); c {
	case '"':
		return d.str()
	case 'n':
		d.null()
	default:
		d.mismatch(c, "string")
	}
	return ""
}

// array consumes the '[' of an array, or a null; ok reports an array.
func (d *decoder) array() (ok bool) {
	switch c := d.peek(); c {
	case '[':
		d.i++
		return true
	case 'n':
		d.null()
	default:
		d.mismatch(c, "array")
	}
	return false
}

// floats parses an array of numbers. The numbers collect in scratch
// first, so the result is one exactly sized allocation.
func (d *decoder) floats() []float64 {
	if !d.array() {
		return nil
	}
	nums := d.nums[:0]
	for n := 0; d.elem(&n); {
		nums = append(nums, d.float())
	}
	d.nums = nums
	if d.err != nil {
		return nil
	}
	return append(make([]float64, 0, len(nums)), nums...)
}

func (d *decoder) coef() map[string]float64 {
	switch c := d.peek(); c {
	case '{':
		d.i++
	case 'n':
		d.null()
		return nil
	default:
		d.mismatch(c, "object")
		return nil
	}
	m := map[string]float64{}
	for n := 0; ; {
		k, ok := d.key(&n)
		if !ok {
			return m
		}
		if _, dup := m[k]; dup {
			d.fail(fmt.Errorf("repeated key %q", k))
			return nil
		}
		m[k] = d.float()
	}
}

func (d *decoder) objects() []Object {
	if !d.array() {
		return nil
	}
	out := []Object{}
	for n := 0; d.elem(&n); {
		out = append(out, Object{})
		d.object(&out[len(out)-1])
	}
	return out
}

func (d *decoder) object(o *Object) {
	fs, ok := d.open(objectFields)
	for ok && d.next(&fs) {
		switch fs.name {
		case "name":
			o.Name = d.string()
		case "current":
			o.Current = d.float()
		case "cost":
			o.Cost = d.float()
		case "values":
			o.Values = d.floats()
		case "probs":
			o.Probs = d.floats()
		case "normal":
			o.Normal = d.normal()
		}
	}
}

func (d *decoder) normal() *Normal {
	fs, ok := d.open(normalFields)
	if !ok {
		return nil
	}
	n := new(Normal)
	for d.next(&fs) {
		switch fs.name {
		case "mean":
			n.Mean = d.float()
		case "sigma":
			n.Sigma = d.float()
		}
	}
	return n
}

func (d *decoder) claim(c *Claim) {
	fs, ok := d.open(claimFields)
	for ok && d.next(&fs) {
		switch fs.name {
		case "name":
			c.Name = d.string()
		case "const":
			c.Const = d.float()
		case "coef":
			c.Coef = d.coef()
		}
	}
}

func (d *decoder) perturbations() []Perturbation {
	if !d.array() {
		return nil
	}
	out := []Perturbation{}
	for n := 0; d.elem(&n); {
		out = append(out, Perturbation{})
		p := &out[len(out)-1]
		fs, ok := d.open(perturbationFields)
		for ok && d.next(&fs) {
			switch fs.name {
			case "claim":
				d.claim(&p.Claim)
			case "sensibility":
				p.Sensibility = d.float()
			}
		}
	}
	return out
}

// problemField decodes the value of the Problem field name, reporting
// false when name is not one.
func (d *decoder) problemField(p *Problem, name string) bool {
	switch name {
	case "objects":
		p.Objects = d.objects()
	case "dataset_id":
		p.DatasetID = d.string()
	case "claim":
		d.claim(&p.Claim)
	case "direction":
		p.Direction = d.string()
	case "reference":
		p.Reference = d.floatPtr()
	case "perturbations":
		p.Perturbations = d.perturbations()
	case "discretize":
		p.Discretize = d.int()
	default:
		return false
	}
	return true
}

func (d *decoder) task(t *Task) {
	fs, ok := d.open(taskFields)
	for ok && d.next(&fs) {
		if d.problemField(&t.Problem, fs.name) {
			continue
		}
		switch fs.name {
		case "measure":
			t.Measure = d.string()
		case "goal":
			t.Goal = d.string()
		case "algorithm":
			t.Algorithm = d.string()
		case "budget":
			t.Budget = d.float()
		case "tau":
			t.Tau = d.float()
		case "seed":
			t.Seed = d.uint64()
		}
	}
}

func (d *decoder) rank(r *RankRequest) {
	fs, ok := d.open(rankFields)
	for ok && d.next(&fs) {
		if !d.problemField(&r.Problem, fs.name) {
			r.Measure = d.string() // the one field of its own
		}
	}
}

func (d *decoder) assess(a *AssessRequest) {
	fs, ok := d.open(problemFields)
	for ok && d.next(&fs) {
		d.problemField(&a.Problem, fs.name)
	}
}

func (d *decoder) session(s *SessionRequest) {
	fs, ok := d.open(sessionFields)
	for ok && d.next(&fs) {
		if d.problemField(&s.Problem, fs.name) {
			continue
		}
		switch fs.name {
		case "goal":
			s.Goal = d.string()
		case "budget":
			s.Budget = d.float()
		case "tau":
			s.Tau = d.float()
		}
	}
}

func (d *decoder) triage(t *TriageRequest) {
	fs, ok := d.open(triageFields)
	for ok && d.next(&fs) {
		switch fs.name {
		case "objects":
			t.Objects = d.objects()
		case "dataset_id":
			t.DatasetID = d.string()
		case "measure":
			t.Measure = d.string()
		case "discretize":
			t.Discretize = d.int()
		case "claims":
			t.Claims = d.triageClaims()
		}
	}
}

func (d *decoder) triageClaims() []TriageClaim {
	if !d.array() {
		return nil
	}
	out := []TriageClaim{}
	for n := 0; d.elem(&n); {
		out = append(out, TriageClaim{})
		c := &out[len(out)-1]
		fs, ok := d.open(triageClaimFields)
		for ok && d.next(&fs) {
			switch fs.name {
			case "claim":
				d.claim(&c.Claim)
			case "direction":
				c.Direction = d.string()
			case "reference":
				c.Reference = d.floatPtr()
			case "perturbations":
				c.Perturbations = d.perturbations()
			}
		}
	}
	return out
}

func (d *decoder) dataset(ds *Dataset) {
	fs, ok := d.open(datasetFields)
	for ok && d.next(&fs) {
		switch fs.name {
		case "name":
			ds.Name = d.string()
		case "objects":
			ds.Objects = d.objects()
		}
	}
}

func (d *decoder) clean(c *CleanRequest) {
	fs, ok := d.open(cleanFields)
	for ok && d.next(&fs) {
		switch fs.name {
		case "step":
			c.Step = d.int()
		case "object":
			c.Object = d.int()
		case "value":
			c.Value = d.float()
		}
	}
}
