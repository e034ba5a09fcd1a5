package oneapi

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode/utf8"
)

// JSON primitives under the hand-written codecs of messages.go. The
// contract is encoding/json's, reproduced rather than reinterpreted:
// wireEnc emits the bytes json.Marshal emits (ES6 float formatting), and
// checkJSON + wireDec accept and reject what json.Unmarshal does — the
// syntax is checked over the whole document first, then a second pass
// that may assume well-formed input stores the values, with every type
// mismatch an error. No hot message carries a string value, so the
// codecs encode none and decode none: a string is only ever skipped, and
// the one kind of string they read, a member name, is plain ASCII from
// every encoder in this repo — any other is unquoted by encoding/json.
// The differential fuzz targets in wirefuzz_test.go hold both halves to
// that oracle.

// maxJSONDepth is encoding/json's nesting limit.
const maxJSONDepth = 10000

var errJSONDepth = errors.New("oneapi: json: exceeded max depth")

// jsonChecker is the syntax pass: a cursor over one document.
type jsonChecker struct {
	b     []byte
	i     int
	depth int
}

// checkJSON reports whether data is exactly one JSON value, optionally
// surrounded by whitespace. An empty document is io.EOF and a truncated
// one io.ErrUnexpectedEOF, as a json.Decoder reports them.
func checkJSON(data []byte) error {
	s := jsonChecker{b: data}
	s.ws()
	if s.i == len(s.b) {
		return io.EOF
	}
	if err := s.value(); err != nil {
		return err
	}
	if s.ws(); s.i != len(s.b) {
		return s.bad()
	}
	return nil
}

func isJSONSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }

func (s *jsonChecker) ws() {
	for s.i < len(s.b) && isJSONSpace(s.b[s.i]) {
		s.i++
	}
}

func (s *jsonChecker) at(c byte) bool { return s.i < len(s.b) && s.b[s.i] == c }

func (s *jsonChecker) digit() bool { return s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' }

// bad is the error for the byte under the cursor not fitting the grammar.
func (s *jsonChecker) bad() error {
	if s.i >= len(s.b) {
		return io.ErrUnexpectedEOF
	}
	return fmt.Errorf("oneapi: json: invalid character %q at offset %d", s.b[s.i], s.i)
}

func (s *jsonChecker) value() error {
	if s.i >= len(s.b) {
		return io.ErrUnexpectedEOF
	}
	switch c := s.b[s.i]; {
	case c == '{':
		return s.object()
	case c == '[':
		return s.array()
	case c == '"':
		return s.str()
	case c == '-' || '0' <= c && c <= '9':
		return s.number()
	case c == 't':
		return s.literal("true")
	case c == 'f':
		return s.literal("false")
	case c == 'n':
		return s.literal("null")
	}
	return s.bad()
}

func (s *jsonChecker) literal(word string) error {
	for k := 0; k < len(word); k++ {
		if !s.at(word[k]) {
			return s.bad()
		}
		s.i++
	}
	return nil
}

func (s *jsonChecker) number() error {
	if s.at('-') {
		s.i++
	}
	switch {
	case s.at('0'):
		s.i++
	case s.digit():
		for s.digit() {
			s.i++
		}
	default:
		return s.bad()
	}
	if s.at('.') {
		s.i++
		if !s.digit() {
			return s.bad()
		}
		for s.digit() {
			s.i++
		}
	}
	if s.at('e') || s.at('E') {
		s.i++
		if s.at('+') || s.at('-') {
			s.i++
		}
		if !s.digit() {
			return s.bad()
		}
		for s.digit() {
			s.i++
		}
	}
	return nil
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func (s *jsonChecker) str() error {
	s.i++ // opening quote
	for s.i < len(s.b) {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return nil
		case c < ' ':
			return s.bad()
		case c == '\\':
			s.i++
			if s.i >= len(s.b) {
				return io.ErrUnexpectedEOF
			}
			switch s.b[s.i] {
			case 'b', 'f', 'n', 'r', 't', '\\', '/', '"':
			case 'u':
				for k := 0; k < 4; k++ {
					s.i++
					if s.i >= len(s.b) || !isHex(s.b[s.i]) {
						return s.bad()
					}
				}
			default:
				return s.bad()
			}
		}
		s.i++
	}
	return io.ErrUnexpectedEOF
}

func (s *jsonChecker) enter() error {
	s.i++ // '{' or '['
	if s.depth++; s.depth > maxJSONDepth {
		return errJSONDepth
	}
	s.ws()
	return nil
}

func (s *jsonChecker) object() error {
	if err := s.enter(); err != nil {
		return err
	}
	if s.at('}') {
		s.i++
		s.depth--
		return nil
	}
	for {
		if !s.at('"') {
			return s.bad()
		}
		if err := s.str(); err != nil {
			return err
		}
		if s.ws(); !s.at(':') {
			return s.bad()
		}
		s.i++
		s.ws()
		if err := s.value(); err != nil {
			return err
		}
		s.ws()
		switch {
		case s.at(','):
			s.i++
			s.ws()
		case s.at('}'):
			s.i++
			s.depth--
			return nil
		default:
			return s.bad()
		}
	}
}

func (s *jsonChecker) array() error {
	if err := s.enter(); err != nil {
		return err
	}
	if s.at(']') {
		s.i++
		s.depth--
		return nil
	}
	for {
		if err := s.value(); err != nil {
			return err
		}
		s.ws()
		switch {
		case s.at(','):
			s.i++
			s.ws()
		case s.at(']'):
			s.i++
			s.depth--
			return nil
		default:
			return s.bad()
		}
	}
}

// wireDec is the store pass: a cursor over a document checkJSON has
// accepted, so it indexes without re-checking the grammar. Its methods
// follow json.Unmarshal's rules for the kinds the wire schemas use:
// null leaves a scalar or struct untouched and clears a map or slice,
// a value of the wrong kind (or a number that does not fit) is an
// error, and an unknown object member is skipped.
type wireDec struct {
	b []byte
	i int
}

// peek skips whitespace and returns the first byte of the next token.
func (d *wireDec) peek() byte {
	for isJSONSpace(d.b[d.i]) {
		d.i++
	}
	return d.b[d.i]
}

// mismatch is the refusal of the value under the cursor for being the
// wrong kind for field (json's UnmarshalTypeError).
func (d *wireDec) mismatch(field string) error {
	kind := "number"
	switch d.b[d.i] {
	case '{':
		kind = "object"
	case '[':
		kind = "array"
	case '"':
		kind = "string"
	case 't', 'f':
		kind = "bool"
	}
	return fmt.Errorf("oneapi: json: cannot decode %s into %s", kind, field)
}

// open enters an object or array: true once the opening byte is
// consumed, false for a null, an error for any other kind.
func (d *wireDec) open(bracket byte, field string) (bool, error) {
	switch d.peek() {
	case bracket:
		d.i++
		return true, nil
	case 'n':
		d.i += len("null")
		return false, nil
	}
	return false, d.mismatch(field)
}

// more steps to the next member of the object or array whose closing
// byte is given, consuming that byte and reporting false at the end.
// first is true right after open.
func (d *wireDec) more(closing byte, first bool) bool {
	if d.peek() == closing {
		d.i++
		return false
	}
	if !first {
		d.i++ // ','
	}
	return true
}

// rawString consumes a string token and returns the bytes between its
// quotes; plain reports that they are ASCII with no escapes, so already
// the string's value.
func (d *wireDec) rawString() (raw []byte, plain bool) {
	d.i++ // opening quote
	start := d.i
	plain = true
	for d.b[d.i] != '"' {
		if d.b[d.i] == '\\' {
			plain = false
			d.i++ // the escaped byte is never a closing quote
		} else if d.b[d.i] >= utf8.RuneSelf {
			plain = false
		}
		d.i++
	}
	raw = d.b[start:d.i]
	d.i++
	return raw, plain
}

// key consumes an object member's name and colon, returning the name
// with escapes resolved. A name with an escape or a non-ASCII byte is
// one no encoder here sends, so encoding/json unquotes it, off the hot
// path; checkJSON has vouched for the token, and json coerces invalid
// UTF-8 to U+FFFD as its decoder does.
func (d *wireDec) key() []byte {
	d.peek()
	start := d.i
	raw, plain := d.rawString()
	if !plain {
		var name string
		_ = json.Unmarshal(d.b[start:d.i], &name)
		raw = []byte(name)
	}
	d.peek()
	d.i++ // ':'
	return raw
}

// keyIs reports whether an object member's name selects the field
// called name, under json's rule: the exact name or any case-folding of
// it — including, where the name has a k or an s, the Kelvin sign and
// the long s.
func keyIs(key []byte, name string) bool {
	return string(key) == name || bytes.EqualFold(key, []byte(name))
}

// skip passes over one value of any kind.
func (d *wireDec) skip() {
	switch d.peek() {
	case '"':
		d.rawString()
	case '{', '[':
		for depth := 0; ; {
			switch d.b[d.i] {
			case '"':
				d.rawString()
				continue
			case '{', '[':
				depth++
			case '}', ']':
				depth--
			}
			d.i++
			if depth == 0 {
				return
			}
		}
	default:
		d.scalar()
	}
}

// scalar consumes a number or literal token.
func (d *wireDec) scalar() []byte {
	start := d.i
	for d.i < len(d.b) {
		if c := d.b[d.i]; c == ',' || c == '}' || c == ']' || isJSONSpace(c) {
			break
		}
		d.i++
	}
	return d.b[start:d.i]
}

// number consumes a number token; ok is false for a null, which it
// consumes too.
func (d *wireDec) number(field string) (tok []byte, ok bool, err error) {
	switch c := d.peek(); {
	case c == 'n':
		d.i += len("null")
		return nil, false, nil
	case c == '-' || '0' <= c && c <= '9':
		return d.scalar(), true, nil
	}
	return nil, false, d.mismatch(field)
}

// integer consumes an integer literal that fits bits; ok is false for
// a null. Fractions and exponents do not fit, as in json.
func (d *wireDec) integer(bits int, field string) (v int64, ok bool, err error) {
	tok, ok, err := d.number(field)
	if !ok {
		return 0, false, err
	}
	// strconv copies its argument before it lets an error keep it, so
	// the conversion of a short token stays on the stack.
	v, err = strconv.ParseInt(string(tok), 10, bits)
	if err != nil {
		return 0, false, fmt.Errorf("oneapi: json: cannot decode number %s into %s", tok, field)
	}
	return v, true, nil
}

func (d *wireDec) intInto(p *int, field string) error {
	v, ok, err := d.integer(strconv.IntSize, field)
	if ok {
		*p = int(v)
	}
	return err
}

func (d *wireDec) int64Into(p *int64, field string) error {
	v, ok, err := d.integer(64, field)
	if ok {
		*p = v
	}
	return err
}

func (d *wireDec) floatInto(p *float64, field string) error {
	tok, ok, err := d.number(field)
	if !ok {
		return err
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return fmt.Errorf("oneapi: json: cannot decode number %s into %s", tok, field)
	}
	*p = v
	return nil
}

// sizeHint bounds how many members the composite the cursor has just
// entered can hold, for sizing a map or slice once: every member of the
// wire schemas' collections is an object, and none is shorter than the
// 7 bytes of `"1":{},`, so a hostile body cannot ask for more memory
// than a well-formed one of its length would use.
func (d *wireDec) sizeHint() int {
	rest := d.b[d.i:]
	return min(bytes.Count(rest, []byte{'{'}), len(rest)/7)
}

// decodeSlice stores a JSON array into *s the way json.Unmarshal does:
// element i is decoded into whatever *s already holds at i (a repeated
// member merges rather than replaces), the slice is cut to the array's
// length, and an empty array is an empty, non-nil slice.
func decodeSlice[T any](d *wireDec, s *[]T, field string, elem func(*wireDec, *T) error) error {
	isArray, err := d.open('[', field)
	if err != nil {
		return err
	}
	if !isArray {
		*s = nil
		return nil
	}
	out := *s
	if out == nil {
		out = make([]T, 0, d.sizeHint())
	}
	n := 0
	for first := true; d.more(']', first); first = false {
		if n >= cap(out) {
			// Grow keeping what lies between len and cap, as
			// reflect.Value.Grow does: a shorter earlier array may have
			// left elements there that this one decodes over.
			var zero T
			out = append(out[:cap(out)], zero)[:len(out)]
		}
		if n >= len(out) {
			out = out[:n+1]
		}
		if err := elem(d, &out[n]); err != nil {
			return err
		}
		n++
	}
	if n == 0 {
		out = []T{}
	}
	*s = out[:n]
	return nil
}

// wireEnc appends JSON to b. A float json cannot represent (NaN, ±Inf)
// sets err and emits nothing; the first such error sticks.
type wireEnc struct {
	b   []byte
	err error
}

func (e *wireEnc) raw(s string) { e.b = append(e.b, s...) }

func (e *wireEnc) int(v int64) { e.b = strconv.AppendInt(e.b, v, 10) }

// float appends f as by the ES6 number-to-string conversion json uses:
// shortest round-trip digits, exponent form below 1e-6 and from 1e21,
// exponents without a padding zero.
func (e *wireEnc) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if e.err == nil {
			e.err = fmt.Errorf("oneapi: json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if format == 'e' {
		// e-09 to e-9
		if n := len(e.b); n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
			e.b[n-2] = e.b[n-1]
			e.b = e.b[:n-1]
		}
	}
}

// compareDecimal orders two ints as json.Marshal orders integer map
// keys — by their decimal strings, so 10 sorts before 9 and every
// negative before zero — without formatting either.
func compareDecimal(a, b int) int {
	if (a < 0) != (b < 0) {
		if a < 0 {
			return -1 // '-' sorts before every digit
		}
		return 1
	}
	// Same sign: the digit strings decide, in the same direction for
	// negatives ("-12" < "-3" because "12" < "3").
	ua, ub := magnitude(a), magnitude(b)
	da, db := decimalLen(ua), decimalLen(ub)
	switch {
	case da < db:
		if head := ub / pow10[db-da]; ua != head {
			return cmp.Compare(ua, head)
		}
		return -1 // a's digits are a proper prefix of b's
	case da > db:
		if head := ua / pow10[da-db]; head != ub {
			return cmp.Compare(head, ub)
		}
		return 1
	}
	return cmp.Compare(ua, ub)
}

func magnitude(v int) uint64 {
	if v < 0 {
		return -uint64(v)
	}
	return uint64(v)
}

var pow10 = [20]uint64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

// decimalLen is the number of decimal digits of v (1 for 0).
func decimalLen(v uint64) int {
	n := 1
	for n < len(pow10) && v >= pow10[n] {
		n++
	}
	return n
}
