package api

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// This file is the one codec of QueryResponse, the type that is nearly
// every byte this API moves: a hand-written, reflection-free encoder and
// decoder held to encoding/json by a differential oracle (codec_test.go,
// FuzzDecodeQueryResponse). The encoder renders byte for byte what
// encoding/json renders for the struct tags in types.go; the decoder
// accepts exactly the inputs encoding/json accepts for the type and yields
// an equal value. Every other wire type is small and stays on
// encoding/json. UnmarshalJSON routes encoding/json readers of this one
// here. There is no MarshalJSON: encoding/json re-validates and compacts a
// Marshaler's output byte by byte, which is slower than its own reflection
// on these answers, and nothing outside tests marshals a QueryResponse
// through it — the handlers call WriteQueryResponse.

// MaxRequestBytes bounds the request body of POST /v1/query and POST
// /v1/subscribe on both tiers; a longer body is answered bad_request.
const MaxRequestBytes = 1 << 20

// UnmarshalJSON decodes through DecodeQueryResponse.
func (r *QueryResponse) UnmarshalJSON(data []byte) error {
	return DecodeQueryResponse(data, r)
}

// AppendQueryResponse appends the JSON encoding of r to dst: the bytes
// json.Marshal produces for the type's struct tags (field order,
// omitempty, sorted map keys, [] against null, HTML-safe string escaping,
// ES6 float formatting), without the newline json.Encoder adds. It panics
// on a NaN or infinite float, which encoding/json refuses too: JSON has no
// form for one, no decoded response can hold one, and an answer that does
// is a bug in the engine that built it, not something to put on the wire.
func AppendQueryResponse(dst []byte, r *QueryResponse) []byte {
	e := encoder{buf: dst}
	e.response(r)
	return e.buf
}

// WriteQueryBody writes body — a QueryResponse as QueryBody encodes it — as
// the 200 reply of POST /v1/query. The explicit Content-Length keeps a
// large answer out of chunked encoding and lets the client size its read.
func WriteQueryBody(w http.ResponseWriter, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body) // a failed write means the client went away
}

// WriteQueryResponse encodes r and writes it as the 200 reply of POST
// /v1/query.
func WriteQueryResponse(w http.ResponseWriter, r *QueryResponse) {
	buf := encodeBody(r)
	WriteQueryBody(w, *buf) // a Writer does not keep what it is handed
	bodyBuffers.Put(buf)
}

// QueryBody returns the body of r's 200 reply — AppendQueryResponse's bytes
// and the newline json.Encoder ended a reply with — in a slice of exactly
// that size: for a caller that keeps the encoding (the result cache) rather
// than writing it once.
func QueryBody(r *QueryResponse) []byte {
	buf := encodeBody(r)
	body := make([]byte, len(*buf))
	copy(body, *buf)
	bodyBuffers.Put(buf)
	return body
}

// encodeBody renders r's reply body into a recycled buffer, which the
// caller returns to bodyBuffers.
func encodeBody(r *QueryResponse) *[]byte {
	buf := bodyBuffers.Get().(*[]byte)
	*buf = append(AppendQueryResponse((*buf)[:0], r), '\n')
	return buf
}

// bodyBuffers recycles reply-sized encode buffers, as encoding/json's
// Encoder recycled its own.
var bodyBuffers = sync.Pool{New: func() any { return new([]byte) }}

// ---- encoder ----

type encoder struct{ buf []byte }

func (e *encoder) raw(s string) { e.buf = append(e.buf, s...) }

func (e *encoder) int(n int64) { e.buf = strconv.AppendInt(e.buf, n, 10) }

func (e *encoder) bool(b bool) { e.buf = strconv.AppendBool(e.buf, b) }

// float formats as encoding/json does (ES6 number-to-string): %f in
// [1e-6, 1e21), %e outside, the exponent without a leading zero.
func (e *encoder) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		panic(fmt.Sprintf("api: a QueryResponse holds %v, which JSON cannot represent", f))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.buf = strconv.AppendFloat(e.buf, f, format, -1, 64)
	if n := len(e.buf); format == 'e' && n >= 4 && e.buf[n-4] == 'e' && e.buf[n-3] == '-' && e.buf[n-2] == '0' {
		e.buf[n-2] = e.buf[n-1] // e-09 → e-9
		e.buf = e.buf[:n-1]
	}
}

const hexDigits = "0123456789abcdef"

// string quotes s as encoding/json does with HTML escaping on: control
// characters, ", \, <, >, & and U+2028/U+2029 escaped, invalid UTF-8
// replaced by the escape \ufffd.
func (e *encoder) string(s string) {
	b := append(e.buf, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	b = append(b, s[start:]...)
	e.buf = append(b, '"')
}

// The omit* helpers render one omitempty member, comma first: every
// QueryResponse member after "watermarks" follows another.

func (e *encoder) omitInt(member string, n int) {
	if n != 0 {
		e.raw(member)
		e.int(int64(n))
	}
}

func (e *encoder) omitFloat(member string, f float64) {
	if f != 0 {
		e.raw(member)
		e.float(f)
	}
}

func (e *encoder) omitString(member, s string) {
	if s != "" {
		e.raw(member)
		e.string(s)
	}
}

func (e *encoder) response(r *QueryResponse) {
	e.raw(`{"expr":`)
	e.string(r.Expr)
	e.raw(`,"form":`)
	e.string(r.Form)
	e.raw(`,"watermarks":`)
	e.watermarks(r.Watermarks)
	if len(r.Items) > 0 {
		e.raw(`,"items":[`)
		for i := range r.Items {
			if i > 0 {
				e.raw(",")
			}
			e.item(&r.Items[i])
		}
		e.raw("]")
	}
	e.omitInt(`,"total_items":`, r.TotalItems)
	e.omitString(`,"cursor":`, r.Cursor)
	if len(r.Streams) > 0 {
		e.raw(`,"streams":`)
		e.streams(r.Streams)
	}
	e.omitInt(`,"total_frames":`, r.TotalFrames)
	if len(r.Tracks) > 0 {
		e.raw(`,"tracks":[`)
		for i := range r.Tracks {
			if i > 0 {
				e.raw(",")
			}
			e.track(&r.Tracks[i])
		}
		e.raw("]")
	}
	e.omitInt(`,"top_k":`, r.TopK)
	e.omitInt(`,"kx":`, r.Kx)
	e.omitFloat(`,"start":`, r.Start)
	e.omitFloat(`,"end":`, r.End)
	e.omitInt(`,"max_clusters":`, r.MaxClusters)
	e.omitString(`,"mode":`, r.Mode)
	e.raw(`,"gt_inferences":`)
	e.int(int64(r.GTInferences))
	e.raw(`,"gpu_time_ms":`)
	e.float(r.GPUTimeMS)
	e.raw(`,"latency_ms":`)
	e.float(r.LatencyMS)
	e.raw(`,"cached":`)
	e.bool(r.Cached)
	if p := r.Partial; p != nil {
		e.raw(`,"partial":{"missing_shards":`)
		e.strings(p.MissingShards)
		e.raw(`,"missing_streams":`)
		e.strings(p.MissingStreams)
		e.raw("}")
	}
	e.raw("}")
}

func (e *encoder) watermarks(v WatermarkVector) {
	if v == nil {
		e.raw("null")
		return
	}
	e.raw("{")
	for i, name := range sortedKeys(v) {
		if i > 0 {
			e.raw(",")
		}
		e.string(name)
		e.raw(":")
		e.float(v[name])
	}
	e.raw("}")
}

func (e *encoder) streams(m map[string]*StreamResult) {
	e.raw("{")
	for i, name := range sortedKeys(m) {
		if i > 0 {
			e.raw(",")
		}
		e.string(name)
		st := m[name]
		if st == nil {
			e.raw(":null")
			continue
		}
		e.raw(`:{"watermark":`)
		e.float(st.Watermark)
		e.raw(`,"frames":`)
		e.ints(st.Frames)
		e.raw(`,"segments":`)
		e.ints(st.Segments)
		e.raw(`,"examined_clusters":`)
		e.int(int64(st.ExaminedClusters))
		e.raw(`,"matched_clusters":`)
		e.int(int64(st.MatchedClusters))
		e.raw(`,"gt_inferences":`)
		e.int(int64(st.GTInferences))
		e.raw(`,"gpu_time_ms":`)
		e.float(st.GPUTimeMS)
		e.raw(`,"latency_ms":`)
		e.float(st.LatencyMS)
		e.raw(`,"via_other":`)
		e.bool(st.ViaOther)
		e.raw("}")
	}
	e.raw("}")
}

// sortedKeys returns m's keys in byte order, the order encoding/json
// renders a map in.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func (e *encoder) ints(s []int64) {
	if s == nil {
		e.raw("null")
		return
	}
	e.raw("[")
	for i, n := range s {
		if i > 0 {
			e.raw(",")
		}
		e.int(n)
	}
	e.raw("]")
}

func (e *encoder) strings(s []string) {
	if s == nil {
		e.raw("null")
		return
	}
	e.raw("[")
	for i, v := range s {
		if i > 0 {
			e.raw(",")
		}
		e.string(v)
	}
	e.raw("]")
}

func (e *encoder) item(it *Item) {
	e.raw(`{"stream":`)
	e.string(it.Stream)
	e.raw(`,"frame":`)
	e.int(it.Frame)
	e.raw(`,"time_sec":`)
	e.float(it.TimeSec)
	e.raw(`,"segment":`)
	e.int(it.Segment)
	e.raw(`,"score":`)
	e.float(it.Score)
	e.raw("}")
}

func (e *encoder) track(t *TrackItem) {
	e.raw(`{"stream":`)
	e.string(t.Stream)
	e.raw(`,"track":`)
	e.int(t.Track)
	e.raw(`,"object":`)
	e.int(t.Object)
	e.raw(`,"start_frame":`)
	e.int(t.StartFrame)
	e.raw(`,"end_frame":`)
	e.int(t.EndFrame)
	e.raw(`,"start_sec":`)
	e.float(t.StartSec)
	e.raw(`,"end_sec":`)
	e.float(t.EndSec)
	e.raw(`,"sightings":`)
	e.int(int64(t.Sightings))
	e.raw(`,"score":`)
	e.float(t.Score)
	e.raw("}")
}

// ---- decoder ----

// DecodeQueryResponse decodes the JSON text data into r as json.Unmarshal
// does for the type's struct tags: it accepts exactly the same inputs and,
// accepting, leaves r with the same value. That covers what well-formed
// answers never exercise — surrounding whitespace, members in any order,
// unknown members skipped (their syntax still checked), member names
// matched exactly and then under Unicode case folding, a duplicate member
// decoded into what the earlier one left (a scalar is replaced, a list
// reuses its elements, a map keeps its other keys), null a no-op on scalars
// and nil on lists, maps and Partial, escapes and invalid UTF-8 in strings,
// integers that are not integer literals or overflow rejected, and nesting
// deeper than 10000 rejected. On an error r may be partly written. There is
// no fallback to encoding/json.
func DecodeQueryResponse(data []byte, r *QueryResponse) error {
	d := decoder{data: data}
	d.space()
	if err := d.response(r); err != nil {
		return err
	}
	d.space()
	if d.pos < len(d.data) {
		return d.errorf("invalid character %q after top-level value", d.data[d.pos])
	}
	return nil
}

// maxDepth is encoding/json's bound on open objects and arrays.
const maxDepth = 10000

type decoder struct {
	data  []byte
	pos   int
	depth int // objects and arrays open at pos
	// names are the first distinct item stream names read (see streamName).
	names  [8]string
	nNames int
}

var errUnexpectedEnd = errors.New("api: decoding QueryResponse: unexpected end of JSON input")

func (d *decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("api: decoding QueryResponse: offset %d: %s", d.pos, fmt.Sprintf(format, args...))
}

// unexpected is the error for the byte at the cursor (or the end of input)
// where want was needed.
func (d *decoder) unexpected(want string) error {
	if d.pos >= len(d.data) {
		return errUnexpectedEnd
	}
	return d.errorf("invalid character %q looking for %s", d.data[d.pos], want)
}

func (d *decoder) space() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\r', '\n':
			d.pos++
		default:
			return
		}
	}
}

// peek returns the byte at the cursor, 0 at the end of input (0 begins no
// JSON token, so callers need no separate end check).
func (d *decoder) peek() byte {
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

// literal consumes lit ("null", "true" or "false") at the cursor.
func (d *decoder) literal(lit string) error {
	for i := 0; i < len(lit); i++ {
		if d.pos >= len(d.data) {
			return errUnexpectedEnd
		}
		if d.data[d.pos] != lit[i] {
			return d.errorf("invalid character %q in literal %s", d.data[d.pos], lit)
		}
		d.pos++
	}
	return nil
}

// open consumes the opening bracket of a container value. A null in its
// place is consumed instead and reported as isNull; any other value is a
// type error.
func (d *decoder) open(bracket byte) (isNull bool, err error) {
	switch d.peek() {
	case 'n':
		return true, d.literal("null")
	case bracket:
		if d.depth++; d.depth > maxDepth {
			return false, d.errorf("exceeded max depth")
		}
		d.pos++
		return false, nil
	}
	if bracket == '{' {
		return false, d.unexpected("an object")
	}
	return false, d.unexpected("an array")
}

// more steps to the next element or member of the container closed by
// closer: past the separating comma (not before the first), or past the
// closer, reporting false. The cursor is left on the first byte of the
// element, or of the member's name.
func (d *decoder) more(closer byte, first bool) (bool, error) {
	d.space()
	c := d.peek()
	if c == closer {
		d.pos++
		d.depth--
		return false, nil
	}
	if first {
		return true, nil
	}
	if c != ',' {
		return false, d.unexpected("a comma or the end of the container")
	}
	d.pos++
	d.space()
	return true, nil
}

// fieldNames lists a struct's member names in both forms a name is
// matched: as spelled, and folded as encoding/json folds (fold).
type fieldNames struct{ exact, folded []string }

func fieldsOf(names ...string) fieldNames {
	f := fieldNames{exact: names}
	for _, n := range names {
		f.folded = append(f.folded, string(fold(nil, []byte(n))))
	}
	return f
}

// fold maps name to the least member of its class under Unicode simple case
// folding, rune by rune — encoding/json's rule for matching a member name no
// field spells exactly, which makes "EXPR" and "ſtreams" (long s) hit.
func fold(out, name []byte) []byte {
	for i := 0; i < len(name); {
		if c := name[i]; c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			out = append(out, c)
			i++
			continue
		}
		r, n := utf8.DecodeRune(name[i:])
		for {
			r2 := unicode.SimpleFold(r)
			if r2 <= r {
				r = r2
				break
			}
			r = r2
		}
		out = utf8.AppendRune(out, r)
		i += n
	}
	return out
}

var (
	responseFields = fieldsOf("expr", "form", "watermarks", "items", "total_items", "cursor", "streams",
		"total_frames", "tracks", "top_k", "kx", "start", "end", "max_clusters", "mode",
		"gt_inferences", "gpu_time_ms", "latency_ms", "cached", "partial")
	itemFields   = fieldsOf("stream", "frame", "time_sec", "segment", "score")
	trackFields  = fieldsOf("stream", "track", "object", "start_frame", "end_frame", "start_sec", "end_sec", "sightings", "score")
	streamFields = fieldsOf("watermark", "frames", "segments", "examined_clusters", "matched_clusters",
		"gt_inferences", "gpu_time_ms", "latency_ms", "via_other")
	partialFields = fieldsOf("missing_shards", "missing_streams")
)

// name reads a member name and the colon after it, leaving the cursor on
// the member's value.
func (d *decoder) name() ([]byte, error) {
	key, err := d.stringBytes()
	if err != nil {
		return nil, err
	}
	d.space()
	if d.peek() != ':' {
		return nil, d.unexpected("a colon after the member name")
	}
	d.pos++
	d.space()
	return key, nil
}

// field returns the field of f a member name selects, "" for none.
func (f *fieldNames) field(key []byte) string {
	for _, name := range f.exact {
		if string(key) == name {
			return name
		}
	}
	var arr [32]byte
	folded := fold(arr[:0], key)
	for i, name := range f.folded {
		if string(folded) == name {
			return f.exact[i]
		}
	}
	return ""
}

// stringBytes consumes the JSON string at the cursor and returns its
// unquoted bytes: a slice of the input when it holds no escape and only
// valid UTF-8, a new slice with escapes resolved and every invalid byte
// replaced by U+FFFD otherwise.
func (d *decoder) stringBytes() ([]byte, error) {
	if d.peek() != '"' {
		return nil, d.unexpected("a string")
	}
	d.pos++
	start := d.pos
	for d.pos < len(d.data) {
		c := d.data[d.pos]
		switch {
		case c == '"':
			d.pos++
			return d.data[start : d.pos-1], nil
		case c == '\\':
			return d.unquoteFrom(start)
		case c < ' ':
			return nil, d.errorf("invalid character %q in string literal", c)
		case c < utf8.RuneSelf:
			d.pos++
		default:
			r, size := utf8.DecodeRune(d.data[d.pos:])
			if r == utf8.RuneError && size == 1 {
				return d.unquoteFrom(start)
			}
			d.pos += size
		}
	}
	return nil, errUnexpectedEnd
}

// unquoteFrom finishes stringBytes on the slow path: the string began at
// start and the cursor is on its first escape or invalid byte.
func (d *decoder) unquoteFrom(start int) ([]byte, error) {
	out := append([]byte(nil), d.data[start:d.pos]...)
	for d.pos < len(d.data) {
		c := d.data[d.pos]
		switch {
		case c == '"':
			d.pos++
			return out, nil
		case c == '\\':
			d.pos++
			if d.pos >= len(d.data) {
				return nil, errUnexpectedEnd
			}
			esc := d.data[d.pos]
			d.pos++
			switch esc {
			case '"', '\\', '/':
				out = append(out, esc)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r, err := d.hex4()
				if err != nil {
					return nil, err
				}
				if utf16.IsSurrogate(r) {
					r = d.pairWith(r)
				}
				out = utf8.AppendRune(out, r)
			default:
				d.pos--
				return nil, d.errorf("invalid character %q in string escape code", esc)
			}
		case c < ' ':
			return nil, d.errorf("invalid character %q in string literal", c)
		case c < utf8.RuneSelf:
			out = append(out, c)
			d.pos++
		default:
			r, size := utf8.DecodeRune(d.data[d.pos:])
			out = utf8.AppendRune(out, r)
			d.pos += size
		}
	}
	return nil, errUnexpectedEnd
}

// pairWith is called with a surrogate just read from a \u escape: when it
// is a high surrogate and a \u low surrogate follows directly, that escape
// is consumed too and the pair's rune returned. Anything else consumes
// nothing and yields U+FFFD (what follows is then read as its own
// character).
func (d *decoder) pairWith(hi rune) rune {
	if d.pos+1 < len(d.data) && d.data[d.pos] == '\\' && d.data[d.pos+1] == 'u' {
		save := d.pos
		d.pos += 2
		if lo, err := d.hex4(); err == nil {
			if r := utf16.DecodeRune(hi, lo); r != unicode.ReplacementChar {
				return r
			}
		}
		d.pos = save
	}
	return unicode.ReplacementChar
}

// hex4 consumes the four hexadecimal digits of a \u escape.
func (d *decoder) hex4() (rune, error) {
	var r rune
	for i := 0; i < 4; i++ {
		if d.pos >= len(d.data) {
			return 0, errUnexpectedEnd
		}
		c := d.data[d.pos]
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, d.errorf("invalid character %q in \\u hexadecimal character escape", c)
		}
		r = r<<4 | rune(c)
		d.pos++
	}
	return r, nil
}

// number consumes the JSON number at the cursor and returns its text;
// integer reports a literal with neither fraction nor exponent.
func (d *decoder) number() (text []byte, integer bool, err error) {
	start := d.pos
	if d.peek() == '-' {
		d.pos++
	}
	switch c := d.peek(); {
	case c == '0':
		d.pos++
	case '1' <= c && c <= '9':
		d.digits()
	default:
		return nil, false, d.unexpected("a number")
	}
	integer = true
	if d.peek() == '.' {
		integer = false
		d.pos++
		if !d.digits() {
			return nil, false, d.unexpected("a digit after the decimal point")
		}
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		integer = false
		d.pos++
		if c := d.peek(); c == '+' || c == '-' {
			d.pos++
		}
		if !d.digits() {
			return nil, false, d.unexpected("a digit in the exponent")
		}
	}
	return d.data[start:d.pos], integer, nil
}

// digits consumes a run of decimal digits and reports whether there was
// one.
func (d *decoder) digits() bool {
	start := d.pos
	for d.pos < len(d.data) && '0' <= d.data[d.pos] && d.data[d.pos] <= '9' {
		d.pos++
	}
	return d.pos > start
}

// skip consumes any JSON value, checking its syntax and nesting depth: the
// value of a member no field claims.
func (d *decoder) skip() error {
	switch c := d.peek(); {
	case c == '{':
		if _, err := d.open('{'); err != nil {
			return err
		}
		for first := true; ; first = false {
			if ok, err := d.more('}', first); !ok {
				return err
			}
			if _, err := d.name(); err != nil {
				return err
			}
			if err := d.skip(); err != nil {
				return err
			}
		}
	case c == '[':
		if _, err := d.open('['); err != nil {
			return err
		}
		for first := true; ; first = false {
			if ok, err := d.more(']', first); !ok {
				return err
			}
			if err := d.skip(); err != nil {
				return err
			}
		}
	case c == '"':
		_, err := d.stringBytes()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		_, _, err := d.number()
		return err
	}
	return d.unexpected("the beginning of a value")
}

// The scalar decoders below store the value at the cursor through p. A
// null is consumed and leaves *p alone; a value of another JSON type is an
// error.

func (d *decoder) str(p *string) error {
	if d.peek() == 'n' {
		return d.literal("null")
	}
	b, err := d.stringBytes()
	if err != nil {
		return err
	}
	*p = string(b)
	return nil
}

// streamName is str for an item's stream: a ranking names a few streams
// once per item, so the first names read are kept and shared by the items
// that repeat them instead of being allocated again.
func (d *decoder) streamName(p *string) error {
	if d.peek() == 'n' {
		return d.literal("null")
	}
	b, err := d.stringBytes()
	if err != nil {
		return err
	}
	for _, name := range d.names[:d.nNames] {
		if string(b) == name {
			*p = name
			return nil
		}
	}
	*p = string(b)
	if d.nNames < len(d.names) {
		d.names[d.nNames] = *p
		d.nNames++
	}
	return nil
}

func (d *decoder) boolean(p *bool) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case 't':
		*p = true
		return d.literal("true")
	case 'f':
		*p = false
		return d.literal("false")
	}
	return d.unexpected("a boolean")
}

func (d *decoder) float(p *float64) error {
	if d.peek() == 'n' {
		return d.literal("null")
	}
	text, _, err := d.number()
	if err != nil {
		return err
	}
	f, err := strconv.ParseFloat(string(text), 64)
	if err != nil {
		return d.errorf("number %s does not fit a float64", text)
	}
	*p = f
	return nil
}

func (d *decoder) int64(p *int64) error {
	// The common case in one pass: an integer literal of at most 18
	// digits, which cannot overflow.
	i, neg := d.pos, false
	if i < len(d.data) && d.data[i] == '-' {
		neg = true
		i++
	}
	first := i
	var n int64
	for ; i < len(d.data) && i-first < 18; i++ {
		c := d.data[i] - '0'
		if c > 9 {
			break
		}
		n = n*10 + int64(c)
	}
	if i > first && (d.data[first] != '0' || i-first == 1) && !numberContinues(d.data, i) {
		if neg {
			n = -n
		}
		*p = n
		d.pos = i
		return nil
	}
	if d.peek() == 'n' {
		return d.literal("null")
	}
	text, integer, err := d.number()
	if err != nil {
		return err
	}
	n, perr := strconv.ParseInt(string(text), 10, 64)
	if !integer || perr != nil {
		return d.errorf("number %s does not fit an integer", text)
	}
	*p = n
	return nil
}

// numberContinues reports whether the byte at i would extend a number
// literal that ends before it.
func numberContinues(data []byte, i int) bool {
	if i >= len(data) {
		return false
	}
	c := data[i]
	return '0' <= c && c <= '9' || c == '.' || c == 'e' || c == 'E'
}

func (d *decoder) int(p *int) error {
	n := int64(*p)
	if err := d.int64(&n); err != nil {
		return err
	}
	if int64(int(n)) != n {
		return d.errorf("number %d does not fit an int", n)
	}
	*p = int(n)
	return nil
}

// list decodes a JSON array into *p as encoding/json does: null makes the
// list nil; element i is decoded by elem into the slot an earlier decoding
// of the same member left there, if any (within the old length or beyond
// it within the old capacity), into a zero value past that; an empty array
// leaves an empty non-nil list.
func list[T any](d *decoder, p *[]T, elem func(*decoder, *T) error) error {
	isNull, err := d.open('[')
	if isNull || err != nil {
		if isNull && err == nil {
			*p = nil
		}
		return err
	}
	s := *p
	n := 0
	for first := true; ; first = false {
		ok, err := d.more(']', first)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if n >= cap(s) {
			var zero T
			s = append(s[:cap(s)], zero)
		}
		if n >= len(s) {
			s = s[:n+1]
		}
		if err := elem(d, &s[n]); err != nil {
			return err
		}
		n++
	}
	if n == 0 {
		s = []T{}
	}
	*p = s[:n]
	return nil
}

// presize gives a list not yet allocated the capacity of the array at the
// cursor, counted as the mark bytes before the next closing bracket plus
// extra: exact for a well-formed list whose elements hold no array — a
// comma between integers, an opening brace per item — and for any other
// input at most one element per input byte. Lists run to thousands of
// elements (the frames form's payload), so growing by doubling would copy
// and discard as much again.
func presize[T any](d *decoder, p *[]T, mark byte, extra int) {
	if cap(*p) != 0 || d.peek() != '[' {
		return
	}
	if end := bytes.IndexByte(d.data[d.pos:], ']'); end > 1 {
		*p = make([]T, 0, bytes.Count(d.data[d.pos:d.pos+end], []byte{mark})+extra)
	}
}

func (d *decoder) int64s(p *[]int64) error {
	presize(d, p, ',', 1)
	return list(d, p, (*decoder).int64)
}

// object decodes a JSON object member by member: each member's value is
// handed, with the field its name selects, to set, which must consume it.
// A null in the object's place is consumed and reported.
func (d *decoder) object(f *fieldNames, set func(field string) error) (isNull bool, err error) {
	if isNull, err = d.open('{'); isNull || err != nil {
		return isNull, err
	}
	for first := true; ; first = false {
		if ok, err := d.more('}', first); !ok {
			return false, err
		}
		key, err := d.name()
		if err != nil {
			return false, err
		}
		if field := f.field(key); field != "" {
			err = set(field)
		} else {
			err = d.skip()
		}
		if err != nil {
			return false, err
		}
	}
}

// stringMap decodes a JSON object into the map *p as encoding/json does:
// null makes the map nil, an object is added to the map already there (or
// a new one), and each value is decoded by elem into a zero V — never into
// the value an equal earlier key left — and stored under its key.
func stringMap[V any](d *decoder, p *map[string]V, elem func(*decoder, *V) error) error {
	isNull, err := d.open('{')
	if isNull || err != nil {
		if isNull && err == nil {
			*p = nil
		}
		return err
	}
	if *p == nil {
		*p = make(map[string]V)
	}
	for first := true; ; first = false {
		if ok, err := d.more('}', first); !ok {
			return err
		}
		key, err := d.name()
		if err != nil {
			return err
		}
		name := string(key)
		var v V
		if err := elem(d, &v); err != nil {
			return err
		}
		(*p)[name] = v
	}
}

func (d *decoder) response(r *QueryResponse) error {
	_, err := d.object(&responseFields, func(field string) error {
		switch field {
		case "expr":
			return d.str(&r.Expr)
		case "form":
			return d.str(&r.Form)
		case "watermarks":
			return stringMap(d, (*map[string]float64)(&r.Watermarks), (*decoder).float)
		case "items":
			presize(d, &r.Items, '{', 0)
			return list(d, &r.Items, (*decoder).item)
		case "total_items":
			return d.int(&r.TotalItems)
		case "cursor":
			return d.str(&r.Cursor)
		case "streams":
			return stringMap(d, &r.Streams, (*decoder).streamResult)
		case "total_frames":
			return d.int(&r.TotalFrames)
		case "tracks":
			presize(d, &r.Tracks, '{', 0)
			return list(d, &r.Tracks, (*decoder).track)
		case "top_k":
			return d.int(&r.TopK)
		case "kx":
			return d.int(&r.Kx)
		case "start":
			return d.float(&r.Start)
		case "end":
			return d.float(&r.End)
		case "max_clusters":
			return d.int(&r.MaxClusters)
		case "mode":
			return d.str(&r.Mode)
		case "gt_inferences":
			return d.int(&r.GTInferences)
		case "gpu_time_ms":
			return d.float(&r.GPUTimeMS)
		case "latency_ms":
			return d.float(&r.LatencyMS)
		case "cached":
			return d.boolean(&r.Cached)
		default: // "partial"
			return d.partial(&r.Partial)
		}
	})
	return err
}

func (d *decoder) item(it *Item) error {
	_, err := d.object(&itemFields, func(field string) error {
		switch field {
		case "stream":
			return d.streamName(&it.Stream)
		case "frame":
			return d.int64(&it.Frame)
		case "time_sec":
			return d.float(&it.TimeSec)
		case "segment":
			return d.int64(&it.Segment)
		default: // "score"
			return d.float(&it.Score)
		}
	})
	return err
}

func (d *decoder) track(t *TrackItem) error {
	_, err := d.object(&trackFields, func(field string) error {
		switch field {
		case "stream":
			return d.streamName(&t.Stream)
		case "track":
			return d.int64(&t.Track)
		case "object":
			return d.int64(&t.Object)
		case "start_frame":
			return d.int64(&t.StartFrame)
		case "end_frame":
			return d.int64(&t.EndFrame)
		case "start_sec":
			return d.float(&t.StartSec)
		case "end_sec":
			return d.float(&t.EndSec)
		case "sightings":
			return d.int(&t.Sightings)
		default: // "score"
			return d.float(&t.Score)
		}
	})
	return err
}

// streamResult decodes one value of the streams map into *p, nil as
// stringMap hands it over: an object allocates, null leaves the nil.
func (d *decoder) streamResult(p **StreamResult) error {
	st := new(StreamResult)
	isNull, err := d.object(&streamFields, func(field string) error {
		switch field {
		case "watermark":
			return d.float(&st.Watermark)
		case "frames":
			return d.int64s(&st.Frames)
		case "segments":
			return d.int64s(&st.Segments)
		case "examined_clusters":
			return d.int(&st.ExaminedClusters)
		case "matched_clusters":
			return d.int(&st.MatchedClusters)
		case "gt_inferences":
			return d.int(&st.GTInferences)
		case "gpu_time_ms":
			return d.float(&st.GPUTimeMS)
		case "latency_ms":
			return d.float(&st.LatencyMS)
		default: // "via_other"
			return d.boolean(&st.ViaOther)
		}
	})
	if !isNull && err == nil {
		*p = st
	}
	return err
}

// partial decodes the partial member: null makes it nil, an object is
// decoded into the PartialInfo already there, or a new one.
func (d *decoder) partial(p **PartialInfo) error {
	pi := *p
	if pi == nil {
		pi = new(PartialInfo)
	}
	isNull, err := d.object(&partialFields, func(field string) error {
		if field == "missing_shards" {
			return list(d, &pi.MissingShards, (*decoder).str)
		}
		return list(d, &pi.MissingStreams, (*decoder).str)
	})
	if err != nil {
		return err
	}
	if isNull {
		pi = nil
	}
	*p = pi
	return nil
}
