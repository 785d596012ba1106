package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// oracleResponse is QueryResponse without its methods: encoding/json
// renders and reads it by reflection over the struct tags, the behaviour
// the hand-written codec must reproduce. It is the only reflective
// encoding of the type left in the tree.
type oracleResponse QueryResponse

func oracleMarshal(r *QueryResponse) ([]byte, error) { return json.Marshal((*oracleResponse)(r)) }

func oracleUnmarshal(data []byte, r *QueryResponse) error {
	return json.Unmarshal(data, (*oracleResponse)(r))
}

// checkDecodeAgainstOracle holds DecodeQueryResponse to encoding/json on
// one input, from a zero value and from a populated one (a decode merges
// into what is there): same accept/reject, and on accept the same value —
// DeepEqual, and byte-equal when the oracle renders it, which also tells
// -0 from 0.
func checkDecodeAgainstOracle(t testing.TB, data []byte) {
	t.Helper()
	for _, seeded := range []bool{false, true} {
		var got, want QueryResponse
		if seeded {
			got, want = *genResponse(rand.New(rand.NewSource(7)), FormRanked), *genResponse(rand.New(rand.NewSource(7)), FormRanked)
		}
		wantErr := oracleUnmarshal(data, &want)
		gotErr := DecodeQueryResponse(data, &got)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("seeded=%v: accept/reject differs on %q:\n codec:  %v\n oracle: %v", seeded, data, gotErr, wantErr)
		}
		if wantErr != nil {
			continue
		}
		if !reflect.DeepEqual(&got, &want) {
			t.Fatalf("seeded=%v: value differs on %q:\n codec:  %+v\n oracle: %+v", seeded, data, got, want)
		}
		gotJSON, _ := oracleMarshal(&got)
		wantJSON, _ := oracleMarshal(&want)
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("seeded=%v: value differs on %q:\n codec:  %s\n oracle: %s", seeded, data, gotJSON, wantJSON)
		}
	}
}

// handDecodeCases are inputs well-formed answers never contain, each a rule
// of encoding/json the decoder has to share.
var handDecodeCases = []string{
	// Top level.
	``, ` `, `null`, ` null `, `nul`, `nulll`, `{}`, ` { } `, `{} x`, `{}{}`, `[]`, `1`, `"x"`, `true`, `{`, `}`, "\ufeff{}",
	"\t\r\n {\t\r\n \"expr\"\t\r\n :\t\r\n \"car\"\t\r\n ,\t\r\n \"cached\" : true }\t\r\n ",
	"{\"expr\"\v:\"car\"}", "{\u00a0}",
	// Separators.
	`{,}`, `{"expr":"a",}`, `{"expr" "a"}`, `{"expr":}`, `{"expr":"a" "form":"b"}`, `{"expr":"a";"form":"b"}`,
	`{expr:"a"}`, `{'expr':'a'}`, `{"items":[,]}`, `{"items":[{},]}`, `{"items":[{} {}]}`, `{"items":[{}`, `{"items":[`,
	// Unknown members: skipped, their syntax still checked.
	`{"nope":1,"expr":"car"}`, `{"nope":{"a":[1,2,{"b":null}],"c":"d"},"expr":"car"}`, `{"nope":[[[[]]]]}`,
	`{"nope":tru}`, `{"nope":01}`, `{"nope":1.}`, `{"nope":.5}`, `{"nope":1e}`, `{"nope":+1}`, `{"nope":-}`, `{"nope":"\x"}`,
	`{"nope":{"a"}}`, `{"nope":[1 2]}`, `{"nope":1e999}`, `{"nope":123456789012345678901234567890}`, `{"":1}`,
	`{"items":[{"nope":{"x":[1,"a\n"]}}]}`, `{"items":[{"nope":{"x":[1,"a` + "\n" + `"]}}]}`,
	// Member names: exact, then folded (ASCII case and Unicode simple folds).
	`{"EXPR":"car","Form":"ranked","TOTAL_ITEMS":3}`, `{"total_itemſ":3}`, `{"ſtreamſ":{"a":{"ſegmentſ":[1]}}}`,
	`{"\u212ax":4,"top_\u212A":5}`, `{"top_K":1,"top_k":2}`, `{"top_k":2,"TOP_K":1}`, `{"\u0065xpr":"car"}`,
	`{"expr ":"car"}`, `{"total-items":3}`, `{"items":[{"STREAM":"a","Time_Sec":2}]}`, `{"exp\ufffdr":"x"}`, "{\"exp\xffr\":\"x\"}",
	// Duplicates: scalars replaced, lists reuse elements, maps keep keys.
	`{"expr":"a","expr":"b"}`, `{"top_k":1,"top_k":null}`, `{"cached":true,"cached":false}`,
	`{"items":[{"stream":"a","frame":1},{"stream":"b","frame":2}],"items":[{"frame":3}]}`,
	`{"items":[{"stream":"a","frame":1},{"stream":"b","frame":2}],"items":[{"frame":3}],"items":[{},{},{}]}`,
	`{"items":[{"stream":"a"}],"items":[]}`, `{"items":[{"stream":"a"}],"items":null}`, `{"items":[{"stream":"a"}],"items":[null,null]}`,
	`{"tracks":[{"stream":"a","track":1,"score":2}],"tracks":[{"track":5},{"object":6}]}`,
	`{"streams":{"a":{"frames":[1,2,3],"watermark":5}},"streams":{"a":{"segments":[1]},"b":null}}`,
	`{"streams":{"a":{"frames":[1,2,3]},"a":{"frames":[null]}}}`, `{"streams":{"a":{"frames":[1,2,3],"frames":[null,null],"frames":[9,null,null]}}}`,
	`{"streams":{"a":{}},"streams":null}`, `{"streams":{"a":{}},"streams":{}}`,
	`{"watermarks":{"a":1},"watermarks":{"b":2,"a":null}}`, `{"watermarks":{"a":1},"watermarks":null}`,
	`{"partial":{"missing_shards":["s1","s2"]},"partial":{"missing_streams":["x"],"missing_shards":["s3"]}}`,
	`{"partial":{"missing_shards":["s1"]},"partial":null}`, `{"partial":null,"partial":{}}`,
	// null: a no-op on scalars, nil on lists, maps and pointers.
	`{"expr":null,"form":null,"watermarks":null,"items":null,"total_items":null,"cursor":null,"streams":null,"total_frames":null,"tracks":null,"top_k":null,"kx":null,"start":null,"end":null,"max_clusters":null,"mode":null,"gt_inferences":null,"gpu_time_ms":null,"latency_ms":null,"cached":null,"partial":null}`,
	`{"items":[null]}`, `{"tracks":[null,{"stream":null,"track":null,"score":null}]}`, `{"streams":{"a":null}}`,
	`{"streams":{"a":{"frames":null,"segments":[null],"via_other":null,"watermark":null}}}`, `{"watermarks":{"a":null}}`,
	`{"partial":{"missing_shards":null,"missing_streams":[null,"a"]}}`,
	// Empty containers are empty, not nil.
	`{"items":[],"tracks":[],"streams":{},"watermarks":{},"partial":{}}`, `{"streams":{"a":{"frames":[],"segments":[]}}}`,
	`{"partial":{"missing_shards":[],"missing_streams":[]}}`,
	// Type mismatches.
	`{"expr":1}`, `{"expr":true}`, `{"expr":{}}`, `{"expr":[]}`, `{"top_k":"1"}`, `{"top_k":true}`, `{"top_k":[]}`, `{"start":"1"}`,
	`{"cached":1}`, `{"cached":"true"}`, `{"cached":tru}`, `{"cached":falsee}`, `{"items":{}}`, `{"items":"a"}`, `{"items":[1]}`, `{"items":[[]]}`,
	`{"streams":[]}`, `{"streams":{"a":[]}}`, `{"streams":{"a":1}}`, `{"watermarks":[]}`, `{"watermarks":{"a":"1"}}`, `{"watermarks":{"a":{}}}`,
	`{"partial":[]}`, `{"partial":{"missing_shards":"a"}}`, `{"partial":{"missing_shards":[1]}}`, `{"streams":{"a":{"frames":[1.5]}}}`,
	`{"streams":{"a":{"frames":["1"]}}}`, `{"streams":{"a":{"frames":{}}}}`,
	// Integers: integer literals in range only.
	`{"top_k":0}`, `{"top_k":-0}`, `{"top_k":-1}`, `{"top_k":1e2}`, `{"top_k":1E2}`, `{"top_k":1.0}`, `{"top_k":01}`, `{"top_k":-01}`, `{"top_k":00}`,
	`{"top_k":9223372036854775807}`, `{"top_k":9223372036854775808}`, `{"top_k":-9223372036854775808}`, `{"top_k":-9223372036854775809}`,
	`{"top_k":999999999999999999}`, `{"top_k":-999999999999999999}`, `{"top_k":1000000000000000000}`, `{"top_k":12345678901234567890}`,
	`{"top_k":000000000000000000001}`, `{"top_k":1 2}`, `{"top_k":1a}`, `{"top_k":-}`, `{"top_k":- 1}`, `{"top_k":+1}`,
	`{"items":[{"frame":9223372036854775807,"segment":-9223372036854775808}]}`, `{"items":[{"frame":9223372036854775808}]}`,
	`{"streams":{"a":{"frames":[0,-0,7,-7,9223372036854775807,-9223372036854775808]}}}`, `{"streams":{"a":{"frames":[18446744073709551615]}}}`,
	// Floats.
	`{"start":0}`, `{"start":-0}`, `{"start":-0.0}`, `{"start":1e2}`, `{"start":1E+2}`, `{"start":1e-2}`, `{"start":0.1e1}`, `{"start":1.5e300}`,
	`{"start":1e308}`, `{"start":1.8e308}`, `{"start":1e309}`, `{"start":-1e309}`, `{"start":1e-400}`, `{"start":4.9e-324}`, `{"start":2.5e-324}`,
	`{"start":0.1}`, `{"start":0.30000000000000004}`, `{"start":123456789012345678901234567890}`, `{"start":1.}`, `{"start":.1}`, `{"start":1e}`,
	`{"start":1e+}`, `{"start":0x10}`, `{"start":01.5}`, `{"start":1.5.5}`, `{"start":NaN}`, `{"start":Infinity}`, `{"start":-Infinity}`, `{"start":1_0}`,
	`{"items":[{"time_sec":7.433333333333334,"score":1.7439569234848022}]}`,
	// Strings: escapes, surrogates, invalid UTF-8, control characters.
	`{"expr":"a\"b\\c\/d\b\f\n\r\t"}`, `{"expr":"\u0041\u00e9\u4e16\uD83D\uDE00"}`, `{"expr":"\ud83d\ude00"}`, `{"expr":"\uD83D"}`, `{"expr":"\uDE00"}`,
	`{"expr":"\uD83Dx"}`, `{"expr":"\uD83D\u0041"}`, `{"expr":"\uD83D\uD83D\uDE00"}`, `{"expr":"\uDE00\uD83D"}`, `{"expr":"\uD83D\n"}`, `{"expr":"\uD83D\uZZZZ"}`,
	`{"expr":"\uD83D\u"}`, `{"expr":"\uD83D\`, `{"expr":"\u12"}`, `{"expr":"\u12G4"}`, `{"expr":"\U0041"}`, `{"expr":"\a"}`, `{"expr":"\'"}`, `{"expr":"\`, `{"expr":"\"`,
	`{"expr":"<>&\u2028\u2029"}`, "{\"expr\":\"<>&\u2028\u2029\"}", "{\"expr\":\"a\xffb\"}", "{\"expr\":\"\xc3\"}", "{\"expr\":\"\xed\xa0\x80\"}", "{\"expr\":\"\xf4\x90\x80\x80\"}",
	"{\"expr\":\"\xe4\xb8\x96\xe7\x95\x8c\"}", "{\"expr\":\"\xef\xbf\xbd\"}", "{\"expr\":\"a\xff\\n\xfe\"}", "{\"expr\":\"a\x00b\"}", "{\"expr\":\"a\x1fb\"}",
	"{\"expr\":\"a\nb\"}", "{\"expr\":\"a\tb\"}", "{\"expr\":\"a\x7fb\"}", `{"expr":"abc`, `{"expr":"`, `{"expr":"abc\u00`,
	"{\"watermarks\":{\"a\xffb\":1,\"\\u0061\":2,\"\\ud800\":3}}", "{\"streams\":{\"\xff\":{},\"\\ufffd\":null}}",
	`{"partial":{"missing_shards":["\u0061","b\\"],"missing_streams":["\ud83d\ude00"]}}`,
}

func TestDecodeQueryResponseHandCases(t *testing.T) {
	for _, c := range handDecodeCases {
		checkDecodeAgainstOracle(t, []byte(c))
	}
	// Truncations of a full answer: every prefix is rejected alike.
	full, err := oracleMarshal(genResponse(rand.New(rand.NewSource(3)), FormTracks))
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n <= len(full); n++ {
		checkDecodeAgainstOracle(t, full[:n])
	}
}

// TestDecodeQueryResponseDepthBound pins the nesting bound at the same
// depth as encoding/json's, inside an unknown member and under a field.
func TestDecodeQueryResponseDepthBound(t *testing.T) {
	nest := func(prefix, suffix string, n int) []byte {
		return []byte(prefix + strings.Repeat("[", n) + strings.Repeat("]", n) + suffix)
	}
	for _, n := range []int{maxDepth - 3, maxDepth - 2, maxDepth - 1, maxDepth, maxDepth + 1} {
		checkDecodeAgainstOracle(t, nest(`{"nope":`, `}`, n))
		checkDecodeAgainstOracle(t, nest(`{"items":[{"nope":`, `}]}`, n))
		checkDecodeAgainstOracle(t, nest(`{"streams":{"a":{"nope":{"x":`, `}}}}`, n))
		checkDecodeAgainstOracle(t, nest(`{"nope":`, ``, n))
	}
}

// TestDecodeQueryResponseGoldens decodes every served golden body and a
// large four-stream frames answer against the oracle.
func TestDecodeQueryResponseGoldens(t *testing.T) {
	for _, body := range goldenBodies(t) {
		checkDecodeAgainstOracle(t, body)
	}
	checkDecodeAgainstOracle(t, bigFramesBody())
}

// goldenBodies returns the JSON bodies of the serve layer's /v1 wire
// goldens (the text after the status line).
func goldenBodies(t testing.TB) [][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "internal", "serve", "testdata", "v1", "*.golden"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no /v1 goldens found: %v", err)
	}
	var out [][]byte
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, body, ok := bytes.Cut(raw, []byte("\n\n")); ok && bytes.HasPrefix(body, []byte("{")) {
			out = append(out, body)
		}
	}
	return out
}

// bigFrames is a ~100 KB frames-form answer over four streams, the shape
// that carries most of the bytes hot_read moves.
func bigFrames() *QueryResponse {
	r := &QueryResponse{Expr: "car", Form: FormFrames, Watermarks: WatermarkVector{}, Streams: map[string]*StreamResult{},
		GTInferences: 412, GPUTimeMS: 2142.4, LatencyMS: 214.24}
	for i, name := range []string{"auburn_c", "city_a_d", "jacksonh", "lausanne"} {
		st := &StreamResult{Watermark: 300, ExaminedClusters: 700 + i, MatchedClusters: 100 + i, GTInferences: 103,
			GPUTimeMS: 535.6, LatencyMS: 53.56, ViaOther: i == 3}
		for f := int64(0); f < 9000; f++ {
			if f%5 != int64(i) {
				st.Frames = append(st.Frames, f)
			}
			if f%30 == 0 {
				st.Segments = append(st.Segments, f/30)
			}
		}
		r.Watermarks[name] = 300
		r.Streams[name] = st
		r.TotalFrames += len(st.Frames)
	}
	return r
}

func bigFramesBody() []byte { return AppendQueryResponse(nil, bigFrames()) }

// genString draws strings that exercise every branch of the string
// encoder: plain names, HTML-sensitive bytes, quotes and backslashes,
// control characters, U+2028/U+2029, multi-byte runes and invalid UTF-8.
func genString(rng *rand.Rand) string {
	alphabet := []string{"a", "car", "_", "0", " ", "<", ">", "&", `"`, `\`, "/", "\n", "\t", "\b", "\f", "\r", "\x00", "\x1f", "\x7f",
		"\u2028", "\u2029", "\u2027", "\u202a", "é", "世", "😀", "\ufffd", "\xff", "\xc3", "\xe2\x80", "\xed\xa0\x80", "ſ", "\u212a"}
	var b strings.Builder
	for n := rng.Intn(6); n > 0; n-- {
		b.WriteString(alphabet[rng.Intn(len(alphabet))])
	}
	return b.String()
}

// genFloat draws floats around every formatting decision: zero and -0
// (omitempty), the %f/%e switches at 1e-6 and 1e21, exponents that lose a
// leading zero, shortest-round-trip digits, and the ends of the range.
func genFloat(rng *rand.Rand) float64 {
	edges := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 7.433333333333334, 1.7439569234848022, 30, 1e-6, 9.999999999999999e-7,
		1.0000000000000002e-6, 1e-7, 1.5e-9, 1e-10, 1e21, 9.999999999999999e20, 1.0000000000000001e21, 1e22, 1.5e100, 1e-100,
		math.MaxFloat64, math.SmallestNonzeroFloat64, -1e-7, -1e21, 123456789.125, 1e20, 0.000001234}
	switch rng.Intn(4) {
	case 0:
		return edges[rng.Intn(len(edges))]
	case 1:
		return math.Float64frombits(rng.Uint64()&^(0x7ff<<52) | uint64(rng.Intn(2046)+1)<<52) // any finite normal
	case 2:
		return float64(rng.Intn(600)) / 30
	}
	return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
}

func genInt(rng *rand.Rand) int {
	switch rng.Intn(5) {
	case 0:
		return 0
	case 1:
		return []int{math.MaxInt64, math.MinInt64, -1, 999999999999999999, 1000000000000000000}[rng.Intn(5)]
	}
	return rng.Intn(100000)
}

// genSlice returns nil, empty-not-nil, or n generated elements.
func genSlice[T any](rng *rand.Rand, gen func() T) []T {
	switch rng.Intn(4) {
	case 0:
		return nil
	case 1:
		return []T{}
	}
	out := make([]T, rng.Intn(5)+1)
	for i := range out {
		out[i] = gen()
	}
	return out
}

// genResponse draws a response of the given form with every member the
// form carries (and, at random, members it does not) set to generated
// values.
func genResponse(rng *rand.Rand, form string) *QueryResponse {
	r := &QueryResponse{Expr: genString(rng), Form: form, GTInferences: genInt(rng), GPUTimeMS: genFloat(rng),
		LatencyMS: genFloat(rng), Cached: rng.Intn(2) == 0}
	if rng.Intn(8) == 0 {
		r.Form = genString(rng)
	}
	if rng.Intn(6) > 0 {
		r.Watermarks = WatermarkVector{}
		for n := rng.Intn(4); n > 0; n-- {
			r.Watermarks[genString(rng)] = genFloat(rng)
		}
	}
	if rng.Intn(2) == 0 {
		r.TopK, r.Kx, r.MaxClusters = genInt(rng), genInt(rng), genInt(rng)
		r.Start, r.End = genFloat(rng), genFloat(rng)
	}
	if rng.Intn(3) == 0 {
		r.Mode = []string{ModeEarlyExit, genString(rng)}[rng.Intn(2)]
	}
	if rng.Intn(4) == 0 {
		r.Partial = &PartialInfo{
			MissingShards:  genSlice(rng, func() string { return genString(rng) }),
			MissingStreams: genSlice(rng, func() string { return genString(rng) }),
		}
	}
	all := rng.Intn(6) == 0
	if form == FormRanked || all {
		r.Items = genSlice(rng, func() Item {
			return Item{Stream: genString(rng), Frame: int64(genInt(rng)), TimeSec: genFloat(rng), Segment: int64(genInt(rng)), Score: genFloat(rng)}
		})
		r.TotalItems, r.Cursor = genInt(rng), genString(rng)
	}
	if form == FormTracks || all {
		r.Tracks = genSlice(rng, func() TrackItem {
			return TrackItem{Stream: genString(rng), Track: int64(genInt(rng)), Object: int64(genInt(rng)), StartFrame: int64(genInt(rng)),
				EndFrame: int64(genInt(rng)), StartSec: genFloat(rng), EndSec: genFloat(rng), Sightings: genInt(rng), Score: genFloat(rng)}
		})
		r.TotalItems = genInt(rng)
	}
	if form == FormFrames || all {
		if rng.Intn(5) > 0 {
			r.Streams = map[string]*StreamResult{}
			for n := rng.Intn(4); n > 0; n-- {
				var st *StreamResult
				if rng.Intn(6) > 0 {
					st = &StreamResult{Watermark: genFloat(rng),
						Frames:           genSlice(rng, func() int64 { return int64(genInt(rng)) }),
						Segments:         genSlice(rng, func() int64 { return int64(genInt(rng)) }),
						ExaminedClusters: genInt(rng), MatchedClusters: genInt(rng), GTInferences: genInt(rng),
						GPUTimeMS: genFloat(rng), LatencyMS: genFloat(rng), ViaOther: rng.Intn(2) == 0}
				}
				r.Streams[genString(rng)] = st
			}
		}
		r.TotalFrames = genInt(rng)
	}
	return r
}

var allForms = []string{FormFrames, FormRanked, FormTracks}

// TestAppendQueryResponseMatchesOracle is the encoder's property test:
// over generated responses of all three forms the append encoder agrees
// byte for byte with encoding/json's reflective rendering (and
// json.Encoder, what the handlers used to write, adds only a newline), and
// the rendering decodes back — by the codec, through UnmarshalJSON, and by
// the oracle — to one value.
func TestAppendQueryResponseMatchesOracle(t *testing.T) {
	rounds := 3000
	if testing.Short() {
		rounds = 600
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < rounds; i++ {
		r := genResponse(rng, allForms[i%len(allForms)])
		want, err := oracleMarshal(r)
		if err != nil {
			t.Fatalf("round %d: oracle: %v", i, err)
		}
		if got := AppendQueryResponse(nil, r); !bytes.Equal(got, want) {
			t.Fatalf("round %d: AppendQueryResponse differs from encoding/json:\n codec:  %s\n oracle: %s", i, got, want)
		}
		if got := AppendQueryResponse([]byte("prefix"), r); !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("round %d: AppendQueryResponse does not append", i)
		}
		var stream bytes.Buffer
		if err := json.NewEncoder(&stream).Encode((*oracleResponse)(r)); err != nil || !bytes.Equal(stream.Bytes(), append(want, '\n')) {
			t.Fatalf("round %d: json.Encoder output is not the rendering plus a newline (%v)", i, err)
		}
		checkDecodeAgainstOracle(t, want)
		var viaJSON, direct QueryResponse
		if err := json.Unmarshal(want, &viaJSON); err != nil {
			t.Fatalf("round %d: json.Unmarshal through UnmarshalJSON: %v", i, err)
		}
		if err := DecodeQueryResponse(want, &direct); err != nil || !reflect.DeepEqual(&viaJSON, &direct) {
			t.Fatalf("round %d: json.Unmarshal and DecodeQueryResponse disagree (%v)", i, err)
		}
	}
}

// TestQueryResponseNonFiniteFloat pins the one input the encoder refuses:
// encoding/json errors on NaN and ±Inf, and the append form — which has no
// error to return — panics rather than invent bytes.
func TestQueryResponseNonFiniteFloat(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for name, r := range map[string]*QueryResponse{
			"top":       {GPUTimeMS: f},
			"omitempty": {Start: f},
			"watermark": {Watermarks: WatermarkVector{"a": f}},
			"item":      {Items: []Item{{Score: f}}},
			"track":     {Tracks: []TrackItem{{EndSec: f}}},
			"stream":    {Streams: map[string]*StreamResult{"a": {LatencyMS: f}}},
		} {
			if _, err := oracleMarshal(r); err == nil {
				t.Fatalf("%s %v: the oracle accepts it", name, f)
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s %v: AppendQueryResponse did not panic", name, f)
					}
				}()
				AppendQueryResponse(nil, r)
			}()
		}
	}
}

// TestWriteQueryResponse pins the 200 reply's framing: the rendering plus
// json.Encoder's newline, with an exact Content-Length — written, or kept
// (QueryBody).
func TestWriteQueryResponse(t *testing.T) {
	r := genResponse(rand.New(rand.NewSource(5)), FormRanked)
	rec := httptest.NewRecorder()
	WriteQueryResponse(rec, r)
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode((*oracleResponse)(r)); err != nil {
		t.Fatal(err)
	}
	if rec.Code != 200 || !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
		t.Fatalf("status %d body %q, want 200 %q", rec.Code, rec.Body.Bytes(), want.Bytes())
	}
	if got := rec.Header().Get("Content-Length"); got != fmt.Sprint(want.Len()) {
		t.Errorf("Content-Length %q, want %d", got, want.Len())
	}
	if got := rec.Header().Get("Content-Type"); got != "application/json" {
		t.Errorf("Content-Type %q", got)
	}
	if body := QueryBody(r); !bytes.Equal(body, want.Bytes()) || cap(body) != len(body) {
		t.Errorf("QueryBody: %d bytes in a slice of %d, want the same %d-byte reply at its exact size", len(body), cap(body), want.Len())
	}
}

// FuzzDecodeQueryResponse holds the decoder to encoding/json on arbitrary
// bytes — everything a peer shard or a server can put in front of the
// router and the client: it must not panic, must accept and reject exactly
// what the oracle does, and must build the same value.
func FuzzDecodeQueryResponse(f *testing.F) {
	for _, body := range goldenBodies(f) {
		f.Add(body)
	}
	f.Add(bigFramesBody())
	partial := genResponse(rand.New(rand.NewSource(11)), FormRanked)
	partial.Partial = &PartialInfo{MissingShards: []string{"shard-1"}, MissingStreams: []string{"jacksonh", "lausanne"}}
	f.Add(AppendQueryResponse(nil, partial))
	for _, form := range allForms {
		f.Add(AppendQueryResponse(nil, genResponse(rand.New(rand.NewSource(13)), form)))
	}
	for _, c := range handDecodeCases {
		f.Add([]byte(c))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeAgainstOracle(t, data)
	})
}
