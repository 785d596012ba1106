package api

import (
	"math/rand"
	"testing"
)

// benchResponses are the answer shapes the served path moves: the large
// frames answer that carries most of hot_read's bytes, the small ranked
// and tracks answers that are most of its requests, and one page of a
// paged read (cursor included).
func benchResponses() map[string]*QueryResponse {
	rng := rand.New(rand.NewSource(1))
	streams := []string{"auburn_c", "city_a_d", "jacksonh", "lausanne"}
	wm := WatermarkVector{"auburn_c": 300, "city_a_d": 300, "jacksonh": 300, "lausanne": 300}
	items := func(n int) []Item {
		out := make([]Item, n)
		for i := range out {
			f := int64(rng.Intn(9000))
			out[i] = Item{Stream: streams[rng.Intn(4)], Frame: f, TimeSec: float64(f) / 30, Segment: f / 30, Score: 2 - float64(i)*rng.Float64()/100}
		}
		return out
	}
	tracks := make([]TrackItem, 10)
	for i := range tracks {
		f := int64(rng.Intn(8000))
		tracks[i] = TrackItem{Stream: streams[rng.Intn(4)], Track: int64(rng.Intn(400)), Object: int64(rng.Intn(90000)),
			StartFrame: f, EndFrame: f + 240, StartSec: float64(f) / 30, EndSec: float64(f+240) / 30, Sightings: 200, Score: 1 - float64(i)*rng.Float64()/50}
	}
	cur := Cursor{Expr: "(car&person)", Streams: streams, TopK: 100, At: wm, Offset: 20}
	return map[string]*QueryResponse{
		"frames_100KB": bigFrames(),
		"ranked_top10": {Expr: "(car&person)", Form: FormRanked, Watermarks: wm, Items: items(10), TotalItems: 10, TopK: 10,
			GTInferences: 96, GPUTimeMS: 499.2, LatencyMS: 49.92, Cached: true},
		"tracks_top10": {Expr: "(car&dur(5,0))", Form: FormTracks, Watermarks: wm, Tracks: tracks, TotalItems: 10, TopK: 10,
			GTInferences: 61, GPUTimeMS: 317.2, LatencyMS: 31.72, Cached: true},
		"paged_20": {Expr: "(car&person)", Form: FormRanked, Watermarks: wm, Items: items(20), TotalItems: 100, TopK: 100,
			Cursor: cur.Encode(), GTInferences: 96, GPUTimeMS: 499.2, LatencyMS: 49.92, Cached: true},
	}
}

var benchSink int

// BenchmarkQueryResponseCodec measures the hand-written codec beside the
// reflective oracle it replaced, per answer shape.
func BenchmarkQueryResponseCodec(b *testing.B) {
	responses := benchResponses()
	for _, shape := range []string{"frames_100KB", "ranked_top10", "tracks_top10", "paged_20"} {
		r := responses[shape]
		body := AppendQueryResponse(nil, r)
		b.Run(shape+"/append", func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			buf := make([]byte, 0, len(body))
			for i := 0; i < b.N; i++ {
				benchSink += len(AppendQueryResponse(buf[:0], r))
			}
		})
		b.Run(shape+"/decode", func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				var back QueryResponse
				if err := DecodeQueryResponse(body, &back); err != nil {
					b.Fatal(err)
				}
				benchSink += back.TotalItems
			}
		})
		b.Run(shape+"/oracle_marshal", func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				out, err := oracleMarshal(r)
				if err != nil {
					b.Fatal(err)
				}
				benchSink += len(out)
			}
		})
		b.Run(shape+"/oracle_unmarshal", func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				var back QueryResponse
				if err := oracleUnmarshal(body, &back); err != nil {
					b.Fatal(err)
				}
				benchSink += back.TotalItems
			}
		})
	}
}
