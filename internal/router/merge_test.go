package router

import (
	"reflect"
	"testing"

	"focus/api"
)

func TestMergeFramesAggregates(t *testing.T) {
	parts := []*api.QueryResponse{
		{Form: api.FormFrames, Streams: map[string]*api.StreamResult{
			"b": {Frames: []int64{4, 5}, GPUTimeMS: 2.5, LatencyMS: 9},
			"c": {Frames: []int64{6}, GPUTimeMS: 1.25, LatencyMS: 3},
		}, Watermarks: api.WatermarkVector{"b": 30, "c": 30}, Cached: true},
		{Form: api.FormFrames, Streams: map[string]*api.StreamResult{
			"a": {Frames: []int64{1, 2, 3}, GPUTimeMS: 0.5, LatencyMS: 7},
		}, Watermarks: api.WatermarkVector{"a": 30}, Cached: false},
	}
	out, err := mergeParts(api.FormFrames, 0, parts)
	if err != nil {
		t.Fatal(err)
	}
	if out.TotalFrames != 6 {
		t.Fatalf("TotalFrames = %d, want 6", out.TotalFrames)
	}
	// Sum order mirrors a direct query: sorted stream names, not shard
	// arrival order.
	if want := 0.5 + 2.5 + 1.25; out.GPUTimeMS != want {
		t.Fatalf("GPUTimeMS = %g, want %g", out.GPUTimeMS, want)
	}
	if out.LatencyMS != 9 {
		t.Fatalf("LatencyMS = %g, want max 9", out.LatencyMS)
	}
	if out.Cached {
		t.Fatal("merged response claims cached although one shard missed")
	}
	if len(out.Streams) != 3 || len(out.Watermarks) != 3 {
		t.Fatalf("merged %d streams / %d watermarks, want 3/3", len(out.Streams), len(out.Watermarks))
	}
}

func TestMergeFramesRejectsDuplicateStream(t *testing.T) {
	parts := []*api.QueryResponse{
		{Form: api.FormFrames, Streams: map[string]*api.StreamResult{"a": {}}},
		{Form: api.FormFrames, Streams: map[string]*api.StreamResult{"a": {}}},
	}
	if _, err := mergeParts(api.FormFrames, 0, parts); err == nil {
		t.Fatal("expected an error for a stream answered by two shards")
	}
}

func TestMergeRejectsMixedForms(t *testing.T) {
	if _, err := mergeParts(api.FormFrames, 0, []*api.QueryResponse{{Form: api.FormRanked}}); err == nil {
		t.Fatal("frames merge accepted a ranked part")
	}
	if _, err := mergeParts(api.FormRanked, 0, []*api.QueryResponse{{Form: api.FormFrames}}); err == nil {
		t.Fatal("ranked merge accepted a frames part")
	}
	if _, err := mergeParts(api.FormTracks, 0, []*api.QueryResponse{{Form: api.FormRanked}}); err == nil {
		t.Fatal("tracks merge accepted a ranked part")
	}
}

func TestMergeRankedTopKAndOrder(t *testing.T) {
	parts := []*api.QueryResponse{
		{
			Form: api.FormRanked,
			Expr: "(car&person)",
			Items: []api.Item{
				{Stream: "a", Frame: 1, Score: 5},
				{Stream: "a", Frame: 9, Score: 2},
			},
			TotalItems:   2,
			Watermarks:   api.WatermarkVector{"a": 30},
			GTInferences: 4, GPUTimeMS: 2, LatencyMS: 10,
			Cached: true,
		},
		{
			Form: api.FormRanked,
			Expr: "(car&person)",
			Items: []api.Item{
				{Stream: "b", Frame: 2, Score: 7},
				{Stream: "b", Frame: 3, Score: 2},
			},
			TotalItems:   2,
			Watermarks:   api.WatermarkVector{"b": 25},
			GTInferences: 6, GPUTimeMS: 3, LatencyMS: 8,
			Cached: true,
		},
	}
	out, err := mergeParts(api.FormRanked, 3, parts)
	if err != nil {
		t.Fatal(err)
	}
	want := []api.Item{
		{Stream: "b", Frame: 2, Score: 7},
		{Stream: "a", Frame: 1, Score: 5},
		// Score tie at 2: stream "a" ranks before "b".
		{Stream: "a", Frame: 9, Score: 2},
	}
	if !reflect.DeepEqual(out.Items, want) {
		t.Fatalf("merged items %+v, want %+v", out.Items, want)
	}
	if out.TotalItems != 3 {
		t.Fatalf("TotalItems = %d, want 3 (TopK)", out.TotalItems)
	}
	if out.GTInferences != 10 || out.GPUTimeMS != 5 || out.LatencyMS != 10 {
		t.Fatalf("cost merge wrong: %+v", out)
	}
	if !out.Cached {
		t.Fatal("all shards cached; merged response should be cached")
	}
	if out.Watermarks["a"] != 30 || out.Watermarks["b"] != 25 {
		t.Fatalf("watermark union wrong: %v", out.Watermarks)
	}
}

func TestMergeRankedFailsLoudly(t *testing.T) {
	if _, err := mergeParts(api.FormRanked, 0, []*api.QueryResponse{
		{Form: api.FormRanked, Expr: "car"}, {Form: api.FormRanked, Expr: "(car&person)"},
	}); err == nil {
		t.Fatal("expected an error for disagreeing canonical forms")
	}
	if _, err := mergeParts(api.FormRanked, 0, []*api.QueryResponse{
		{Form: api.FormRanked, Expr: "car", Items: []api.Item{{Stream: "a"}}, TotalItems: 5},
	}); err == nil {
		t.Fatal("expected an error for a paged shard response")
	}
	if _, err := mergeParts(api.FormRanked, 0, []*api.QueryResponse{
		{Form: api.FormRanked, Expr: "car", Watermarks: api.WatermarkVector{"a": 1}},
		{Form: api.FormRanked, Expr: "car", Watermarks: api.WatermarkVector{"a": 2}},
	}); err == nil {
		t.Fatal("expected an error for overlapping stream ownership")
	}
	// Every echoed option is checked for every form: a mixed-version shard
	// echoing a different top_k or window must not be merged silently (the
	// continuation cursor is minted from the echo).
	if _, err := mergeParts(api.FormRanked, 5, []*api.QueryResponse{
		{Form: api.FormRanked, Expr: "car", TopK: 5}, {Form: api.FormRanked, Expr: "car", TopK: 7},
	}); err == nil {
		t.Fatal("expected an error for ranked shards disagreeing on top_k")
	}
	if _, err := mergeParts(api.FormTracks, 0, []*api.QueryResponse{
		{Form: api.FormTracks, Expr: "(car&dur(5,0))", Start: 10, End: 40},
		{Form: api.FormTracks, Expr: "(car&dur(5,0))", Start: 10, End: 50},
	}); err == nil {
		t.Fatal("expected an error for tracks shards disagreeing on the window")
	}
}
