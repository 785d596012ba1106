package api

import (
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"

	"focus/internal/plan"
	"focus/internal/track"
	"focus/internal/video"
)

func validHello() *SubscribeEvent {
	return &SubscribeEvent{V: SSEVersion, Type: EventHello, Hello: &SubscribeHello{
		Expr: "(car&person)", Form: FormRanked, Streams: []string{"auburn_c", "jacksonh"}, TopK: 5,
	}}
}

func validDelta() *SubscribeEvent {
	return &SubscribeEvent{V: SSEVersion, Type: EventDelta, Delta: &Delta{
		From:       WatermarkVector{"auburn_c": 0, "jacksonh": 0},
		To:         WatermarkVector{"auburn_c": 5, "jacksonh": 5},
		Items:      []Item{{Stream: "auburn_c", Frame: 30, TimeSec: 1, Segment: 1, Score: 1.5}},
		TotalItems: 1, GTInferences: 3, GPUTimeMS: 2.5,
	}}
}

// TestSubscribeEventValidate pins the event contract: exactly the payload
// shape the type demands, nothing else.
func TestSubscribeEventValidate(t *testing.T) {
	good := []*SubscribeEvent{
		validHello(),
		validDelta(),
		{V: SSEVersion, Type: EventDrop, Reason: ReasonSlowConsumer, Resume: WatermarkVector{"a": 5}},
		{V: SSEVersion, Type: EventBye, Reason: ReasonComplete},
		{V: SSEVersion, Type: EventBye, Reason: ReasonDraining},
	}
	for _, ev := range good {
		if err := ev.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", ev, err)
		}
	}
	bad := []*SubscribeEvent{
		{V: 0, Type: EventBye, Reason: ReasonComplete},
		{V: 2, Type: EventBye, Reason: ReasonComplete},
		{V: SSEVersion, Type: "surprise"},
		{V: SSEVersion, Type: EventHello},
		{V: SSEVersion, Type: EventHello, Hello: &SubscribeHello{Expr: "car", Form: "frames"}},
		{V: SSEVersion, Type: EventHello, Hello: validHello().Hello, Delta: validDelta().Delta},
		{V: SSEVersion, Type: EventDelta},
		{V: SSEVersion, Type: EventDelta, Delta: &Delta{To: WatermarkVector{"a": 1}}},
		{V: SSEVersion, Type: EventDelta, Delta: &Delta{From: WatermarkVector{"a": 0}}},
		{V: SSEVersion, Type: EventDelta, Delta: &Delta{
			From: WatermarkVector{"a": 0}, To: WatermarkVector{"a": 1}, TotalItems: -1}},
		{V: SSEVersion, Type: EventDelta, Delta: validDelta().Delta, Hello: validHello().Hello},
		{V: SSEVersion, Type: EventDrop},
		{V: SSEVersion, Type: EventDrop, Reason: ReasonSlowConsumer, Hello: validHello().Hello},
		{V: SSEVersion, Type: EventBye},
		{V: SSEVersion, Type: EventBye, Reason: ReasonComplete, Delta: validDelta().Delta},
	}
	for _, ev := range bad {
		if err := ev.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted an invalid event", ev)
		}
	}
}

// TestSSEFrameRoundTrip pins encode/decode as exact inverses for every
// event type.
func TestSSEFrameRoundTrip(t *testing.T) {
	events := []*SubscribeEvent{
		validHello(),
		validDelta(),
		{V: SSEVersion, Type: EventDrop, Reason: ReasonSlowConsumer, Resume: WatermarkVector{"a": 5}},
		{V: SSEVersion, Type: EventBye, Reason: ReasonComplete},
	}
	for _, ev := range events {
		frame, err := EncodeSSEFrame(ev)
		if err != nil {
			t.Fatalf("EncodeSSEFrame(%+v): %v", ev, err)
		}
		back, err := DecodeSSEFrame(frame)
		if err != nil {
			t.Fatalf("DecodeSSEFrame(%q): %v", frame, err)
		}
		if !reflect.DeepEqual(ev, back) {
			t.Fatalf("round trip drifted:\nsent: %+v\ngot:  %+v", ev, back)
		}
	}
	if _, err := EncodeSSEFrame(&SubscribeEvent{V: SSEVersion, Type: "nope"}); err == nil {
		t.Fatal("EncodeSSEFrame accepted an invalid event")
	}
}

// TestDecodeSSEFrameGrammar exercises the SSE field grammar the decoder
// accepts (comments, CRLF, multi-line data, ignorable fields) and the
// forged shapes it must reject.
func TestDecodeSSEFrameGrammar(t *testing.T) {
	byeData := `{"v":1,"type":"bye","reason":"complete"}`
	accept := []string{
		"event: bye\ndata: " + byeData + "\n\n",
		"event: bye\ndata: " + byeData + "\n",
		"event: bye\ndata: " + byeData,
		"event: bye\r\ndata: " + byeData + "\r\n\r\n",
		": a comment\nevent: bye\ndata: " + byeData + "\n\n",
		"id: 7\nretry: 100\nevent: bye\ndata: " + byeData + "\n\n",
		// Data split across lines joins with newlines — still valid JSON.
		"event: bye\ndata: {\"v\":1,\"type\":\"bye\",\ndata: \"reason\":\"complete\"}\n\n",
	}
	for _, frame := range accept {
		ev, err := DecodeSSEFrame([]byte(frame))
		if err != nil {
			t.Errorf("DecodeSSEFrame(%q): %v", frame, err)
			continue
		}
		if ev.Type != EventBye || ev.Reason != ReasonComplete {
			t.Errorf("DecodeSSEFrame(%q) = %+v", frame, ev)
		}
	}
	reject := []string{
		"",
		"data: " + byeData + "\n\n", // no event field
		"event: bye\n\n",            // no data
		"event: delta\ndata: " + byeData + "\n\n",   // type mismatch
		"event: bye\ndata: not json\n\n",            // bad payload
		"event: bye\ndata: {}\n\n",                  // fails validation
		"bogus line\n",                              // no separator
		"poke: x\nevent: bye\ndata: " + byeData,     // unknown field
		"event: bye\ndata: " + byeData + "\n\nmore", // content past terminator
		"event: bye\ndata: {\"v\":1,\"type\":\"bye\",\"reason\":\"complete\",\"x\":1}\n\n", // unknown JSON field
	}
	for _, frame := range reject {
		if ev, err := DecodeSSEFrame([]byte(frame)); err == nil {
			t.Errorf("DecodeSSEFrame(%q) accepted: %+v", frame, ev)
		}
	}
}

// TestSSEReader pins the stream framing: frames split on blank lines, io.EOF
// between frames, io.ErrUnexpectedEOF inside one.
func TestSSEReader(t *testing.T) {
	var stream strings.Builder
	events := []*SubscribeEvent{validHello(), validDelta(), {V: SSEVersion, Type: EventBye, Reason: ReasonComplete}}
	for _, ev := range events {
		frame, err := EncodeSSEFrame(ev)
		if err != nil {
			t.Fatal(err)
		}
		stream.Write(frame)
	}
	rd := NewSSEReader(strings.NewReader(stream.String()))
	for i, want := range events {
		got, err := rd.Next()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("event %d: got %+v, want %+v", i, got, want)
		}
	}
	if _, err := rd.Next(); err != io.EOF {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
	rd = NewSSEReader(strings.NewReader("event: bye\ndata: {\"v\":1,"))
	if _, err := rd.Next(); err != io.ErrUnexpectedEOF {
		t.Fatalf("mid-frame EOF: %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestRankComparatorsMatchEngine pins the wire-layer comparators to the
// engine's: Item.RankBefore must agree with plan.RankBefore and
// TrackItem.RankBefore with track.RankBefore on every ordered pair, ties
// included, or routed merges and delta diffs would drift from the
// rankings servers actually emit.
func TestRankComparatorsMatchEngine(t *testing.T) {
	var items []Item
	for _, score := range []float64{2.5, 1.0} {
		for _, stream := range []string{"a", "b"} {
			for _, frame := range []int64{10, 40} {
				items = append(items, Item{Stream: stream, Frame: frame, Score: score})
			}
		}
	}
	for _, a := range items {
		for _, b := range items {
			pa := plan.Item{Stream: a.Stream, Frame: video.FrameID(a.Frame), Score: a.Score}
			pb := plan.Item{Stream: b.Stream, Frame: video.FrameID(b.Frame), Score: b.Score}
			if ItemRankBefore(a, b) != plan.RankBefore(pa, pb) {
				t.Fatalf("ItemRankBefore(%+v, %+v) disagrees with plan.RankBefore", a, b)
			}
		}
	}
	var tracks []TrackItem
	for _, score := range []float64{2.5, 1.0} {
		for _, stream := range []string{"a", "b"} {
			for _, start := range []float64{1.5, 8} {
				for _, id := range []int64{0, 3} {
					tracks = append(tracks, TrackItem{Stream: stream, StartSec: start, Track: id, Score: score})
				}
			}
		}
	}
	for _, a := range tracks {
		for _, b := range tracks {
			ta := track.Item{Stream: a.Stream, StartSec: a.StartSec, Track: a.Track, Score: a.Score}
			tb := track.Item{Stream: b.Stream, StartSec: b.StartSec, Track: b.Track, Score: b.Score}
			if a.RankBefore(b) != track.RankBefore(ta, tb) {
				t.Fatalf("TrackItem.RankBefore(%+v, %+v) disagrees with track.RankBefore", a, b)
			}
		}
	}
}

func sorted[T Ranked[T]](items ...T) []T {
	slices.SortFunc(items, RankCompare[T])
	return items
}

// checkDiffApply pins the delta algebra for one item type over a walk of
// answer states: applying diff(prev, next) to prev reconstructs next
// exactly, additions and retractions included, and diffs compose — one
// diff from the first state to the last reconstructs it in a single step.
func checkDiffApply[T Ranked[T]](t *testing.T, states ...[]T) {
	t.Helper()
	state := append([]T(nil), states[0]...)
	for i := 1; i < len(states); i++ {
		added, removed := Diff(states[i-1], states[i])
		var err error
		state, err = ApplyDelta(state, added, removed, len(states[i]))
		if err != nil {
			t.Fatalf("applying delta %d: %v", i, err)
		}
		if !reflect.DeepEqual(state, states[i]) {
			t.Fatalf("state after delta %d: %v, want %v", i, state, states[i])
		}
	}
	last := states[len(states)-1]
	added, removed := Diff(states[0], last)
	state, err := ApplyDelta(states[0], added, removed, len(last))
	if err != nil || !reflect.DeepEqual(state, last) {
		t.Fatalf("one-step reassembly: %v (%v), want %v", state, err, last)
	}
}

// TestDiffApplyItems runs the delta algebra on the ranked form, through
// the generic core and through the typed entry points.
func TestDiffApplyItems(t *testing.T) {
	it := func(stream string, frame int64, score float64) Item {
		return Item{Stream: stream, Frame: frame, TimeSec: float64(frame) / 30, Segment: frame / 30, Score: score}
	}
	s0 := []Item{}
	s1 := sorted(it("a", 30, 2), it("b", 60, 1.5))
	// s2 retracts b/60, rescores a/30 (same frame, new score: a
	// remove+add pair), and appends two new frames.
	s2 := sorted(it("a", 30, 2.5), it("a", 90, 1.2), it("b", 120, 0.7))
	s3 := sorted(it("a", 30, 2.5), it("a", 90, 1.2))
	checkDiffApply(t, s0, s1, s2, s3)

	added, removed := DiffItems(s0, s3)
	if len(removed) != 0 {
		t.Fatalf("diff from empty has removals: %v", removed)
	}
	state, err := ApplyDeltaItems(nil, &Delta{
		From: WatermarkVector{"a": 0}, To: WatermarkVector{"a": 3},
		Items: added, TotalItems: len(s3),
	})
	if err != nil || !reflect.DeepEqual(state, s3) {
		t.Fatalf("one-step reassembly: %v (%v), want %v", state, err, s3)
	}
}

// TestDiffApplyTracks is the same algebra instantiated for the tracks
// form, including the same-rank-key replacement case (a track that grew
// new sightings while keeping its score, start and ID).
func TestDiffApplyTracks(t *testing.T) {
	tr := func(stream string, id int64, start, score float64, sightings int) TrackItem {
		return TrackItem{Stream: stream, Track: id, Object: id, StartFrame: int64(start * 30),
			EndFrame: int64(start*30) + 50, StartSec: start, EndSec: start + 2, Sightings: sightings, Score: score}
	}
	prev := sorted(tr("a", 0, 1, 2, 4), tr("b", 1, 3, 1, 6))
	next := sorted(tr("a", 0, 1, 2, 9), tr("a", 2, 6, 0.5, 3))
	added, removed := Diff(prev, next)
	// a/0 keeps its rank key but changed Sightings: must surface as a
	// removal plus an addition, never a silent in-place mutation.
	if len(added) != 2 || len(removed) != 2 {
		t.Fatalf("diff: added %v removed %v", added, removed)
	}
	checkDiffApply(t, []TrackItem{}, prev, next)
}

// checkApplyRejects: a delta that does not fit the reassembled state must
// error, never corrupt it. held is the one item the state holds, other an
// item it does not.
func checkApplyRejects[T Ranked[T]](t *testing.T, held, other T) {
	t.Helper()
	state := []T{held}
	cases := []struct {
		added, removed []T
		total          int
	}{
		{removed: []T{other}, total: 0},      // removes an item the state does not hold
		{added: []T{held}, total: 2},         // adds an item already present
		{added: []T{other}, total: 5},        // declares the wrong total
		{removed: []T{held, held}, total: 0}, // removes more than the state holds
	}
	for i, c := range cases {
		if _, err := ApplyDelta(state, c.added, c.removed, c.total); err == nil {
			t.Errorf("case %d: ApplyDelta accepted a bad delta", i)
		}
	}
}

// TestApplyDeltaRejectsProtocolViolations instantiates the rejection table
// for both forms.
func TestApplyDeltaRejectsProtocolViolations(t *testing.T) {
	checkApplyRejects(t, Item{Stream: "a", Frame: 30, Score: 2}, Item{Stream: "a", Frame: 60, Score: 1})
	checkApplyRejects(t, TrackItem{Stream: "a", Track: 1, Score: 2}, TrackItem{Stream: "a", Track: 2, Score: 1})
}

// TestVectorsEqual pins vector equality semantics.
func TestVectorsEqual(t *testing.T) {
	a := WatermarkVector{"x": 5, "y": 10}
	if !VectorsEqual(a, WatermarkVector{"y": 10, "x": 5}) {
		t.Fatal("equal vectors compared unequal")
	}
	for _, b := range []WatermarkVector{nil, {"x": 5}, {"x": 5, "y": 11}, {"x": 5, "z": 10}, {"x": 5, "y": 10, "z": 0}} {
		if VectorsEqual(a, b) {
			t.Fatalf("VectorsEqual(%v, %v) = true", a, b)
		}
	}
	if !VectorsEqual(nil, WatermarkVector{}) {
		t.Fatal("nil and empty vectors should compare equal")
	}
}
