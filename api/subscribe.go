package api

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// PathSubscribe is the standing-query endpoint (POST, answers as a
// server-sent-event stream of SubscribeEvent frames).
const PathSubscribe = "/v1/subscribe"

// SSEVersion is the subscription frame-format version every event carries;
// decoders reject frames from a different major revision instead of
// misreading them.
const SSEVersion = 1

// SubscribeRequest is the POST /v1/subscribe body: a standing query. The
// predicate, stream set and options mean exactly what they mean on
// QueryRequest; the response is not one answer but a stream of deltas that
// track the answer as ingest watermarks advance.
type SubscribeRequest struct {
	// Expr is the predicate, as on QueryRequest. Required.
	Expr string `json:"expr"`
	// Streams restricts the subscription to these streams; empty = every
	// stream the service (or cluster) serves.
	Streams []string `json:"streams,omitempty"`
	// TopK, Kx, Start, End and MaxClusters apply as on QueryRequest: the
	// subscription tracks the answer of exactly that query shape.
	TopK        int     `json:"top_k,omitempty"`
	Kx          int     `json:"kx,omitempty"`
	Start       float64 `json:"start,omitempty"`
	End         float64 `json:"end,omitempty"`
	MaxClusters int     `json:"max_clusters,omitempty"`
	// Form optionally forces the response form: FormRanked (default for
	// boolean predicates) or FormTracks (default, and required, for
	// temporal predicates). The frames form has no delta shape and cannot
	// be subscribed to.
	Form string `json:"form,omitempty"`
	// Mode selects the ranked execution mode, as on QueryRequest.
	Mode string `json:"mode,omitempty"`
	// From resumes a subscription: the last watermark vector a previous
	// stream of deltas was delivered through. The first delta picks up
	// exactly there — no gaps, no duplicates. Empty subscribes from
	// genesis (the empty horizon); then the first delta carries the whole
	// current answer. When set, From must cover exactly the subscription's
	// resolved streams.
	From WatermarkVector `json:"from,omitempty"`
}

// SubscribeHello is the payload of the first event on every subscription
// stream: the resolved subscription in canonical form, echoed so the
// client can verify what it is tracking (and a resuming client can check
// it reattached to the same pure function).
type SubscribeHello struct {
	// Expr is the canonical predicate form.
	Expr string `json:"expr"`
	// Form is FormRanked or FormTracks.
	Form string `json:"form"`
	// Streams is the resolved target stream set, sorted.
	Streams []string `json:"streams"`
	// TopK, Kx, Start, End, MaxClusters and Mode echo the resolved options.
	TopK        int     `json:"top_k,omitempty"`
	Kx          int     `json:"kx,omitempty"`
	Start       float64 `json:"start,omitempty"`
	End         float64 `json:"end,omitempty"`
	MaxClusters int     `json:"max_clusters,omitempty"`
	Mode        string  `json:"mode,omitempty"`
}

// Delta is one edit of a subscription's answer: the difference between the
// query's full result at vector From and at vector To. Applying every
// delta in order from genesis reconstructs, bit for bit, the one-shot
// answer pinned at the last delta's To vector — the subscription analogue
// of the paged==one-shot invariant.
//
// Most advances only append (newly sealed clusters surface new matches),
// but answers are not monotone under watermark growth: a late-sealed
// cluster can raise an earlier frame's aggregate score, negation can
// retract a frame once the negated class verifies, TopK can displace
// items, and track identities are reassigned per vector. Removed items
// carry the full structs being retracted so application can verify them.
type Delta struct {
	// From and To are the watermark vectors the delta spans: it edits the
	// answer at From into the answer at To. A client's next delta always
	// has From equal to the previous delta's To.
	From WatermarkVector `json:"from"`
	To   WatermarkVector `json:"to"`

	// Items are the ranked items present at To but not at From, in rank
	// order; RemovedItems the ones present at From but not at To. Ranked
	// form only.
	Items        []Item `json:"items,omitempty"`
	RemovedItems []Item `json:"removed_items,omitempty"`

	// Tracks and RemovedTracks are the tracks-form counterparts.
	Tracks        []TrackItem `json:"tracks,omitempty"`
	RemovedTracks []TrackItem `json:"removed_tracks,omitempty"`

	// TotalItems is the full answer's size at To — the reassembled state's
	// expected length, a cheap cross-check after every application.
	TotalItems int `json:"total_items"`

	// GTInferences and GPUTimeMS are the cost of the evaluation that
	// produced this delta. Thanks to the engine's shared verdict cache the
	// marginal cost covers only clusters sealed since the last evaluation,
	// and all subscribers of one coalesced group share a single evaluation.
	GTInferences int     `json:"gt_inferences"`
	GPUTimeMS    float64 `json:"gpu_time_ms"`
}

// Subscription event types (SubscribeEvent.Type).
const (
	// EventHello opens every stream: payload SubscribeHello.
	EventHello = "hello"
	// EventDelta carries one Delta.
	EventDelta = "delta"
	// EventDrop ends a stream whose consumer fell behind the bounded event
	// queue: everything up to Resume was delivered (never a wrong or
	// partial delta); reconnect with From=Resume to continue gap-free.
	EventDrop = "drop"
	// EventBye ends a stream deliberately: Reason "complete" (every
	// stream's window fully ingested — no further advances will come) or
	// "draining" (the server is leaving rotation).
	EventBye = "bye"
)

// Terminal reasons (SubscribeEvent.Reason).
const (
	// ReasonComplete: ingest finished; the answer is final.
	ReasonComplete = "complete"
	// ReasonDraining: the server is draining for a restart.
	ReasonDraining = "draining"
	// ReasonSlowConsumer: the client outran the bounded event queue.
	ReasonSlowConsumer = "slow_consumer"
	// ReasonShardLost: a routed subscription lost one of its per-shard
	// legs (shard down, draining, or misbehaving); everything up to the
	// drop's Resume vector was delivered. Resubscribe with From=Resume
	// once the cluster heals.
	ReasonShardLost = "shard_lost"
	// ReasonMoved: the subscription touched a stream that was handed off
	// to another shard. Everything up to the delivered vector is intact;
	// resubscribing with From at that vector resumes against the new
	// owner (client.Subscriber does this transparently).
	ReasonMoved = "moved"
)

// SubscribeEvent is one frame of a subscription stream. Exactly one
// payload field is set, matching Type.
type SubscribeEvent struct {
	// V is the frame-format version (SSEVersion).
	V int `json:"v"`
	// Type is one of the Event* constants.
	Type string `json:"type"`
	// Hello is set on EventHello frames.
	Hello *SubscribeHello `json:"hello,omitempty"`
	// Delta is set on EventDelta frames.
	Delta *Delta `json:"delta,omitempty"`
	// Reason is set on EventDrop and EventBye frames.
	Reason string `json:"reason,omitempty"`
	// Resume is set on EventDrop frames: the vector through which deltas
	// were fully delivered; resubscribe with From=Resume.
	Resume WatermarkVector `json:"resume,omitempty"`
}

// Validate checks the event's internal consistency: version, a known
// type, and the payload shape that type demands. Both the encoder and the
// decoder enforce it, so a malformed event can neither be emitted nor
// accepted.
func (ev *SubscribeEvent) Validate() error {
	if ev.V != SSEVersion {
		return fmt.Errorf("subscribe event version %d, want %d", ev.V, SSEVersion)
	}
	switch ev.Type {
	case EventHello:
		if ev.Hello == nil {
			return fmt.Errorf("hello event without hello payload")
		}
		if ev.Delta != nil {
			return fmt.Errorf("hello event carrying a delta payload")
		}
		if ev.Hello.Form != FormRanked && ev.Hello.Form != FormTracks {
			return fmt.Errorf("hello form %q: want %q or %q", ev.Hello.Form, FormRanked, FormTracks)
		}
	case EventDelta:
		if ev.Delta == nil {
			return fmt.Errorf("delta event without delta payload")
		}
		if ev.Hello != nil {
			return fmt.Errorf("delta event carrying a hello payload")
		}
		if len(ev.Delta.From) == 0 || len(ev.Delta.To) == 0 {
			return fmt.Errorf("delta event with empty from/to vector")
		}
		if ev.Delta.TotalItems < 0 {
			return fmt.Errorf("delta event with negative total_items")
		}
	case EventDrop:
		if ev.Reason == "" {
			return fmt.Errorf("drop event without a reason")
		}
		if ev.Hello != nil || ev.Delta != nil {
			return fmt.Errorf("drop event carrying a payload")
		}
	case EventBye:
		if ev.Reason == "" {
			return fmt.Errorf("bye event without a reason")
		}
		if ev.Hello != nil || ev.Delta != nil {
			return fmt.Errorf("bye event carrying a payload")
		}
	default:
		return fmt.Errorf("unknown subscribe event type %q", ev.Type)
	}
	return nil
}

// EncodeSSEFrame renders the event as one server-sent-event frame:
//
//	event: <type>
//	data: <single-line JSON>
//	<blank line>
//
// The event is validated first; DecodeSSEFrame returns exactly the input
// for every frame this produces.
func EncodeSSEFrame(ev *SubscribeEvent) ([]byte, error) {
	if err := ev.Validate(); err != nil {
		return nil, err
	}
	data, err := json.Marshal(ev)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "event: %s\ndata: %s\n\n", ev.Type, data)
	return b.Bytes(), nil
}

// DecodeSSEFrame parses one server-sent-event frame into a validated
// SubscribeEvent. It accepts the standard SSE field grammar — "event:" and
// "data:" fields (multiple data lines join with newlines), ":" comment
// lines, and ignorable "id:"/"retry:" fields — and then enforces the
// subscription contract: the JSON payload must validate and its type must
// match the frame's event field. Anything else is an error, never a
// silently skipped or misread event.
func DecodeSSEFrame(frame []byte) (*SubscribeEvent, error) {
	eventType := ""
	terminated := false
	var data []string
	for _, line := range strings.Split(strings.TrimSuffix(string(frame), "\n"), "\n") {
		line = strings.TrimSuffix(line, "\r")
		switch {
		case line == "":
			// Blank line: the frame terminator. This decoder handles
			// exactly one frame, so content after it is an error, not a
			// silently merged second frame.
			if eventType != "" || len(data) > 0 {
				terminated = true
			}
		case terminated:
			return nil, fmt.Errorf("sse frame continues past its blank-line terminator")
		case strings.HasPrefix(line, ":"):
			// Comment line, ignored per the SSE grammar.
		default:
			field, value, ok := strings.Cut(line, ":")
			if !ok {
				return nil, fmt.Errorf("sse frame line %q: no field separator", line)
			}
			value = strings.TrimPrefix(value, " ")
			switch field {
			case "event":
				eventType = value
			case "data":
				data = append(data, value)
			case "id", "retry":
				// Valid SSE fields this protocol does not use.
			default:
				return nil, fmt.Errorf("sse frame field %q: not part of the subscribe protocol", field)
			}
		}
	}
	if eventType == "" {
		return nil, fmt.Errorf("sse frame without an event field")
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("sse frame without a data field")
	}
	var ev SubscribeEvent
	dec := json.NewDecoder(strings.NewReader(strings.Join(data, "\n")))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&ev); err != nil {
		return nil, fmt.Errorf("sse frame data: %v", err)
	}
	if err := ev.Validate(); err != nil {
		return nil, err
	}
	if ev.Type != eventType {
		return nil, fmt.Errorf("sse frame event field %q does not match payload type %q", eventType, ev.Type)
	}
	return &ev, nil
}

// SSEReader reads subscription frames off a stream, one blank-line-
// terminated frame at a time, decoding each through DecodeSSEFrame.
type SSEReader struct {
	r *bufio.Reader
}

// NewSSEReader wraps a subscription response body.
func NewSSEReader(r io.Reader) *SSEReader {
	return &SSEReader{r: bufio.NewReader(r)}
}

// Next returns the next event, or io.EOF when the stream ends cleanly
// between frames. A stream ending mid-frame is io.ErrUnexpectedEOF.
func (s *SSEReader) Next() (*SubscribeEvent, error) {
	var frame bytes.Buffer
	sawLine := false
	for {
		line, err := s.r.ReadString('\n')
		if err != nil {
			if err == io.EOF && frame.Len() == 0 && line == "" {
				return nil, io.EOF
			}
			if err == io.EOF {
				return nil, io.ErrUnexpectedEOF
			}
			return nil, err
		}
		if line == "\n" || line == "\r\n" {
			if !sawLine {
				// Leading blank lines between frames are padding.
				continue
			}
			return DecodeSSEFrame(frame.Bytes())
		}
		sawLine = true
		frame.WriteString(line)
	}
}

// VectorsEqual reports whether two watermark vectors pin the same horizon:
// same streams, same watermarks.
func VectorsEqual(a, b WatermarkVector) bool {
	if len(a) != len(b) {
		return false
	}
	for n, at := range a {
		bt, ok := b[n]
		if !ok || at != bt {
			return false
		}
	}
	return true
}
