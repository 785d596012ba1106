package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"focus/api"
)

// Subscriber is a standing query's client side: it consumes the SSE
// stream of POST /v1/subscribe, verifies the delta protocol (contiguous
// vectors, applicable edits), maintains the reassembled result, and
// reconnects transparently when the transport fails or the server sheds
// it as a slow consumer — resuming from the last delivered vector, so
// the delta sequence the caller observes has no gaps and no duplicates
// by construction.
//
// Create with Client.Subscribe, then call Recv until it returns io.EOF
// (server completed or drained the subscription — Reason tells which) or
// an error. Subscribers are not safe for concurrent use, except Close.
type Subscriber struct {
	c   *Client
	ctx context.Context
	// req is the original request; reconnects reissue it with From moved
	// to the last delivered vector.
	req   api.SubscribeRequest
	hello *api.SubscribeHello

	resp *http.Response
	rd   *api.SSEReader

	// reassemble is set when the subscription started from genesis: only
	// then does the delta stream reconstruct the full answer, so Items
	// and Tracks track state. A mid-stream resume (req.From set) still
	// verifies contiguity but leaves reassembly to the caller.
	reassemble bool
	items      []api.Item
	tracks     []api.TrackItem
	vector     api.WatermarkVector

	reason     string
	reconnects int
	closed     atomic.Bool
	// connMu guards resp against a concurrent Close (the one cross-
	// goroutine entry point).
	connMu sync.Mutex
}

// Subscribe opens a standing query against POST /v1/subscribe and returns
// after the server's hello frame. Typed rejections (bad expr, pin ahead,
// draining, …) come back as *api.Error.
func (c *Client) Subscribe(ctx context.Context, req *api.SubscribeRequest) (*Subscriber, error) {
	s := &Subscriber{c: c, ctx: ctx, req: *req}
	if len(req.From) > 0 {
		s.req.From = req.From.Clone()
	}
	hello, err := s.connect(s.req.From)
	if err != nil {
		return nil, err
	}
	s.hello = hello
	if len(s.req.From) > 0 {
		s.vector = s.req.From.Clone()
	} else {
		s.reassemble = true
		s.vector = make(api.WatermarkVector, len(hello.Streams))
		for _, name := range hello.Streams {
			s.vector[name] = 0
		}
	}
	return s, nil
}

// connect opens one SSE stream resuming from the given vector and reads
// its hello frame.
func (s *Subscriber) connect(from api.WatermarkVector) (*api.SubscribeHello, error) {
	req := s.req
	req.From = from
	body, err := json.Marshal(&req)
	if err != nil {
		return nil, fmt.Errorf("client: encoding subscribe request: %w", err)
	}
	hreq, err := http.NewRequestWithContext(s.ctx, http.MethodPost, s.c.base+api.PathSubscribe, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := s.c.httpc.Do(hreq)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return nil, api.DecodeError(resp.StatusCode, raw)
	}
	rd := api.NewSSEReader(resp.Body)
	ev, err := rd.Next()
	if err != nil {
		resp.Body.Close()
		return nil, fmt.Errorf("client: reading subscription hello: %w", err)
	}
	if ev.Type != api.EventHello {
		resp.Body.Close()
		return nil, fmt.Errorf("client: subscription opened with %q, want hello", ev.Type)
	}
	s.connMu.Lock()
	if s.closed.Load() {
		s.connMu.Unlock()
		resp.Body.Close()
		return nil, errSubscriberClosed
	}
	s.resp = resp
	s.rd = rd
	s.connMu.Unlock()
	return ev.Hello, nil
}

// errSubscriberClosed reports a Recv after Close.
var errSubscriberClosed = errors.New("client: subscriber is closed")

// Recv returns the next verified delta. On a transport failure or a typed
// slow-consumer drop it reconnects with From at the last delivered vector
// (retrying per the client's retry policy) and keeps going — the returned
// delta sequence stays contiguous either way. It returns io.EOF when the
// server ends the subscription with a terminal bye (Reason reports why),
// and an error for protocol violations, exhausted reconnects, context
// cancellation, or Close.
func (s *Subscriber) Recv() (*api.Delta, error) {
	for {
		if s.closed.Load() {
			return nil, errSubscriberClosed
		}
		ev, err := s.rd.Next()
		if err != nil {
			if err := s.reconnect(); err != nil {
				return nil, err
			}
			continue
		}
		switch ev.Type {
		case api.EventDelta:
			d := ev.Delta
			if !api.VectorsEqual(d.From, s.vector) {
				return nil, fmt.Errorf("client: delta From %v does not continue the delivered vector %v",
					d.From, s.vector)
			}
			if s.reassemble {
				if s.hello.Form == api.FormTracks {
					s.tracks, err = api.ApplyDelta(s.tracks, d.Tracks, d.RemovedTracks, d.TotalItems)
				} else {
					s.items, err = api.ApplyDelta(s.items, d.Items, d.RemovedItems, d.TotalItems)
				}
				if err != nil {
					return nil, fmt.Errorf("client: delta does not apply: %w", err)
				}
			}
			s.vector = d.To.Clone()
			return d, nil
		case api.EventDrop:
			// The server shed us. Everything it enqueued before the drop
			// was delivered in order, so its resume point must be exactly
			// our delivered vector; anything else lost a delta.
			if !api.VectorsEqual(ev.Resume, s.vector) {
				return nil, fmt.Errorf("client: drop resume %v does not match the delivered vector %v",
					ev.Resume, s.vector)
			}
			if err := s.reconnect(); err != nil {
				return nil, err
			}
		case api.EventBye:
			if ev.Reason == api.ReasonMoved && !s.c.terminalMoves {
				// A stream of this subscription was handed off to another
				// shard. Everything up to the delivered vector was
				// delivered before the move (the source seals and drains
				// before releasing), so resuming from it against the new
				// owner keeps the delta sequence contiguous — the move is
				// invisible to the caller apart from Reconnects.
				if err := s.reconnect(); err != nil {
					return nil, err
				}
				continue
			}
			s.reason = ev.Reason
			s.Close()
			return nil, io.EOF
		default:
			return nil, fmt.Errorf("client: unexpected %q mid-subscription", ev.Type)
		}
	}
}

// reconnect re-subscribes from the last delivered vector, verifying the
// server still resolves the identical subscription.
func (s *Subscriber) reconnect() error {
	s.connMu.Lock()
	if s.resp != nil {
		s.resp.Body.Close()
		s.resp = nil
	}
	s.connMu.Unlock()
	var lastErr error
	for attempt := 0; attempt <= s.c.retries; attempt++ {
		if s.closed.Load() {
			return errSubscriberClosed
		}
		hello, err := s.connect(s.vector.Clone())
		if err == nil {
			if !reflect.DeepEqual(hello, s.hello) {
				s.connMu.Lock()
				s.resp.Body.Close()
				s.resp = nil
				s.connMu.Unlock()
				return fmt.Errorf("client: subscription changed across reconnect: %+v != %+v", hello, s.hello)
			}
			s.reconnects++
			return nil
		}
		lastErr = err
		var typed *api.Error
		if errors.As(err, &typed) && !s.resumeRetryable(typed) {
			return err
		}
		select {
		case <-s.ctx.Done():
			return s.ctx.Err()
		case <-time.After(s.c.retryDelay(attempt, "")):
		}
	}
	return fmt.Errorf("client: subscription reconnect exhausted: %w", lastErr)
}

// resumeRetryable reports whether a typed rejection of a resume attempt
// is worth backing off on. Beyond the client's normal retry classes, a
// resume rides through not_ready and unavailable: both are the transient
// shapes of a cluster mid-transition (a handoff flipping ownership, a
// shard mid-recovery), and the resume point is durable — retrying cannot
// deliver anything twice.
func (s *Subscriber) resumeRetryable(e *api.Error) bool {
	if s.c.retryable(e) {
		return true
	}
	return e.Code == api.CodeNotReady || e.Code == api.CodeUnavailable
}

// Hello returns the server's resolved echo of the subscription.
func (s *Subscriber) Hello() *api.SubscribeHello { return s.hello }

// Vector returns the watermark vector through which deltas have been
// delivered (the resume point).
func (s *Subscriber) Vector() api.WatermarkVector { return s.vector.Clone() }

// Reassembling reports whether the subscriber tracks the full reassembled
// answer (true exactly when the subscription started from genesis).
func (s *Subscriber) Reassembling() bool { return s.reassemble }

// Items returns the reassembled ranked answer at Vector. Valid only when
// Reassembling and the subscription's form is ranked.
func (s *Subscriber) Items() []api.Item { return s.items }

// Tracks returns the reassembled tracks answer at Vector. Valid only when
// Reassembling and the subscription's form is tracks.
func (s *Subscriber) Tracks() []api.TrackItem { return s.tracks }

// Reason returns the terminal bye's reason after Recv returned io.EOF.
func (s *Subscriber) Reason() string { return s.reason }

// Reconnects counts transparent resumes (transport failures and typed
// drops) the subscriber rode through.
func (s *Subscriber) Reconnects() int { return s.reconnects }

// Close tears the subscription down; subsequent Recv calls fail. Safe to
// call from another goroutine to abort a blocked Recv, and idempotent.
func (s *Subscriber) Close() {
	if s.closed.Swap(true) {
		return
	}
	s.connMu.Lock()
	if s.resp != nil {
		s.resp.Body.Close()
	}
	s.connMu.Unlock()
}
