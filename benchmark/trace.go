package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"focus/api"
)

// Everything below the handler wrapper is measured from outside: the
// served request is replayed on the twin after the timed phase, each
// layer's public entry point is timed there, and the replayed durations
// are placed inside the server-side span that was observed. A replayed
// child that does not fit in its parent shows up as unaccounted time, so
// the breakdown cannot drift away from what was served without saying so.

// legCapture keeps the shards' replies of a traced run by leg span id.
type legCapture struct {
	mu     sync.Mutex
	bodies map[int64][]byte
}

func (c *legCapture) body(span int64) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bodies[span]
}

// legTransport is the RoundTripper handed to the router: it records a
// span around every /v1/query sub-request (ending when the router has
// read the whole reply), tags the sub-request so that the shard's handler
// span hangs under it, and keeps the reply for replay.
type legTransport struct {
	base    http.RoundTripper
	rec     *recorder
	capture *legCapture
}

func (t *legTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Path != api.PathQuery || r.Body == nil {
		return t.base.RoundTrip(r)
	}
	raw, err := io.ReadAll(r.Body)
	r.Body.Close()
	if err != nil {
		return nil, err
	}
	var sub api.QueryRequest
	_ = json.Unmarshal(raw, &sub) // a body the router built; a bad one only loses the signature
	id := t.rec.newID()
	r = r.Clone(r.Context())
	r.Body = io.NopCloser(bytes.NewReader(raw))
	r.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	start := t.rec.now()
	resp, err := t.base.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	resp.Body = &legBody{ReadCloser: resp.Body, t: t, id: id, start: start, sig: sigOf(sub.Start, sub.End)}
	return resp, nil
}

// legBody ends the leg's span when the router closes the reply body.
type legBody struct {
	io.ReadCloser
	t     *legTransport
	id    int64
	start int64
	sig   string
	buf   bytes.Buffer
	once  sync.Once
}

func (b *legBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.buf.Write(p[:n])
	return n, err
}

func (b *legBody) Close() error {
	b.once.Do(func() {
		b.t.rec.add(span{ID: b.id, Name: "router.leg", Start: b.start, End: b.t.rec.now(), Sig: b.sig})
		b.t.capture.mu.Lock()
		b.t.capture.bodies[b.id] = b.buf.Bytes()
		b.t.capture.mu.Unlock()
	})
	return b.ReadCloser.Close()
}

// linkLegs gives every router.leg span its parent — the router.handler
// span that contains it in time and whose client asked for the same
// window — and then keeps what hangs under a root, handing the root's
// request id and class down the tree. Legs of untraced requests find no
// parent and go, with the shard spans under them.
func linkLegs(spans []span) []span {
	byID := make(map[int64]span, len(spans))
	var handlers []span
	for _, s := range spans {
		byID[s.ID] = s
		if s.Name == "router.handler" {
			handlers = append(handlers, s)
		}
	}
	children := make(map[int64][]span)
	var frontier []span
	for _, s := range spans {
		if s.Name == "router.leg" {
			for _, h := range handlers {
				if h.Start <= s.Start && s.End <= h.End && byID[h.Parent].Sig == s.Sig {
					s.Parent = h.ID
					break
				}
			}
			if s.Parent == 0 {
				continue
			}
		}
		if s.Parent == 0 {
			frontier = append(frontier, s)
		} else {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out []span
	for len(frontier) > 0 {
		s := frontier[0]
		frontier = frontier[1:]
		out = append(out, s)
		for _, c := range children[s.ID] {
			c.Req, c.Class = s.Req, s.Class
			frontier = append(frontier, c)
		}
	}
	return out
}

// layerTimes is what replaying one served response measured, in
// nanoseconds, ready to be placed under the handler span that served it.
type layerTimes struct {
	rep      *replayed
	executed bool  // false for a cache hit: the server executed nothing
	stallNS  int64 // simulated GPU latency × pace, for an uncached answer under pacing
	encodeNS int64
	decodeNS int64
	cursorNS int64
	respKB   float64
}

// measureCodec times the api layer on the served response: encoding it as
// the server did, decoding it as the client did, and a cursor round trip
// when it carries one.
func measureCodec(got *api.QueryResponse, lt *layerTimes) {
	t0 := time.Now()
	raw, err := json.Marshal(got)
	lt.encodeNS = int64(time.Since(t0))
	if err != nil {
		return
	}
	lt.respKB = float64(len(raw)) / 1024
	var back api.QueryResponse
	t0 = time.Now()
	_ = json.Unmarshal(raw, &back)
	lt.decodeNS = int64(time.Since(t0))
	if got.Cursor != "" {
		t0 = time.Now()
		if cur, err := api.DecodeCursor(got.Cursor); err == nil {
			_ = cur.Encode()
		}
		lt.cursorNS = int64(time.Since(t0))
	}
}

// place lays replayed children one after another from the start of the
// observed parent span.
func place(rec *recorder, parent span, names []string, durs []int64) {
	at := parent.Start
	for i, name := range names {
		if durs[i] <= 0 {
			continue
		}
		rec.add(span{ID: rec.newID(), Parent: parent.ID, Req: parent.Req, Class: parent.Class,
			Name: name, Start: at, End: at + durs[i], Replayed: true})
		at += durs[i]
	}
}

// placeAtEnd puts one replayed child at the end of its parent: the decode
// is the last thing a client does with a response.
func placeAtEnd(rec *recorder, parent span, name string, dur int64) {
	if dur > 0 {
		rec.add(span{ID: rec.newID(), Parent: parent.ID, Req: parent.Req, Class: parent.Class,
			Name: name, Start: parent.End - dur, End: parent.End, Replayed: true})
	}
}

// placeServed hangs a response's replayed layers under the handler span
// that served it.
func placeServed(rec *recorder, handler span, lt *layerTimes) {
	names := []string{"plan.compile", lt.rep.layer + ".execute", "gpu.stall", "api.encode"}
	if lt.rep.layer == "track" {
		names[0] = "track.compile"
	}
	durs := []int64{lt.rep.compileNS, 0, lt.stallNS, lt.encodeNS}
	if lt.executed {
		durs[1] = lt.rep.executeNS
	}
	place(rec, handler, names, durs)
}
