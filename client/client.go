// Package client is the typed Go client of the Focus v1 wire API
// (focus/api): one client speaks to a single focus-serve process and to a
// focus-router fronting many shards identically, because both serve the
// same contract. Every in-repo consumer of the HTTP surface — the focus
// CLI's server mode, the load generator, the cluster harness — goes
// through this package, so there is exactly one implementation of URL
// construction, error decoding, retry policy, and cursor iteration.
//
// Errors are returned as *api.Error whenever the server produced one
// (branch with api.IsCode); transport failures come back as ordinary
// errors. By default the client retries overloaded (admission-control 429)
// responses with linear backoff — the one error class where an immediate
// retry is exactly right — and treats everything else as final. Opt into
// draining tolerance (WithDrainingTolerance) only for clients that are
// expected to ride through rolling restarts.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"focus/api"
)

// Client is a typed v1 API client. Create with New; the zero value is not
// usable. Clients are safe for concurrent use.
type Client struct {
	base             string
	httpc            *http.Client
	retries          int
	backoff          time.Duration
	tolerateDraining bool
	terminalMoves    bool
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (tests inject
// one; servers embedding the client tune transports).
func WithHTTPClient(h *http.Client) Option {
	return func(c *Client) { c.httpc = h }
}

// WithRetries sets how many times a retryable response (overloaded; plus
// draining, with WithDrainingTolerance) is retried, and the base backoff
// between attempts. The wait doubles each attempt and is jittered across
// [wait/2, wait] so clients rejected together do not retry together; a
// server-sent Retry-After overrides the computed wait. Zero retries makes
// every response final — load generators use this to observe raw 429s.
func WithRetries(n int, backoff time.Duration) Option {
	return func(c *Client) { c.retries, c.backoff = n, backoff }
}

// WithDrainingTolerance makes draining responses retryable like
// overloaded ones: the client backs off and retries, riding through a
// rolling restart instead of failing. Off by default — in steady state a
// draining response is as unexpected as any other 5xx.
func WithDrainingTolerance() Option {
	return func(c *Client) { c.tolerateDraining = true }
}

// WithTerminalMoves makes a Subscriber return a "moved" bye terminally
// (Recv returns io.EOF with Reason moved) instead of transparently
// re-subscribing. The default transparent resume assumes the base URL can
// re-resolve stream ownership — true when it points at a router. A caller
// connected directly to one shard cannot reach the new owner by
// reconnecting, so it opts out and handles the move itself; the router
// uses this for its per-shard subscription legs.
func WithTerminalMoves() Option {
	return func(c *Client) { c.terminalMoves = true }
}

// New builds a client for the service at baseURL (e.g.
// "http://127.0.0.1:7070", no trailing slash required).
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:    strings.TrimRight(baseURL, "/"),
		httpc:   http.DefaultClient,
		retries: 3,
		backoff: 50 * time.Millisecond,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// BaseURL returns the service root this client targets.
func (c *Client) BaseURL() string { return c.base }

// Query executes one QueryRequest against POST /v1/query and returns the
// typed response. Server-side failures return *api.Error.
func (c *Client) Query(ctx context.Context, req *api.QueryRequest) (*api.QueryResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("client: encoding request: %w", err)
	}
	// The answer is nearly every byte this client reads: it goes through
	// the hand-written codec directly, not through encoding/json's
	// validating pre-scan and back into it.
	respBody, err := c.exchange(ctx, http.MethodPost, api.PathQuery, body)
	if err != nil {
		return nil, err
	}
	var out api.QueryResponse
	if err := api.DecodeQueryResponse(respBody, &out); err != nil {
		return nil, fmt.Errorf("client: decoding %s response: %w", api.PathQuery, err)
	}
	return &out, nil
}

// Streams fetches GET /v1/streams: per-stream ingest status, shard-
// annotated when the target is a router.
func (c *Client) Streams(ctx context.Context) ([]api.StreamStatus, error) {
	var out []api.StreamStatus
	if err := c.do(ctx, http.MethodGet, api.PathStreams, nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Stats fetches GET /v1/stats as raw JSON. The payload shape is
// deployment-specific (focus-serve and focus-router report different
// counter sets); callers decode the fields they need.
func (c *Client) Stats(ctx context.Context) (json.RawMessage, error) {
	var out json.RawMessage
	if err := c.do(ctx, http.MethodGet, api.PathStats, nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Healthz probes GET /healthz and returns the reported status string
// ("ok", "degraded", "draining", …). A non-2xx health answer still
// returns the status with a nil error when the body carries one — health
// probing distinguishes states, it does not fail on them; transport
// failures return an error.
func (c *Client) Healthz(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	var h struct {
		Status string `json:"status"`
	}
	if json.Unmarshal(body, &h) == nil && h.Status != "" {
		return h.Status, nil
	}
	return "", api.DecodeError(resp.StatusCode, body)
}

// Drain POSTs /drain, taking the target out of rotation (new queries are
// rejected with code draining until the process restarts).
func (c *Client) Drain(ctx context.Context) error {
	return c.do(ctx, http.MethodPost, "/drain", nil, nil)
}

// retryable reports whether the client should back off and retry.
func (c *Client) retryable(e *api.Error) bool {
	if e.Code == api.CodeOverloaded {
		return true
	}
	return c.tolerateDraining && e.Code == api.CodeDraining
}

// maxBackoff caps the exponential growth of retry waits.
const maxBackoff = 5 * time.Second

// retryDelay computes the wait before retrying after the given 0-based
// attempt. A server-sent Retry-After (delta-seconds or HTTP-date) wins;
// otherwise the base backoff doubles per attempt, capped, with full jitter
// over the upper half of the window — a fleet of clients rejected by the
// same admission spike must not come back as the same spike.
func (c *Client) retryDelay(attempt int, retryAfter string) time.Duration {
	if retryAfter != "" {
		if secs, err := strconv.ParseFloat(retryAfter, 64); err == nil && secs >= 0 {
			return time.Duration(secs * float64(time.Second))
		}
		if when, err := http.ParseTime(retryAfter); err == nil {
			if d := time.Until(when); d > 0 {
				return d
			}
			return 0
		}
	}
	if c.backoff <= 0 {
		return 0
	}
	d := c.backoff << uint(attempt)
	if d > maxBackoff || d <= 0 {
		d = maxBackoff
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// do runs one exchange and decodes its 2xx body into out (when non-nil).
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) error {
	respBody, err := c.exchange(ctx, method, path, body)
	if err != nil || out == nil {
		return err
	}
	if err := json.Unmarshal(respBody, out); err != nil {
		return fmt.Errorf("client: decoding %s response: %w", path, err)
	}
	return nil
}

// exchange runs one HTTP exchange with the retry policy and returns the
// 2xx body; a non-2xx body comes back as an *api.Error.
func (c *Client) exchange(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	for attempt := 0; ; attempt++ {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
		if err != nil {
			return nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.httpc.Do(req)
		if err != nil {
			return nil, err
		}
		respBody, err := readBody(resp)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("client: reading %s body: %w", path, err)
		}
		if resp.StatusCode >= 200 && resp.StatusCode < 300 {
			return respBody, nil
		}
		apiErr := api.DecodeError(resp.StatusCode, respBody)
		if attempt >= c.retries || !c.retryable(apiErr) {
			return nil, apiErr
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(c.retryDelay(attempt, resp.Header.Get("Retry-After"))):
		}
	}
}

// maxPresizedBody caps the read buffer taken on a server's word: a larger
// Content-Length is still read, into a buffer that grows with what
// actually arrives.
const maxPresizedBody = 64 << 20

// readBody reads a response body whole. When the server declared its
// length — /v1/query answers do — the buffer is allocated once at that
// size instead of grown by doubling.
func readBody(resp *http.Response) ([]byte, error) {
	if n := resp.ContentLength; n > 0 && n <= maxPresizedBody {
		buf := make([]byte, n)
		// net/http returns io.EOF with the body's last bytes, so a full
		// read also marks the connection reusable.
		if _, err := io.ReadFull(resp.Body, buf); err != nil {
			return nil, err
		}
		return buf, nil
	}
	return io.ReadAll(resp.Body)
}
