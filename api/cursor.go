package api

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"strings"
)

// Cursor is the decoded form of the opaque page token. It freezes
// everything a later page needs to be served from the same pinned
// execution as the first: the canonical plan form, the resolved stream
// set, the leaf options and TopK, the pinned watermark vector, and the
// offset of the next item. Because the vector is frozen, pages are
// watermark-stable by construction — however far ingest advances between
// page fetches, every page reads the one execution pinned at At, and the
// concatenation of all pages is bit-identical to the one-shot answer.
//
// The token is opaque to clients (an implementation detail that may
// change); servers decode it with DecodeCursor and re-encode the advanced
// offset with Encode. Tokens are deterministic: the same cursor state
// always encodes to the same string.
type Cursor struct {
	// Expr is the canonical predicate form.
	Expr string `json:"expr"`
	// Streams is the resolved (normalized, explicit) stream set.
	Streams []string `json:"streams"`
	// TopK, Kx, Start, End and MaxClusters echo the executed options.
	TopK        int     `json:"top_k,omitempty"`
	Kx          int     `json:"kx,omitempty"`
	Start       float64 `json:"start,omitempty"`
	End         float64 `json:"end,omitempty"`
	MaxClusters int     `json:"max_clusters,omitempty"`
	// At is the pinned watermark vector of the execution.
	At WatermarkVector `json:"at"`
	// Offset is the index of the first item of the next page.
	Offset int `json:"offset"`
	// Form is the response form the continued read pages: FormTracks for
	// a temporal (tracks-form) execution, empty for ranked — tokens
	// minted before the tracks form existed decode as ranked.
	Form string `json:"form,omitempty"`
	// Mode is the execution mode in canonical form: ModeEarlyExit for an
	// early-exit execution, empty for exact — tokens minted before modes
	// existed decode as exact.
	Mode string `json:"mode,omitempty"`
}

// cursorPrefix versions the token format so a future format change can be
// told apart from corruption.
const cursorPrefix = "v1."

// Encode renders the cursor as its opaque wire token.
func (c *Cursor) Encode() string {
	data, err := json.Marshal(c)
	if err != nil {
		// Cursor holds only marshalable fields; this cannot happen.
		panic(fmt.Sprintf("api: encoding cursor: %v", err))
	}
	return cursorPrefix + base64.RawURLEncoding.EncodeToString(data)
}

// DecodeCursor parses an opaque page token back into its Cursor. It
// validates shape, not semantics: the server still re-checks the pinned
// vector against its streams (a token can outlive a stream, or arrive at
// a server that never owned it).
func DecodeCursor(token string) (*Cursor, error) {
	raw, ok := strings.CutPrefix(token, cursorPrefix)
	if !ok {
		return nil, fmt.Errorf("bad cursor: missing %q version prefix", cursorPrefix)
	}
	data, err := base64.RawURLEncoding.DecodeString(raw)
	if err != nil {
		return nil, fmt.Errorf("bad cursor: %v", err)
	}
	var c Cursor
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("bad cursor: %v", err)
	}
	if c.Expr == "" {
		return nil, fmt.Errorf("bad cursor: empty expr")
	}
	if len(c.Streams) == 0 {
		return nil, fmt.Errorf("bad cursor: empty stream set")
	}
	if c.Offset < 0 {
		return nil, fmt.Errorf("bad cursor: negative offset")
	}
	// A server never mints negative options; a token carrying them is
	// forged or corrupted and must be rejected here — the execution layers
	// deliberately skip re-validating cursor fields (the token is trusted
	// to be exactly what a server minted).
	if c.TopK < 0 || c.Kx < 0 || c.MaxClusters < 0 || c.Start < 0 || c.End < 0 {
		return nil, fmt.Errorf("bad cursor: negative option")
	}
	if c.Form != "" && c.Form != FormTracks {
		return nil, fmt.Errorf("bad cursor: unknown form %q", c.Form)
	}
	// Servers mint Mode in canonical form (exact = empty), so anything but
	// the two canonical values is forged or corrupted.
	if c.Mode != "" && c.Mode != ModeEarlyExit {
		return nil, fmt.Errorf("bad cursor: unknown mode %q", c.Mode)
	}
	if c.Mode == ModeEarlyExit && (c.Form == FormTracks || c.TopK < 1) {
		return nil, fmt.Errorf("bad cursor: mode %q needs a ranked execution with top_k >= 1", ModeEarlyExit)
	}
	return &c, nil
}

// ContinuationToken mints the next-page token after serving pageLen items
// at offset out of total, or "" when the read was unpaged (limit <= 0) or
// is exhausted. The cursor value carries the frozen execution identity
// (expr, streams, options, pinned vector); its Offset is overwritten.
// Shared by the serve layer and the router so paging can never diverge.
func ContinuationToken(c Cursor, limit, offset, pageLen, total int) string {
	next := offset + pageLen
	if limit <= 0 || next >= total {
		return ""
	}
	c.Offset = next
	return c.Encode()
}
