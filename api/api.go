// Package api is the versioned wire contract of the Focus query service —
// the one JSON surface spoken by focus-serve, focus-router, the focus CLI's
// server mode, the load generator, and any external client (through the
// typed focus/client package).
//
// The contract, in one paragraph: POST /v1/query takes a QueryRequest
// whose predicate Expr covers the whole workload shape — a single-class
// query is just a one-leaf plan ("car"), a compound query is the general
// form ("car & person & !bus") — executed across the selected streams at a
// watermark vector snapshotted at admission (or pinned explicitly via At,
// or implicitly via Cursor). Responses come in two forms (QueryResponse.
// Form): "ranked" — confidence-ranked items, pageable through an opaque
// watermark-stable cursor — and "frames" — per-stream frame/segment detail
// for bare one-leaf queries, the shape the paper's single-class query
// reports. Every non-2xx response carries a structured Error with a
// machine-readable Code; clients branch on codes, never on message strings
// or headers. GET /v1/streams and GET /v1/stats are the operational
// surface.
//
// Three invariants make the surface cacheable and shardable:
//
//   - Purity: at a fixed watermark vector, a response is a pure function
//     of (canonical expr, options, vector). Responses echo the executed
//     canonical form, options, and vector so any reader can replay them.
//   - Cursor stability: a cursor token freezes the canonical plan form,
//     the resolved stream set, and the pinned watermark vector along with
//     the offset, so every page of one paged read is served from the same
//     pinned execution — pages concatenate bit-identically to the one-shot
//     answer no matter how far ingest advances between pages.
//   - Transparency: a router fronting many shards speaks exactly this
//     contract on both sides, and its merged responses are bit-identical
//     to a single node holding every stream.
//
// The ranked and tracks forms share one answer core (ranked.go): rank
// order, diff, delta apply, page slice and cursor minting are written once,
// generic over the item type, and ResolveRequest (exec.go) is the one rule
// deciding what a request means. See DESIGN.md §7 for the full wire
// contract and OPERATIONS.md for the operator's view (error table, curl
// walkthrough).
package api

// Version is the wire-contract version segment every v1 path starts with.
const Version = "v1"

// Canonical v1 endpoint paths. Servers mount exactly these; clients and
// the router build URLs from them so the two can never drift.
const (
	// PathQuery answers QueryRequest (POST).
	PathQuery = "/v1/query"
	// PathStreams lists per-stream ingest status (GET).
	PathStreams = "/v1/streams"
	// PathStats serves service counters (GET); the payload is
	// deployment-specific (focus-serve and focus-router report different
	// counter sets), so it is served as raw JSON.
	PathStats = "/v1/stats"
)
