package api

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
)

// Code is a machine-readable error class. Clients branch on codes — retry
// on overloaded, back off and route around draining, surface bad_* to the
// caller — never on message strings, status codes alone, or headers.
type Code string

// The v1 error codes. Every non-2xx v1 response carries exactly one.
const (
	// CodeBadRequest rejects a malformed request (bad JSON, negative
	// parameters, wrong method, conflicting fields).
	CodeBadRequest Code = "bad_request"
	// CodeBadExpr rejects a predicate that does not compile: syntax
	// errors, unknown classes, unanchored negations.
	CodeBadExpr Code = "bad_expr"
	// CodeBadCursor rejects a cursor token that does not decode or that
	// was combined with fields it is supposed to replace.
	CodeBadCursor Code = "bad_cursor"
	// CodeUnknownStream rejects a request naming a stream (in Streams or
	// At) the service does not serve.
	CodeUnknownStream Code = "unknown_stream"
	// CodePinAhead rejects a watermark pin beyond a stream's sealed
	// ingest horizon: the answer there is not yet a pure function of the
	// vector, so serving (and caching) it would be incoherent.
	CodePinAhead Code = "pin_ahead"
	// CodeOverloaded reports admission-control rejection (the query queue
	// is full). Retrying after a short backoff is exactly right.
	CodeOverloaded Code = "overloaded"
	// CodeDraining reports a server (or, via Shard, one shard of a
	// cluster) deliberately leaving rotation for a restart. Load tooling
	// treats it as expected during a rolling restart, unlike other 5xx.
	CodeDraining Code = "draining"
	// CodeShardDown reports a routed request touching a shard that is
	// unreachable or not ready; Shard names it.
	CodeShardDown Code = "shard_down"
	// CodeNotReady reports a server still booting (tuning streams).
	CodeNotReady Code = "not_ready"
	// CodeUnavailable reports a dependency failure that is none of the
	// more specific unavailability codes (e.g. a shard answered garbage).
	CodeUnavailable Code = "unavailable"
	// CodeInternal reports an unexpected server-side execution failure.
	CodeInternal Code = "internal"
)

// Error is the structured error every non-2xx v1 response carries,
// wrapped in an Envelope. It implements the error interface, so the typed
// client returns it directly.
type Error struct {
	// Code is the machine-readable class.
	Code Code `json:"code"`
	// Message is the human-readable detail. Not a contract surface:
	// clients must branch on Code.
	Message string `json:"message"`
	// Shard names the shard behind a routed failure (draining, shard_down
	// and shard-attributed overloaded/unavailable errors).
	Shard string `json:"shard,omitempty"`
}

// Error implements the error interface.
func (e *Error) Error() string {
	if e.Shard != "" {
		return fmt.Sprintf("%s (shard %s): %s", e.Code, e.Shard, e.Message)
	}
	return fmt.Sprintf("%s: %s", e.Code, e.Message)
}

// HTTPStatus maps the code to the response status the server writes (and
// the client saw).
func (e *Error) HTTPStatus() int {
	switch e.Code {
	case CodeBadRequest, CodeBadExpr, CodeBadCursor, CodeUnknownStream, CodePinAhead:
		return http.StatusBadRequest
	case CodeOverloaded:
		return http.StatusTooManyRequests
	case CodeDraining, CodeShardDown, CodeNotReady, CodeUnavailable:
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// Errorf builds an *Error with a formatted message.
func Errorf(code Code, format string, args ...any) *Error {
	return &Error{Code: code, Message: fmt.Sprintf(format, args...)}
}

// IsCode reports whether err is an *Error carrying the given code.
func IsCode(err error, code Code) bool {
	e, ok := err.(*Error)
	return ok && e.Code == code
}

// Envelope is the wire shape of every non-2xx v1 body:
// {"error":{"code":...,"message":...}}.
type Envelope struct {
	// Err is the structured error.
	Err *Error `json:"error"`
}

// DecodeError reconstructs the *Error of a non-2xx response from its
// status and body. Bodies that are not a v1 envelope (a proxy's HTML 502,
// a bare string) degrade to a code inferred from the status with the raw
// body as the message, so callers always get a usable *Error.
func DecodeError(status int, body []byte) *Error {
	var env Envelope
	if err := json.Unmarshal(body, &env); err == nil && env.Err != nil && env.Err.Code != "" {
		return env.Err
	}
	msg := strings.TrimSpace(string(body))
	if msg == "" {
		msg = http.StatusText(status)
	}
	var code Code
	switch status {
	case http.StatusBadRequest:
		code = CodeBadRequest
	case http.StatusTooManyRequests:
		code = CodeOverloaded
	case http.StatusServiceUnavailable:
		code = CodeUnavailable
	default:
		code = CodeInternal
	}
	return &Error{Code: code, Message: msg}
}
