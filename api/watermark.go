package api

import (
	"fmt"
	"sort"
	"strings"
)

// WatermarkVector maps stream names to pinned ingest watermarks (stream
// seconds). A non-positive watermark pins the stream to the empty horizon
// (nothing sealed yet). It is the shared consistency currency of the wire
// contract: requests pin with it, responses echo the vector they executed
// at, and cursors freeze it so every page reads one pinned execution.
type WatermarkVector map[string]float64

// Clone returns a copy of the vector (nil stays nil).
func (v WatermarkVector) Clone() WatermarkVector {
	if v == nil {
		return nil
	}
	out := make(WatermarkVector, len(v))
	for name, at := range v {
		out[name] = at
	}
	return out
}

// FormatWatermarkVector renders a vector as comma-separated stream@seconds
// pairs ("auburn_c@35,jacksonh@40"), streams sorted by name — the compact
// textual form logs and cache keys use.
func FormatWatermarkVector(vector WatermarkVector) string {
	names := make([]string, 0, len(vector))
	for n := range vector {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s@%g", n, vector[n])
	}
	return b.String()
}

// NormalizeStreams trims, deduplicates and sorts a requested stream-name
// list — the one canonical form every endpoint uses. Deduplication matters
// for correctness (a repeated name would execute the stream twice and
// double-count aggregates); sorting matters for caching (equivalent
// requests must render the same key) and for cursors (the frozen stream
// set must be order-independent).
func NormalizeStreams(names []string) []string {
	seen := make(map[string]bool, len(names))
	var out []string
	for _, name := range names {
		if name = strings.TrimSpace(name); name != "" && !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}
