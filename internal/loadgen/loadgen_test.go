package loadgen

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"focus/api"
	"focus/internal/simrand"
)

func TestPercentile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		p    float64
		want float64
	}{
		{0.50, 5}, {0.90, 9}, {0.99, 10}, {1.0, 10},
	}
	for _, c := range cases {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("p%.0f = %v, want %v", c.p*100, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %v, want 0", got)
	}
}

// TestClientSequencesDeterministic: the class sequence each client draws is
// a pure function of (seed, client index).
func TestClientSequencesDeterministic(t *testing.T) {
	classes := []string{"car", "person", "truck", "bus"}
	zipf := simrand.NewZipf(len(classes), 1.1)
	draw := func(client int64, n int) []int {
		src := simrand.New(7).DeriveN(client, "loadgen-client")
		out := make([]int, n)
		for i := range out {
			out[i] = zipf.Sample(src)
		}
		return out
	}
	a, b := draw(3, 50), draw(3, 50)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d diverged: %d vs %d", i, a[i], b[i])
		}
	}
	// Popularity skew: rank 0 must dominate.
	counts := make([]int, len(classes))
	for _, r := range draw(1, 400) {
		counts[r]++
	}
	if counts[0] <= counts[len(counts)-1] {
		t.Errorf("no Zipf skew: counts %v", counts)
	}
}

// TestRunAgainstStubServer exercises the full client loop, status taxonomy
// and verifier plumbing against a scripted v1 handler.
func TestRunAgainstStubServer(t *testing.T) {
	var n atomic.Int64
	framesBody := func(expr string, cached bool) *api.QueryResponse {
		return &api.QueryResponse{
			Expr:       expr,
			Form:       api.FormFrames,
			Cached:     cached,
			Watermarks: api.WatermarkVector{"s": 10},
			Streams: map[string]*api.StreamResult{
				"s": {Watermark: 10, Frames: []int64{1, 2}, Segments: []int64{0}},
			},
			TotalFrames: 2,
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc(api.PathQuery, func(w http.ResponseWriter, r *http.Request) {
		i := n.Add(1)
		var req api.QueryRequest
		_ = json.NewDecoder(r.Body).Decode(&req)
		if i%5 == 0 { // every 5th request is shed
			w.WriteHeader(http.StatusTooManyRequests)
			_ = json.NewEncoder(w).Encode(api.Envelope{Err: api.Errorf(api.CodeOverloaded, "overloaded")})
			return
		}
		_ = json.NewEncoder(w).Encode(framesBody(req.Expr, i%2 == 0))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	var verified atomic.Int64
	rep, err := Run(Config{
		BaseURL:              ts.URL,
		Clients:              4,
		Duration:             500 * time.Millisecond,
		MaxRequestsPerClient: 25,
		Classes:              []string{"car", "person"},
		VerifyEvery:          1,
		Verifier: func(qr *api.QueryResponse) error {
			verified.Add(1)
			if qr.Form != api.FormFrames {
				t.Errorf("verifier saw %q form", qr.Form)
			}
			if qr.TotalFrames != 2 {
				t.Errorf("verifier saw %d frames", qr.TotalFrames)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 100 {
		t.Errorf("requests %d, want 100 (4 clients x 25)", rep.Requests)
	}
	if rep.OK+rep.Rejected != rep.Requests {
		t.Errorf("ok %d + rejected %d != %d", rep.OK, rep.Rejected, rep.Requests)
	}
	if rep.Rejected == 0 || rep.CacheHits == 0 {
		t.Errorf("taxonomy not exercised: %+v", rep)
	}
	if len(rep.Failures()) != 0 {
		t.Errorf("unexpected failures: %v", rep.Failures())
	}
	if rep.Verified == 0 || int(verified.Load()) != rep.Verified {
		t.Errorf("verified %d, callbacks %d", rep.Verified, verified.Load())
	}
}

// TestFailuresFlagUnexpectedStatus: 500s and transport errors must fail a
// gate even when everything else looks healthy.
func TestFailuresFlagUnexpectedStatus(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer ts.Close()
	rep, err := Run(Config{
		BaseURL:              ts.URL,
		Clients:              2,
		Duration:             200 * time.Millisecond,
		MaxRequestsPerClient: 5,
		Classes:              []string{"car"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failures()) == 0 {
		t.Fatal("500 responses must be reported as failures")
	}
}

// TestOutageTaxonomyAndPartials pins the chaos-drill accounting: with
// AcceptOutage, typed shard_down rejections land in Report.Outage instead
// of failing the run, and allow_partial responses carrying the Partial
// marker are counted; without the opt-in the same traffic fails the gate.
func TestOutageTaxonomyAndPartials(t *testing.T) {
	okBody := &api.QueryResponse{
		Expr:       "car",
		Form:       api.FormFrames,
		Watermarks: api.WatermarkVector{"s": 10},
		Streams: map[string]*api.StreamResult{
			"s": {Watermark: 10, Frames: []int64{1}, Segments: []int64{0}},
		},
		TotalFrames: 1,
	}
	mux := http.NewServeMux()
	mux.HandleFunc(api.PathQuery, func(w http.ResponseWriter, r *http.Request) {
		var req api.QueryRequest
		_ = json.NewDecoder(r.Body).Decode(&req)
		if req.AllowPartial {
			// Degraded answer: the healthy subset plus the Partial marker.
			partial := *okBody
			partial.Partial = &api.PartialInfo{
				MissingShards:  []string{"shard-1"},
				MissingStreams: []string{"down"},
			}
			_ = json.NewEncoder(w).Encode(&partial)
			return
		}
		if len(req.Streams) == 0 {
			// Whole-corpus without allow_partial hits the dead shard.
			w.WriteHeader(http.StatusServiceUnavailable)
			_ = json.NewEncoder(w).Encode(api.Envelope{
				Err: api.Errorf(api.CodeShardDown, "shard shard-1 is down")})
			return
		}
		_ = json.NewEncoder(w).Encode(okBody)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	run := func(accept bool) *Report {
		rep, err := Run(Config{
			BaseURL:              ts.URL,
			Clients:              2,
			Duration:             500 * time.Millisecond,
			MaxRequestsPerClient: 20,
			Classes:              []string{"car"},
			Streams:              []string{"s"},
			SingleStreamEvery:    3,
			AllowPartialEvery:    4,
			AcceptOutage:         accept,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	rep := run(true)
	if rep.Outage == 0 {
		t.Fatalf("no outage rejections recorded: %+v", rep)
	}
	if rep.Partials == 0 {
		t.Fatalf("no partial responses recorded: %+v", rep)
	}
	if fails := rep.Failures(); len(fails) != 0 {
		t.Fatalf("chaos-mode run failed the gate: %v", fails)
	}
	if rep.OK+rep.Rejected+rep.Outage != rep.Requests {
		t.Fatalf("accounting leak: ok %d + rejected %d + outage %d != %d",
			rep.OK, rep.Rejected, rep.Outage, rep.Requests)
	}

	// The same traffic without the opt-in must fail loudly.
	if fails := run(false).Failures(); len(fails) == 0 {
		t.Fatal("shard_down rejections passed the gate without AcceptOutage")
	}
}
