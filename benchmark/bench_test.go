package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"focus/api"
)

// draw takes n entries from a client's generator the way the workloads do.
func draw(seed uint64, client, n int) []entry {
	g := newMixGen(seed, client)
	out := make([]entry, 0, 3*n)
	for i := 0; i < n; i++ {
		out = append(out, g.next())
		out = append(out, g.routedWindow(g.next(), 300, 60))
		out = append(out, g.coldSlice(streamNames[:2], float64(i)*10, float64(i+1)*10)...)
	}
	return out
}

func TestRequestSequenceIsAFunctionOfSeedAndClient(t *testing.T) {
	a, b := draw(7, 0, 50), draw(7, 0, 50)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two generators with one seed and client emitted different sequences")
	}
	if reflect.DeepEqual(a, draw(8, 0, 50)) {
		t.Error("seeds 7 and 8 emitted the same sequence")
	}
	if reflect.DeepEqual(a, draw(7, 1, 50)) {
		t.Error("clients 0 and 1 emitted the same sequence")
	}
	if !reflect.DeepEqual(hotPool(64, 300, 60), hotPool(64, 300, 60)) {
		t.Error("hot pool differs between two builds on one seed")
	}
}

func TestMixProportions(t *testing.T) {
	g := newMixGen(1, 0)
	var n [numKinds]int
	for i := 0; i < 1000; i++ {
		n[g.next().Kind]++
	}
	if want := [numKinds]int{500, 200, 100, 100, 100}; n != want {
		t.Errorf("kinds per 1000 = %v, want %v", n, want)
	}
}

func TestNoTwoRequestsShareACacheEntryWhereMissesAreAsserted(t *testing.T) {
	g := newMixGen(3, 0)
	for s := 0; s < 20; s++ {
		seen := map[string]bool{}
		for _, e := range g.coldSlice(streamNames[2:4], float64(s)*10, float64(s+1)*10) {
			// top_k and mode separate ranked, early-exit and paged entries.
			k := e.key()
			if seen[k] {
				t.Fatalf("slice %d repeats %s", s, k)
			}
			seen[k] = true
		}
	}
	seen := map[string]bool{}
	for _, e := range hotPool(64, 300, 60) {
		if seen[e.key()] {
			t.Fatalf("hot pool repeats %s", e.key())
		}
		seen[e.key()] = true
	}
}

// A hand-built tree: a routed request whose two shard legs overlap, with
// replayed layers under the slower shard's handler.
//
//	client.query    [0,100]
//	  router.handler  [10,90]
//	    router.leg A    [12,40]   serve.handler [14,38]
//	    router.leg B    [13,80]   serve.handler [15,78]
//	                                plan.compile [15,20]  (replayed)
//	                                plan.execute [20,60]  (replayed)
//	                                api.encode   [60,70]  (replayed)
//	  api.decode      [95,100]  (replayed)
func handBuiltTree() []span {
	return []span{
		{ID: 1, Name: "client.query", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "router.handler", Start: 10, End: 90},
		{ID: 3, Parent: 2, Name: "router.leg", Start: 12, End: 40},
		{ID: 4, Parent: 3, Name: "serve.handler", Start: 14, End: 38},
		{ID: 5, Parent: 2, Name: "router.leg", Start: 13, End: 80},
		{ID: 6, Parent: 5, Name: "serve.handler", Start: 15, End: 78},
		{ID: 7, Parent: 6, Name: "plan.compile", Start: 15, End: 20, Replayed: true},
		{ID: 8, Parent: 6, Name: "plan.execute", Start: 20, End: 60, Replayed: true},
		{ID: 9, Parent: 6, Name: "api.encode", Start: 60, End: 70, Replayed: true},
		{ID: 10, Parent: 1, Name: "api.decode", Start: 95, End: 100, Replayed: true},
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	spans := handBuiltTree()
	tr := buildTree(spans)
	if len(tr.roots) != 1 || tr.roots[0].ID != 1 {
		t.Fatalf("roots = %+v", tr.roots)
	}
	want := map[int64]int64{
		1:  100 - 80 - 5,       // minus the router's handler and the decode
		2:  80 - (80 - 12),     // minus the union of the two legs, [12,80]
		3:  28 - 24,            // leg A minus its shard's handler
		5:  67 - 63,            // leg B minus its shard's handler
		6:  63 - (5 + 40 + 10), // serve's own share of the slower shard
		4:  24,                 // nothing replayed under the faster shard
		8:  40,
		10: 5,
	}
	for id, w := range want {
		if got := tr.self(tr.byID[id]); got != w {
			t.Errorf("self(%s #%d) = %d, want %d", tr.byID[id].Name, id, got, w)
		}
	}
	var path []string
	for _, s := range tr.blocking(tr.roots[0]) {
		path = append(path, s.Name)
	}
	sort.Strings(path)
	wantPath := []string{"api.decode", "api.encode", "client.query", "plan.compile", "plan.execute",
		"router.handler", "router.leg", "serve.handler"}
	if !reflect.DeepEqual(path, wantPath) {
		t.Errorf("blocking path = %v, want only the slower leg: %v", path, wantPath)
	}
	if got := tr.unaccounted(tr.roots[0]); got != 0 {
		t.Errorf("unaccounted = %d, want 0: every replayed child fits", got)
	}
	// A replay slower than what was served: execute claims 60 of a handler
	// that took 63 with compile and encode already claiming 15.
	spans[7].End = 80
	if got := buildTree(spans).unaccounted(spans[0]); got != 5+60+10-63 {
		t.Errorf("unaccounted = %d, want the 12 that do not fit", got)
	}
}

func TestLinkLegsBySignatureAndContainment(t *testing.T) {
	spans := []span{
		{ID: 1, Req: 1, Name: "client.query", Class: "ranked", Sig: "5-70", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "router.handler", Start: 5, End: 95},
		{ID: 3, Req: 3, Name: "client.query", Class: "tracks", Sig: "9-99", Start: 1, End: 120},
		{ID: 4, Parent: 3, Name: "router.handler", Start: 4, End: 110},
		{ID: 5, Name: "router.leg", Sig: "5-70", Start: 10, End: 50},
		{ID: 6, Parent: 5, Name: "serve.handler", Start: 12, End: 48},
		{ID: 7, Name: "router.leg", Sig: "1-2", Start: 10, End: 50}, // a leg of an untraced request
		{ID: 8, Parent: 7, Name: "serve.handler", Start: 12, End: 48},
	}
	got := map[int64]span{}
	for _, s := range linkLegs(spans) {
		got[s.ID] = s
	}
	if len(got) != 6 {
		t.Fatalf("kept %d spans, want 6 (the orphan leg and its shard span go)", len(got))
	}
	if got[5].Parent != 2 || got[6].Req != 1 || got[6].Class != "ranked" {
		t.Errorf("leg %+v, shard span %+v: want the leg under handler 2 and the request's id and class handed down", got[5], got[6])
	}
}

func TestSameAnswerTellsAnswersApart(t *testing.T) {
	full := &api.QueryResponse{Expr: "car", Form: api.FormRanked, Watermarks: api.WatermarkVector{"a": 60}, TotalItems: 3,
		Items:        []api.Item{{Stream: "a", Frame: 1, Score: 0.9}, {Stream: "a", Frame: 2, Score: 0.8}, {Stream: "a", Frame: 3, Score: 0.7}},
		GTInferences: 4, GPUTimeMS: 52}
	served := *page(full, 2, 0)
	served.Cached, served.GTInferences, served.GPUTimeMS = true, 0, 0
	if err := sameAnswer(&served, page(full, 2, 0), false); err != nil {
		t.Errorf("the cached flag and the cost counters are not part of the answer: %v", err)
	}
	if err := sameAnswer(&served, page(full, 2, 0), true); err == nil {
		t.Error("with cost compared, other counters must differ")
	}
	if served.Cursor == "" || sameAnswer(&served, page(full, 2, 2), false) == nil {
		t.Error("page one with a cursor must differ from page two")
	}
	wrong := served
	wrong.Items = []api.Item{served.Items[0], {Stream: "a", Frame: 2, Score: 0.8000001}}
	if sameAnswer(&wrong, page(full, 2, 0), false) == nil {
		t.Error("a score off in the seventh digit must differ")
	}
}

// miniature returns a workload's sizes shrunk to a 60 s corpus and tens of
// requests.
func miniature(workload string) sizes {
	switch workload {
	case hotRead:
		return sizes{corpusSec: 60, chunkSec: 15, shards: 1, setups: 1, poolSize: 16, windowSec: 20, requests: 40}
	case coldScan:
		return sizes{corpusSec: 60, chunkSec: 30, shards: 1, setups: 1, pace: 50 * time.Microsecond, sliceSec: 10, slices: 3}
	case liveIngest:
		return sizes{corpusSec: 60, chunkSec: 5, shards: 1, setups: 1, readsStep: 2, lookback: 30}
	default:
		return sizes{corpusSec: 60, chunkSec: 15, shards: 2, setups: 1, requests: 15, minWindow: 10}
	}
}

// benchmarkJSON is the part of ../BENCHMARK.json the harness must agree
// with.
type benchmarkJSON struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func names(ms []metric) map[string]string {
	out := make(map[string]string, len(ms))
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

func TestMiniatureWorkloadsRunEndToEnd(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	// Store files and the trace go under .bench_build in the working
	// directory; keep them out of the source tree.
	t.Chdir(t.TempDir())
	var doc benchmarkJSON
	if err == nil {
		err = json.Unmarshal(raw, &doc)
	}
	if err != nil {
		t.Fatalf("reading BENCHMARK.json: %v", err)
	}
	declared := func(list []struct{ Name, Unit string }) map[string]string {
		out := map[string]string{}
		for _, m := range list {
			out[m.Name] = m.Unit
		}
		return out
	}
	var listed []string
	for _, w := range doc.Workloads {
		listed = append(listed, w.Name)
	}
	if !reflect.DeepEqual(listed, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, harness %v", listed, workloadNames)
	}
	for i, w := range workloadNames {
		// One workload is also run traced, a different one on each seed the
		// suite might be given; routed_miss by default, for its leg linking.
		for _, trace := range []bool{false, true} {
			if trace && w != routedMiss {
				continue
			}
			res, err := runWorkload(w, uint64(i+1), miniature(w), trace)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w, trace, err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s (trace %v): %d of %d operations failed: %v", w, trace, res.failed, res.attempted, res.errs)
			}
			want := declared(doc.EndToEnd)
			if trace {
				want = declared(doc.PerLayer)
			}
			if got := names(res.metrics); !reflect.DeepEqual(got, want) {
				t.Errorf("%s (trace %v): metrics differ from BENCHMARK.json:\n got %v\nwant %v", w, trace, got, want)
			}
			if _, err := json.Marshal(res.json()); err != nil {
				t.Errorf("%s: result line: %v", w, err)
			}
		}
	}
}
