package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"focus/api"
)

// The request mix. Every workload draws its requests from the same five
// kinds in the same proportions, so that a difference between workloads
// comes from what the requests touch (cache, GPU, moving index, router),
// not from what they ask.

type kind int

const (
	kFrames kind = iota // bare one-leaf query, frames form
	kRanked             // compound plan, top_k=10, exact
	kEarly              // compound plan, top_k=10, mode=early_exit
	kPaged              // compound plan, limit=20, then one cursor continuation
	kTracks             // temporal expression, top_k=10
	numKinds
)

var kindNames = [numKinds]string{"frames", "ranked", "early_exit", "paged", "tracks"}

func (k kind) String() string { return kindNames[k] }

// mixBlock is the order of kinds in every ten requests: 5 one-leaf, 2
// ranked exact, 1 early-exit, 1 paged read, 1 tracks.
var mixBlock = [10]kind{kFrames, kRanked, kFrames, kTracks, kFrames, kEarly, kFrames, kPaged, kFrames, kRanked}

var (
	classExprs = []string{"car", "person", "bus", "truck"}
	planExprs  = []string{"car & person & !bus", "(car | truck) & person", "bus & !person"}
	trackExprs = []string{
		"car & dur(5)",
		"person & vel(1)",
		"car & within(30, seq(region(0,0,80,96), region(80,0,160,96)))",
	}
)

const (
	mixTopK  = 10
	pageSize = 20
)

// entry is one element of the mix: a first request and, for a paged read,
// the instruction to follow its cursor once.
type entry struct {
	Kind kind
	Req  api.QueryRequest
}

// key identifies the pure function an entry asks for; two entries with
// one key share a result-cache entry when sent at one watermark vector.
func (e entry) key() string {
	return fmt.Sprintf("%d|%s|%s|%g|%g", e.Kind, e.Req.Expr, strings.Join(e.Req.Streams, ","), e.Req.Start, e.Req.End)
}

// mixGen emits the mix for one client. The sequence is a pure function of
// (seed, client): nothing else — not time, not the responses — feeds it.
//
// Two seeds must give two different sequences that cost the same, or a
// run on one seed says nothing about a run on another. So the seed never
// decides how often something is asked, only when: a kind's expressions
// are dealt in turn from a seeded starting point, and windows come from a
// low-discrepancy sequence whose starting phase is seeded (routedWindow).
type mixGen struct {
	r *rand.Rand
	i int
	// turn is the seeded starting point in each kind's expression list,
	// dealt the number of expressions dealt from it.
	turn, dealt [numKinds]int
	// phase is the seeded starting point of the window sequence; w counts
	// the windows drawn.
	phase [2]float64
	w     int
}

func newMixGen(seed uint64, client int) *mixGen {
	r := rand.New(rand.NewSource(int64(seed*1_000_003 + uint64(client)*7919 + 1)))
	// Each client has its own stretch of the window sequence; the seed
	// moves it by less than one step, so two seeds ask for different
	// windows (other cache keys) that lie within a second of each other.
	base := float64(client%numClients) / numClients
	g := &mixGen{r: r, phase: [2]float64{base + r.Float64()/windowSteps, base + r.Float64()/windowSteps}}
	for k := range g.turn {
		g.turn[k] = r.Intn(len(classExprs) * len(planExprs))
	}
	return g
}

// windowSteps is the number of steps the seeded part of a window phase is
// a fraction of: about as many as a client draws windows in a run.
const windowSteps = 1000

// shape fills in the kind-specific fields of a request.
func shape(k kind, expr string) entry {
	e := entry{Kind: k, Req: api.QueryRequest{Expr: expr}}
	switch k {
	case kRanked, kTracks:
		e.Req.TopK = mixTopK
	case kEarly:
		e.Req.TopK = mixTopK
		e.Req.Mode = api.ModeEarlyExit
	case kPaged:
		e.Req.Limit = pageSize
	}
	return e
}

// exprFor deals the next expression for a kind: the kind's expressions in
// turn, from a seeded starting point. Every expression is asked equally
// often whatever the seed; the seed decides which request gets which.
func (g *mixGen) exprFor(k kind) string {
	from := planExprs
	switch k {
	case kFrames:
		from = classExprs
	case kTracks:
		from = trackExprs
	}
	expr := from[(g.turn[k]+g.dealt[k])%len(from)]
	g.dealt[k]++
	return expr
}

// next returns the next entry of the mix, over every stream and the whole
// corpus; callers narrow it with window.
func (g *mixGen) next() entry {
	k := mixBlock[g.i%len(mixBlock)]
	g.i++
	return shape(k, g.exprFor(k))
}

// window returns e restricted to [start, end) of stream time, both
// rounded to the 0.01 s grid so that the value survives the wire.
func (e entry) window(start, end float64) entry {
	e.Req.Start, e.Req.End = grid(start), grid(end)
	return e
}

func grid(sec float64) float64 { return float64(int64(sec*100+0.5)) / 100 }

// hotPool builds the pool of distinct requests hot_read draws from: the
// mix over the whole corpus (one entry in five) and over eight windows of
// windowSec each, spread evenly across corpusSec. The pool and its order —
// the popularity ranking — are the same on every run; the seed decides
// the draws. (Were the ranking seeded, whether the most popular request
// is a 300-byte or a 300-kilobyte answer would move throughput twofold.)
func hotPool(size int, corpusSec, windowSec float64) []entry {
	g := newMixGen(corpusSeed, poolClient)
	seen := make(map[string]bool, size)
	pool := make([]entry, 0, size)
	for len(pool) < size {
		e := g.next()
		if g.r.Intn(5) != 0 {
			w := float64(g.r.Intn(8))
			start := w * (corpusSec - windowSec) / 7
			e = e.window(start, start+windowSec)
		}
		if seen[e.key()] {
			continue
		}
		seen[e.key()] = true
		pool = append(pool, e)
	}
	return pool
}

// coldSlice builds one client's ten requests for one slice of cold_scan.
// All ten denote different result-cache entries, so each is a first
// touch: the four classes over both of the client's streams and a fifth
// one-leaf query over one stream alone; two different plans ranked
// exactly; and an early-exit, a paged (unranked, so another key than
// top_k=10) and a tracks request.
func (g *mixGen) coldSlice(streams []string, start, end float64) []entry {
	plans := g.r.Perm(len(planExprs))
	var ranked int
	out := make([]entry, 0, len(mixBlock))
	for i, k := range mixBlock {
		var e entry
		switch {
		case k == kFrames && i/2 < len(classExprs):
			e = shape(k, classExprs[i/2])
			e.Req.Streams = streams
		case k == kFrames:
			e = shape(k, g.exprFor(k))
			e.Req.Streams = []string{streams[g.r.Intn(len(streams))]}
		case k == kRanked:
			e = shape(k, planExprs[plans[ranked]])
			ranked++
			e.Req.Streams = streams
		default:
			e = shape(k, g.exprFor(k))
			e.Req.Streams = streams
		}
		out = append(out, e.window(start, end))
	}
	return out
}

// routedWindow restricts e to a window of minSec to 2×minSec somewhere in
// the corpus, on the 0.01 s grid. Lengths and starts follow the R2
// low-discrepancy sequence from a seeded phase: every run covers the
// (length, start) plane evenly, whatever the seed, and no two requests of
// a run share a window — so none shares a result-cache entry.
func (g *mixGen) routedWindow(e entry, corpusSec, minSec float64) entry {
	const a1, a2 = 0.7548776662466927, 0.5698402909980532
	u := frac(g.phase[0] + float64(g.w)*a1)
	v := frac(g.phase[1] + float64(g.w)*a2)
	g.w++
	length := minSec * (1 + u)
	start := v * (corpusSec - length)
	return e.window(start, start+length)
}

func frac(x float64) float64 { return x - math.Floor(x) }

// poolClient is the generator index of hot_read's shared pool, apart from
// every real client's.
const poolClient = 1 << 20
