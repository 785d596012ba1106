package plan

import (
	"cmp"
	"fmt"
	"slices"

	"focus/internal/cluster"
	"focus/internal/index"
	"focus/internal/parallel"
	"focus/internal/query"
	"focus/internal/video"
	"focus/internal/vision"
)

// Three-valued truth for partially verified predicates: a leaf is True for
// a frame once a verified matching cluster covers it, False once no
// unresolved candidate could, Unknown in between. And = min, Or = max,
// Not = negation; values only ever move away from Unknown, so a frame's
// overall verdict is final as soon as it leaves tvUnknown.
const (
	tvFalse   int8 = -1
	tvUnknown int8 = 0
	tvTrue    int8 = 1
)

// Resolver maps a class name to its ClassID, typically focus.System.ClassID.
type Resolver func(name string) (vision.ClassID, error)

// Plan is a compiled predicate: the AST plus its deduplicated leaves (one
// per distinct class+options pair, however many times the predicate
// mentions it) and the evaluation tree over them.
type Plan struct {
	root      Expr
	eval      *node
	leaves    []*leafSpec
	canonical string
}

type leafSpec struct {
	idx     int
	name    string
	class   vision.ClassID
	opts    LeafOptions
	scoring bool // has at least one positive-polarity occurrence
}

const (
	opLeaf = iota
	opAnd
	opOr
	opNot
)

type node struct {
	op   int
	leaf int
	kids []*node
}

func evalTV(n *node, st []int8) int8 {
	switch n.op {
	case opLeaf:
		return st[n.leaf]
	case opAnd:
		v := tvTrue
		for _, k := range n.kids {
			if kv := evalTV(k, st); kv < v {
				v = kv
			}
		}
		return v
	case opOr:
		v := tvFalse
		for _, k := range n.kids {
			if kv := evalTV(k, st); kv > v {
				v = kv
			}
		}
		return v
	default: // opNot
		return -evalTV(n.kids[0], st)
	}
}

// Compile validates an expression and resolves its classes. It rejects
// unanchored plans — predicates like "!bus" or "car | !bus" whose matches
// are not bounded by any positive leaf's index retrieval — because Focus
// can only answer queries its index supports (§4.1).
func Compile(e Expr, resolve Resolver) (*Plan, error) {
	if e == nil {
		return nil, fmt.Errorf("plan: empty expression")
	}
	if HasTemporal(e) {
		return nil, fmt.Errorf("plan: temporal operator in %q requires the track execution path (query with the tracks form)", Canonical(e))
	}
	if !e.anchored() {
		return nil, fmt.Errorf("plan: unanchored predicate %q: every Or branch needs at least one positive class (a bare negation would match the unbounded complement of the index)", Canonical(e))
	}
	p := &Plan{root: e, canonical: Canonical(e)}
	byKey := make(map[string]*leafSpec)
	var compileErr error
	var build func(e Expr, positive bool) *node
	build = func(e Expr, positive bool) *node {
		switch x := e.(type) {
		case *Leaf:
			key := Canonical(x)
			spec, ok := byKey[key]
			if !ok {
				class, err := resolve(x.Class)
				if err != nil && compileErr == nil {
					compileErr = fmt.Errorf("plan: leaf %q: %w", x.Class, err)
				}
				spec = &leafSpec{idx: len(p.leaves), name: x.Class, class: class, opts: x.Opts}
				byKey[key] = spec
				p.leaves = append(p.leaves, spec)
			}
			if positive {
				spec.scoring = true
			}
			return &node{op: opLeaf, leaf: spec.idx}
		case *And:
			n := &node{op: opAnd}
			for _, c := range x.Children {
				n.kids = append(n.kids, build(c, positive))
			}
			if len(n.kids) == 0 && compileErr == nil {
				compileErr = fmt.Errorf("plan: empty And")
			}
			return n
		case *Or:
			n := &node{op: opOr}
			for _, c := range x.Children {
				n.kids = append(n.kids, build(c, positive))
			}
			if len(n.kids) == 0 && compileErr == nil {
				// An empty Or would be constant False (and constant True
				// under Not) — always a construction bug, never intent.
				compileErr = fmt.Errorf("plan: empty Or")
			}
			return n
		case *Not:
			return &node{op: opNot, kids: []*node{build(x.Child, !positive)}}
		default:
			if compileErr == nil {
				compileErr = fmt.Errorf("plan: unknown expression node %T", e)
			}
			return &node{op: opLeaf}
		}
	}
	p.eval = build(e, true)
	if compileErr != nil {
		return nil, compileErr
	}
	return p, nil
}

// Canonical returns the plan's canonical text form, the serve layer's
// cache-key component.
func (p *Plan) Canonical() string { return p.canonical }

// SingleClass reports whether the plan is a bare positive one-leaf
// predicate with default leaf options, returning the class name when so.
// The wire layer uses it to answer such plans in the per-stream "frames"
// form — the paper's single-class query — through the single-class engine
// instead of the ranking pipeline.
func (p *Plan) SingleClass() (string, bool) {
	leaf, ok := p.root.(*Leaf)
	if !ok || leaf.Opts != (LeafOptions{}) {
		return "", false
	}
	return leaf.Class, true
}

// IsSingleLeafExpr reports whether a parsed (not necessarily compiled)
// expression is a bare positive leaf with default options — the syntactic
// form of SingleClass. The router uses it to predict a request's response
// form without owning a class space to compile against.
func IsSingleLeafExpr(e Expr) bool {
	leaf, ok := e.(*Leaf)
	return ok && leaf.Opts == (LeafOptions{})
}

// Classes returns the distinct leaf class names, in first-mention order.
func (p *Plan) Classes() []string {
	out := make([]string, len(p.leaves))
	for i, l := range p.leaves {
		out[i] = l.name
	}
	return out
}

// Target is one stream a plan executes against.
type Target struct {
	// Stream is the stream name items are tagged with.
	Stream string
	// Engine is the stream's query engine.
	Engine *query.Engine
	// Watermark pins every leaf to this ingest watermark (MaxSealSec
	// semantics: 0 = everything indexed, negative = the empty horizon).
	Watermark float64
	// NumGPUs is the GT-CNN verification parallelism for this stream.
	NumGPUs int
}

// Options tune one plan execution.
type Options struct {
	// TopK caps the ranked result; 0 returns every matching frame.
	TopK int
	// DefaultLeaf applies to leaves whose Opts are the zero value.
	DefaultLeaf LeafOptions
	// StepClusters is how many clusters each leaf resolves per refinement
	// round — the increment by which a Cursor extends the per-leaf
	// examined-cluster budget. Default 8.
	StepClusters int
	// Workers bounds the cross-stream fan-out; 0 runs one worker per
	// stream, 1 is the sequential reference. Both are bit-identical.
	Workers int
}

// Item is one ranked result: a frame on a stream with its aggregate
// confidence score — the sum, over the plan's positive leaves the frame
// satisfies, of the indexed class-confidence mass of the best verified
// cluster covering it.
type Item struct {
	Stream  string
	Frame   video.FrameID
	TimeSec float64
	Segment video.SegmentID
	Score   float64
}

// RankBefore is the total result order: score descending, then stream
// name, then frame — the comparator both the cursor and the one-shot path
// emit in. It is exported because it is a cross-layer contract: the
// router's scatter-gather merge must interleave per-shard rankings with
// exactly this order for a routed /plan answer to be bit-identical to a
// single-node execution (streams are disjoint across shards, so merging
// per-shard RankBefore-ordered lists reproduces the global order).
func RankBefore(a, b Item) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	if a.Stream != b.Stream {
		return a.Stream < b.Stream
	}
	return a.Frame < b.Frame
}

// rankCompare is RankBefore as the three-way comparison slices.SortFunc
// takes.
func rankCompare(a, b Item) int {
	switch {
	case RankBefore(a, b):
		return -1
	case RankBefore(b, a):
		return 1
	}
	return 0
}

// LeafStat reports one leaf's work on one stream.
type LeafStat struct {
	Class      string
	ViaOther   bool
	Candidates int // clusters retrieved (the selectivity estimate)
	Verified   int // clusters this leaf sent to GT verification
	Skipped    int // clusters short-circuited (no surviving frame needed them)
	Matched    int // verified clusters whose verdict equals the leaf class
}

// StreamStats reports one stream's share of an execution.
type StreamStats struct {
	Watermark        float64
	Leaves           []LeafStat
	VerifiedClusters int // distinct clusters resolved by verification
	SkippedClusters  int
	GTInferences     int // GT-CNN invocations actually paid (verdict-cache misses)
	GPUTimeMS        float64
	LatencyMS        float64
}

// Stats aggregates an execution across streams.
type Stats struct {
	Canonical    string
	PerStream    map[string]*StreamStats
	GTInferences int
	GPUTimeMS    float64
	LatencyMS    float64 // slowest stream bounds the plan (§5)
	Done         bool
	// EarlyExit marks a result produced by the budget-allocating early-exit
	// executor (ExecuteEarlyExit) rather than the exact ranking path.
	EarlyExit bool
}

// Result is a completed one-shot execution.
type Result struct {
	Items []Item
	Stats Stats
}

// Execute runs the plan to completion (or to TopK) and returns the ranked
// result. It is exactly NewCursor + one drain: paged and one-shot
// execution share every code path.
func Execute(p *Plan, targets []Target, opts Options) (*Result, error) {
	cur, err := NewCursor(p, targets, opts)
	if err != nil {
		return nil, err
	}
	items, err := cur.Next(0)
	if err != nil {
		return nil, err
	}
	return &Result{Items: items, Stats: cur.Stats()}, nil
}

// Cursor is a paged plan execution: Next(n) returns the next n items of
// the final ranking, refining the underlying per-leaf cluster budgets only
// as far as needed — and paying, per refinement round, only for the frames
// the newly resolved clusters cover, not for every frame in the window. An
// item is emitted only when no unresolved cluster anywhere could produce a
// higher-ranked frame, so the concatenation of pages is bit-identical to
// the one-shot ranking regardless of page sizes.
type Cursor struct {
	plan    *Plan
	opts    Options
	streams []*streamExec
	active  []*streamExec // scratch: the streams a round refines
	emitted int
	done    bool
}

// NewCursor prepares an execution over the targets: it retrieves every
// leaf's candidate clusters (index-only, no GPU time) and orders leaf
// verification by estimated selectivity. Verification starts lazily on the
// first Next.
func NewCursor(p *Plan, targets []Target, opts Options) (*Cursor, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("plan: no target streams")
	}
	if opts.StepClusters <= 0 {
		opts.StepClusters = 8
	}
	c := &Cursor{plan: p, opts: opts}
	for _, t := range targets {
		if t.Engine == nil {
			return nil, fmt.Errorf("plan: stream %q has no query engine", t.Stream)
		}
		s, err := newStreamExec(p, t, opts)
		if err != nil {
			return nil, err
		}
		c.streams = append(c.streams, s)
	}
	return c, nil
}

// Next returns up to n further items of the final ranking; n <= 0 drains
// the cursor. A short (or empty) return means the plan is exhausted — or
// that TopK was reached.
func (c *Cursor) Next(n int) ([]Item, error) {
	var out []Item
	for !c.done && (n <= 0 || len(out) < n) {
		// The globally best ready item is final once it outranks every
		// stream's upper bound on any still-unresolved frame's score.
		best := -1
		var bestItem Item
		maxBound := -1.0
		for si, s := range c.streams {
			if item, ok := s.peek(); ok && (best < 0 || RankBefore(item, bestItem)) {
				best, bestItem = si, item
			}
			if s.bound > maxBound {
				maxBound = s.bound
			}
		}
		if best >= 0 && bestItem.Score > maxBound {
			c.streams[best].pop()
			out = append(out, bestItem)
			c.emitted++
			if c.opts.TopK > 0 && c.emitted >= c.opts.TopK {
				c.done = true
			}
			continue
		}
		// Refine: every unresolved stream advances one round in parallel
		// (§5 fan-out; rounds are independent per stream, and emission
		// order is provably round-schedule independent). Finished streams
		// are left out, and a lone straggler runs inline.
		active := c.active[:0]
		for _, s := range c.streams {
			if !s.resolvedAll {
				active = append(active, s)
			}
		}
		c.active = active
		if len(active) == 0 {
			// Bounds are all gone, so any remaining ready item would have
			// been emitted above: the plan is exhausted.
			c.done = true
			break
		}
		workers := parallel.StreamWorkers(len(active), c.opts.Workers)
		err := parallel.ForEach(workers, len(active), func(i int) error {
			active[i].advance(c.opts.StepClusters)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Done reports whether the cursor is exhausted (or reached TopK).
func (c *Cursor) Done() bool { return c.done }

// Stats snapshots the execution's cost counters so far.
func (c *Cursor) Stats() Stats {
	return collectStats(c.plan.canonical, c.streams, c.done)
}

// collectStats aggregates per-stream counters; it is the single accounting
// path shared by the exact cursor and the early-exit executor.
func collectStats(canonical string, streams []*streamExec, done bool) Stats {
	st := Stats{
		Canonical: canonical,
		PerStream: make(map[string]*StreamStats, len(streams)),
		Done:      done,
	}
	for _, s := range streams {
		ss := &StreamStats{
			Watermark:        s.watermark,
			VerifiedClusters: len(s.uniqueVerified),
			GTInferences:     s.verifier.Inferences,
			GPUTimeMS:        s.verifier.GPUTimeMS,
			LatencyMS:        s.verifier.LatencyMS(),
		}
		for _, le := range s.leaves {
			ss.Leaves = append(ss.Leaves, LeafStat{
				Class:      le.spec.name,
				ViaOther:   le.viaOther,
				Candidates: len(le.cands),
				Verified:   le.verified,
				Skipped:    le.skipped,
				Matched:    le.matched,
			})
			ss.SkippedClusters += le.skipped
		}
		st.PerStream[s.name] = ss
		st.GTInferences += ss.GTInferences
		st.GPUTimeMS += ss.GPUTimeMS
		if ss.LatencyMS > st.LatencyMS {
			st.LatencyMS = ss.LatencyMS
		}
	}
	return st
}

// ---- per-stream execution ----
//
// One refinement round (advance) costs O(frames its resolved candidates
// cover), not O(frames). Three facts make the incremental bookkeeping
// exact:
//
//   - A frame's truth value, score and upper bound are functions of its
//     per-leaf status, bestConf and highest unresolved covering candidate,
//     and all three change only when a candidate covering the frame
//     resolves. The frames applyResolution touches are therefore a complete
//     dirty set: every other frame is exactly as the last round left it.
//   - Readiness and death are terminal (verdicts never retract), so the
//     ready list is a persistent heap that only ever gains members.
//   - A live frame's upper bound never increases: a leaf's Unknown term is
//     the confidence of its first unresolved covering candidate, candidates
//     resolve in descending confidence, and a leaf turning True contributes
//     at most that term. The stream bound is thus the top of a max-heap
//     holding each bound a frame has had; entries a frame has since moved
//     below are stale and discarded when they surface.

const (
	candUnresolved int8 = iota
	candMatched
	candNotMatched
	candSkipped
)

// A frame is live until it turns ready (plan True, score final) or dead
// (plan False); both are terminal.
const (
	frameLive uint8 = iota
	frameReady
	frameDead
)

type streamExec struct {
	name      string
	watermark float64
	eval      *node
	verifier  *query.BatchVerifier
	leaves    []*leafExec
	order     []int // leaf indices, most selective (fewest candidates) first

	uniqueVerified map[index.ClusterID]struct{}

	// The frame table. Every frame a candidate covers gets a dense number
	// in first-registration order; per-frame state is indexed by it and
	// per-(frame, leaf) state by frame*nLeaves+leaf.
	nLeaves  int
	frameID  []video.FrameID
	timeSec  []float64
	fate     []uint8   // frameLive / frameReady / frameDead
	ub       []float64 // a live frame's current score upper bound; -1 once terminal
	status   []int8    // per-leaf three-valued truth
	bestConf []float64 // per-leaf confidence of the best matching cluster
	pending  []int32   // per-leaf unresolved candidates covering the frame
	// memberOf[memberOff[k]:memberOff[k+1]] are the leaf's candidates
	// covering the frame, confidence-descending; nextUB[k] is the cursor
	// into that run for the unresolved-confidence bound.
	memberOff []int32
	memberOf  []int32
	nextUB    []int32

	// touched lists the frames covered by a candidate resolved this round;
	// touched[deadFrom:] have not yet been seen by refreshDead. stamp[f] ==
	// epoch marks f as already visited in the current pass; a pass ends by
	// bumping epoch.
	touched  []int32
	deadFrom int
	stamp    []uint32
	epoch    uint32

	ready       []Item    // min-heap by RankBefore: ready, unemitted frames
	bounds      []ubEntry // max-heap by ub over live frames, with stale entries
	bound       float64   // max possible score of any live frame; -1 if none
	resolvedAll bool
}

type ubEntry struct {
	ub    float64
	frame int32
}

func ubBefore(a, b ubEntry) bool { return a.ub > b.ub }

type leafExec struct {
	spec     *leafSpec
	viaOther bool
	cands    []*index.ClusterRecord
	confs    []float64 // per-candidate class confidence, descending
	// frames[frameOff[i]:frameOff[i+1]] are candidate i's distinct member
	// frames within the leaf window, as frame-table numbers.
	frameOff []int32
	frames   []int32
	state    []int8 // candUnresolved / candMatched / candNotMatched / candSkipped
	next     int    // first possibly-unresolved candidate
	verified int
	skipped  int
	matched  int
}

func (le *leafExec) candFrames(i int) []int32 {
	return le.frames[le.frameOff[i]:le.frameOff[i+1]]
}

func newStreamExec(p *Plan, t Target, opts Options) (*streamExec, error) {
	verifier, err := t.Engine.NewBatchVerifier(t.NumGPUs)
	if err != nil {
		return nil, err
	}
	s := &streamExec{
		name:           t.Stream,
		watermark:      t.Watermark,
		eval:           p.eval,
		verifier:       verifier,
		uniqueVerified: make(map[index.ClusterID]struct{}),
		nLeaves:        len(p.leaves),
		epoch:          1,
		bound:          -1,
	}
	// Retrieval first, for every leaf: its candidates in verification order
	// and, by binary search, the members of each inside the leaf's window.
	// Only then is the span of frame IDs known that the frame table numbers.
	windows := make([][][]cluster.Member, len(p.leaves))
	loFrame, hiFrame := video.FrameID(0), video.FrameID(-1)
	for li, spec := range p.leaves {
		lopts := spec.opts
		if lopts == (LeafOptions{}) {
			lopts = opts.DefaultLeaf
		}
		qopts := query.Options{
			Kx:          lopts.Kx,
			StartSec:    lopts.StartSec,
			EndSec:      lopts.EndSec,
			MaxClusters: lopts.MaxClusters,
			MaxSealSec:  t.Watermark,
		}
		cands, viaOther, err := t.Engine.Candidates(spec.class, qopts)
		if err != nil {
			return nil, fmt.Errorf("plan: stream %q leaf %q: %w", t.Stream, spec.name, err)
		}
		le := &leafExec{spec: spec, viaOther: viaOther}
		lookup := spec.class
		if viaOther {
			lookup = vision.ClassOther
		}
		// Verification order within the leaf: by indexed class confidence,
		// descending (ties by cluster ID) — so the first verified match
		// covering a frame is also its best-scoring one, and the highest
		// unresolved confidence bounds what refinement can still add.
		type scored struct {
			rec  *index.ClusterRecord
			conf float64
		}
		sc := make([]scored, len(cands))
		for i, rec := range cands {
			sc[i] = scored{rec: rec, conf: classConfidence(rec, lookup)}
		}
		slices.SortFunc(sc, func(a, b scored) int {
			return cmp.Or(cmp.Compare(b.conf, a.conf), cmp.Compare(a.rec.ID, b.rec.ID))
		})
		le.cands = make([]*index.ClusterRecord, len(sc))
		le.confs = make([]float64, len(sc))
		le.state = make([]int8, len(sc))
		le.frameOff = make([]int32, 1, len(sc)+1)
		windows[li] = make([][]cluster.Member, len(sc))
		for i, e := range sc {
			le.cands[i] = e.rec
			le.confs[i] = e.conf
			win := e.rec.Window(lopts.StartSec, lopts.EndSec)
			windows[li][i] = win
			for j := range win {
				f := win[j].Frame
				if hiFrame < loFrame { // empty so far
					loFrame, hiFrame = f, f
				} else {
					loFrame, hiFrame = min(loFrame, f), max(hiFrame, f)
				}
			}
		}
		s.leaves = append(s.leaves, le)
	}
	// frameNo[id-loFrame] is one more than the number of frame id, or zero
	// while it has none: a table exactly as long as the span, where a map
	// keyed by frame ID would hash every member and grow as it filled.
	frameNo := make([]int32, hiFrame-loFrame+1)
	for li, le := range s.leaves {
		for _, win := range windows[li] {
			s.registerMembers(le, win, frameNo, loFrame)
		}
	}
	s.buildFrameTable()
	// Short-circuit order: most selective leaf first (fewest candidates),
	// ties by leaf index, so cheap exclusions land before expensive leaves
	// spend GT time on already-dead frames.
	s.order = make([]int, len(s.leaves))
	for i := range s.order {
		s.order[i] = i
	}
	slices.SortFunc(s.order, func(a, b int) int {
		return cmp.Or(cmp.Compare(len(s.leaves[a].cands), len(s.leaves[b].cands)), cmp.Compare(a, b))
	})
	for f := range s.frameID {
		s.settle(int32(f))
	}
	s.refreshBound()
	return s, nil
}

// classConfidence extracts the cluster's indexed confidence mass for the
// lookup class (§3: clusters are indexed under their top-K classes with
// aggregated member confidence).
func classConfidence(rec *index.ClusterRecord, lookup vision.ClassID) float64 {
	for _, p := range rec.TopK {
		if p.Class == lookup {
			return float64(p.Confidence)
		}
	}
	return 0
}

// registerMembers appends the next candidate of le: the distinct frames of
// the cluster's members inside the leaf's window, in first-appearance
// order, numbering frames the table has not seen yet (with the timestamp of
// that first sighting).
func (s *streamExec) registerMembers(le *leafExec, window []cluster.Member, frameNo []int32, loFrame video.FrameID) {
	for i := range window {
		m := &window[i]
		no := &frameNo[m.Frame-loFrame]
		if *no == 0 {
			s.frameID = append(s.frameID, m.Frame)
			s.timeSec = append(s.timeSec, m.TimeSec)
			s.stamp = append(s.stamp, 0)
			*no = int32(len(s.frameID))
		}
		f := *no - 1
		if s.stamp[f] == s.epoch {
			continue
		}
		s.stamp[f] = s.epoch
		le.frames = append(le.frames, f)
	}
	le.frameOff = append(le.frameOff, int32(len(le.frames)))
	s.epoch++
}

// buildFrameTable lays out the per-(frame, leaf) state once every leaf's
// candidates are registered. Frames a leaf does not cover at all are
// permanently False for it.
func (s *streamExec) buildFrameTable() {
	cells := len(s.frameID) * s.nLeaves
	s.fate = make([]uint8, len(s.frameID))
	s.ub = make([]float64, len(s.frameID))
	for f := range s.ub {
		s.ub[f] = -1
	}
	s.status = make([]int8, cells)
	s.bestConf = make([]float64, cells)
	s.pending = make([]int32, cells)
	s.nextUB = make([]int32, cells)
	s.memberOff = make([]int32, cells+1)
	total := 0
	for li, le := range s.leaves {
		for _, f := range le.frames {
			s.pending[int(f)*s.nLeaves+li]++
		}
		total += len(le.frames)
	}
	for k, n := range s.pending {
		s.memberOff[k+1] = s.memberOff[k] + n
		s.nextUB[k] = s.memberOff[k]
		if n == 0 {
			s.status[k] = tvFalse
		}
	}
	// Candidates are visited in confidence-descending order, so each run
	// fills in that order; nextUB doubles as the fill cursor and is reset.
	s.memberOf = make([]int32, total)
	for li, le := range s.leaves {
		for ci := range le.cands {
			for _, f := range le.candFrames(ci) {
				k := int(f)*s.nLeaves + li
				s.memberOf[s.nextUB[k]] = int32(ci)
				s.nextUB[k]++
			}
		}
	}
	copy(s.nextUB, s.memberOff)
}

// advance resolves up to step candidates per leaf: clusters whose member
// frames are all already-True (for this leaf) or dead are skipped without
// GT cost; the rest are verified as one batch. Leaves run most selective
// first, and dead-frame knowledge propagates between leaves within the
// round, so a frame excluded by the cheap leaf spares the expensive
// leaves' clusters entirely.
func (s *streamExec) advance(step int) {
	if s.resolvedAll {
		return
	}
	for _, li := range s.order {
		le := s.leaves[li]
		resolved := 0
		var batch []*index.ClusterRecord
		var batchIdx []int
		for i := le.next; i < len(le.cands) && resolved < step; i++ {
			if le.state[i] != candUnresolved {
				continue
			}
			if s.skippable(li, i) {
				le.state[i] = candSkipped
				le.skipped++
				s.applyResolution(li, i, false)
				resolved++
				continue
			}
			batch = append(batch, le.cands[i])
			batchIdx = append(batchIdx, i)
			resolved++
		}
		verdicts := s.verifier.Verify(batch)
		for j, i := range batchIdx {
			s.uniqueVerified[le.cands[i].ID] = struct{}{}
			matched := verdicts[j] == le.spec.class
			if matched {
				le.state[i] = candMatched
				le.matched++
			} else {
				le.state[i] = candNotMatched
			}
			le.verified++
			s.applyResolution(li, i, matched)
		}
		for le.next < len(le.cands) && le.state[le.next] != candUnresolved {
			le.next++
		}
		// Propagate fresh False verdicts into dead flags before the next
		// leaf decides what it may skip.
		s.refreshDead()
	}
	s.resolvedAll = true
	for _, le := range s.leaves {
		if le.next < len(le.cands) {
			s.resolvedAll = false
			break
		}
	}
	s.recompute()
}

// skippable reports that verifying candidate i of leaf li cannot change
// the result: every frame it covers is either already True for the leaf
// (with at least this confidence, since candidates resolve in descending
// confidence order) or can never satisfy the plan.
func (s *streamExec) skippable(li, i int) bool {
	for _, f := range s.leaves[li].candFrames(i) {
		if s.fate[f] == frameDead || s.status[int(f)*s.nLeaves+li] == tvTrue {
			continue
		}
		return false
	}
	return true
}

// applyResolution updates per-frame leaf truth after candidate i of leaf
// li resolved (matched, not matched, or skipped), and records the frames it
// covers as touched.
func (s *streamExec) applyResolution(li, i int, matched bool) {
	le := s.leaves[li]
	for _, f := range le.candFrames(i) {
		k := int(f)*s.nLeaves + li
		s.pending[k]--
		if matched && s.status[k] != tvTrue {
			s.status[k] = tvTrue
			s.bestConf[k] = le.confs[i]
		} else if s.status[k] == tvUnknown && s.pending[k] == 0 {
			s.status[k] = tvFalse
		}
		if s.stamp[f] != s.epoch {
			s.stamp[f] = s.epoch
			s.touched = append(s.touched, f)
		}
	}
}

func (s *streamExec) frameStatus(f int32) []int8 {
	return s.status[int(f)*s.nLeaves : (int(f)+1)*s.nLeaves]
}

// retire moves a live frame to a terminal fate; clearing its bound is what
// makes its entries in the bounds heap stale.
func (s *streamExec) retire(f int32, fate uint8) { s.fate[f], s.ub[f] = fate, -1 }

// refreshDead updates the terminal-False flags of the frames touched since
// it last ran (between leaves within a round).
func (s *streamExec) refreshDead() {
	for _, f := range s.touched[s.deadFrom:] {
		if s.fate[f] == frameLive && evalTV(s.eval, s.frameStatus(f)) == tvFalse {
			s.retire(f, frameDead)
		}
	}
	s.deadFrom = len(s.touched)
	s.epoch++
}

// recompute settles the frames touched this round and refreshes the bound.
func (s *streamExec) recompute() {
	// A frame touched under several leaves is listed once per leaf.
	for _, f := range s.touched {
		if s.stamp[f] != s.epoch {
			s.stamp[f] = s.epoch
			s.settle(f)
		}
	}
	s.touched, s.deadFrom = s.touched[:0], 0
	s.epoch++
	s.refreshBound()
}

// settle re-derives one live frame's fate from its per-leaf truth state. A
// frame is ready once the plan is True for it and no scoring leaf covering
// it is still Unknown (its score can no longer grow); otherwise its upper
// bound is the best score it could still reach, using each leaf's highest
// unresolved candidate confidence.
func (s *streamExec) settle(f int32) {
	if s.fate[f] != frameLive {
		return
	}
	st := s.frameStatus(f)
	tv := evalTV(s.eval, st)
	if tv == tvFalse {
		s.retire(f, frameDead)
		return
	}
	score, settled := 0.0, true
	ub := 0.0
	for li, le := range s.leaves {
		if !le.spec.scoring {
			continue
		}
		k := int(f)*s.nLeaves + li
		switch st[li] {
		case tvTrue:
			score += s.bestConf[k]
			ub += s.bestConf[k]
		case tvUnknown:
			settled = false
			ub += s.unresolvedConf(k, le)
		}
	}
	if tv == tvTrue && settled {
		s.retire(f, frameReady)
		s.ready = heapPush(s.ready, Item{
			Stream:  s.name,
			Frame:   s.frameID[f],
			TimeSec: s.timeSec[f],
			Segment: video.SegmentOf(s.timeSec[f]),
			Score:   score,
		}, RankBefore)
		return
	}
	if ub != s.ub[f] {
		s.ub[f] = ub
		s.bounds = heapPush(s.bounds, ubEntry{ub: ub, frame: f}, ubBefore)
	}
}

// unresolvedConf returns the highest confidence among the leaf's unresolved
// candidates covering the frame of cell k — the most its score could still
// gain from that leaf.
func (s *streamExec) unresolvedConf(k int, le *leafExec) float64 {
	c, end := s.nextUB[k], s.memberOff[k+1]
	for c < end && le.state[s.memberOf[c]] != candUnresolved {
		c++
	}
	s.nextUB[k] = c
	if c < end {
		return le.confs[s.memberOf[c]]
	}
	return 0
}

// refreshBound discards surfaced entries that no longer equal their
// frame's bound; the top that remains is the stream bound.
func (s *streamExec) refreshBound() {
	for len(s.bounds) > 0 && s.bounds[0].ub != s.ub[s.bounds[0].frame] {
		s.bounds = heapPop(s.bounds, ubBefore)
	}
	s.bound = -1
	if len(s.bounds) > 0 {
		s.bound = s.bounds[0].ub
	}
}

func (s *streamExec) peek() (Item, bool) {
	if len(s.ready) > 0 {
		return s.ready[0], true
	}
	return Item{}, false
}

func (s *streamExec) pop() { s.ready = heapPop(s.ready, RankBefore) }

// heapPush and heapPop maintain a binary heap in a slice; before(a, b)
// reports that a must surface ahead of b.
func heapPush[T any](h []T, x T, before func(a, b T) bool) []T {
	h = append(h, x)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !before(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return h
}

func heapPop[T any](h []T, before func(a, b T) bool) []T {
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && before(h[c+1], h[c]) {
			c++
		}
		if !before(h[c], h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return h
}
