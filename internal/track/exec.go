package track

import (
	"cmp"
	"fmt"
	"slices"

	"focus/internal/index"
	"focus/internal/parallel"
	"focus/internal/plan"
	"focus/internal/query"
	"focus/internal/video"
)

// Options tune one track execution. Targets are plan.Target — the track
// path executes against the same per-stream engines, watermarks, and GPU
// parallelism as the boolean path.
type Options struct {
	// TopK caps the ranked result; 0 returns every matching track.
	TopK int
	// DefaultLeaf applies to class leaves whose Opts are the zero value;
	// its StartSec/EndSec window and MaxClusters budget also shape track
	// assembly (which clusters contribute sightings).
	DefaultLeaf plan.LeafOptions
	// StepClusters is how many dominant clusters each stream refines per
	// round — the increment by which a Cursor extends the verification
	// budget. Default 8.
	StepClusters int
	// Workers bounds the cross-stream fan-out; 0 runs one worker per
	// stream, 1 is the sequential reference. Both are bit-identical.
	Workers int
}

// Item is one ranked result: a track on a stream with its aggregate
// confidence score — the sum, over the plan's positive class leaves the
// track satisfies, of the dominant cluster's indexed confidence for the
// class.
type Item struct {
	Stream string
	// Track is the track's ID within its stream's assembly at the pinned
	// watermark.
	Track int64
	// Object is the physical object the track follows.
	Object video.ObjectID
	// StartFrame/EndFrame and StartSec/EndSec bound the track.
	StartFrame video.FrameID
	EndFrame   video.FrameID
	StartSec   float64
	EndSec     float64
	// Sightings is the number of detections in the track.
	Sightings int
	// Score ranks the item (see RankBefore).
	Score float64
}

// RankBefore is the total result order: score descending, then stream
// name, then track start time, then track ID — the comparator both the
// cursor and the one-shot path emit in. Exported for the same reason as
// plan.RankBefore: the router's merge must interleave per-shard track
// rankings with exactly this order for a routed answer to be
// bit-identical to a single-node execution.
func RankBefore(a, b Item) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	if a.Stream != b.Stream {
		return a.Stream < b.Stream
	}
	if a.StartSec != b.StartSec {
		return a.StartSec < b.StartSec
	}
	return a.Track < b.Track
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

// ClassStat reports one class leaf's work on one stream.
type ClassStat struct {
	Class    string
	ViaOther bool
	// InCut counts tracks whose dominant cluster indexes the class within
	// the leaf's Kx cut; Rejected counts tracks excluded by the index
	// alone (no GPU). Matched counts tracks the GT verdict confirmed.
	InCut    int
	Rejected int
	Matched  int
}

// StreamStats reports one stream's share of an execution.
type StreamStats struct {
	Watermark float64
	// Tracks is the assembled population size at the watermark.
	Tracks  int
	Classes []ClassStat
	// VerifiedClusters counts distinct dominant clusters resolved by GT
	// verification; SkippedClusters counts those short-circuited (every
	// dependent track already decided).
	VerifiedClusters int
	SkippedClusters  int
	GTInferences     int // GT-CNN invocations actually paid (verdict-cache misses)
	GPUTimeMS        float64
	LatencyMS        float64
}

// Stats aggregates an execution across streams.
type Stats struct {
	Canonical    string
	PerStream    map[string]*StreamStats
	Tracks       int
	GTInferences int
	GPUTimeMS    float64
	LatencyMS    float64 // slowest stream bounds the query, as in plan
	Done         bool
}

// Result is a completed one-shot execution.
type Result struct {
	Items []Item
	Stats Stats
}

// Execute runs the track plan to completion (or to TopK) and returns the
// ranked result. It is exactly NewCursor + one drain: paged and one-shot
// execution share every code path.
func Execute(p *Plan, targets []plan.Target, opts Options) (*Result, error) {
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

// Cursor is a paged track execution: Next(n) returns the next n items of
// the final ranking, refining dominant-cluster verdicts only as far as
// needed. An item is emitted only when no unresolved cluster anywhere
// could produce a higher-ranked track, so the concatenation of pages is
// bit-identical to the one-shot ranking regardless of page sizes —
// including pages that split mid-track population.
type Cursor struct {
	plan    *Plan
	opts    Options
	streams []*trackExec
	active  []*trackExec // scratch: the streams a round refines
	emitted int
	done    bool
}

// NewCursor prepares an execution over the targets: it assembles each
// stream's track population at its watermark (index-only, no GPU time),
// decides every temporal atom, and resolves class leaves against the
// index's Kx cut. GT verification starts lazily on the first Next.
func NewCursor(p *Plan, targets []plan.Target, opts Options) (*Cursor, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("track: no target streams")
	}
	if opts.StepClusters <= 0 {
		opts.StepClusters = 8
	}
	c := &Cursor{plan: p, opts: opts}
	for _, t := range targets {
		if t.Engine == nil {
			return nil, fmt.Errorf("track: stream %q has no query engine", t.Stream)
		}
		s, err := newTrackExec(p, t, opts)
		if err != nil {
			return nil, err
		}
		c.streams = append(c.streams, s)
	}
	return c, nil
}

// Next returns up to n further items of the final ranking; n <= 0 drains
// the cursor. A short (or empty) return means the query is exhausted — or
// that TopK was reached.
func (c *Cursor) Next(n int) ([]Item, error) {
	var out []Item
	for !c.done && (n <= 0 || len(out) < n) {
		// The globally best ready item is final once it outranks every
		// stream's upper bound on any still-unresolved track's score.
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
		// Refine the unresolved streams only; a lone straggler runs inline.
		active := c.active[:0]
		for _, s := range c.streams {
			if !s.resolvedAll {
				active = append(active, s)
			}
		}
		c.active = active
		if len(active) == 0 {
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
	st := Stats{
		Canonical: c.plan.canonical,
		PerStream: make(map[string]*StreamStats, len(c.streams)),
		Done:      c.done,
	}
	for _, s := range c.streams {
		ss := &StreamStats{
			Watermark:        s.watermark,
			Tracks:           len(s.tracks),
			VerifiedClusters: len(s.uniqueVerified),
			SkippedClusters:  s.skipped,
			GTInferences:     s.verifier.Inferences,
			GPUTimeMS:        s.verifier.GPUTimeMS,
			LatencyMS:        s.verifier.LatencyMS(),
		}
		ss.Classes = append(ss.Classes, s.classStats...)
		st.PerStream[s.name] = ss
		st.Tracks += ss.Tracks
		st.GTInferences += ss.GTInferences
		st.GPUTimeMS += ss.GPUTimeMS
		if ss.LatencyMS > st.LatencyMS {
			st.LatencyMS = ss.LatencyMS
		}
	}
	return st
}

// ---- per-stream execution ----

const (
	jobUnresolved int8 = iota
	jobVerified
	jobSkipped
)

// trackState is one track's evaluation state.
type trackState struct {
	tr *Track
	// classTV and classConf are per class leaf: three-valued truth and the
	// dominant cluster's confidence for the class (the score contribution
	// when True).
	classTV   []int8
	classConf []float64
	// atomVals are the pre-decided temporal atoms.
	atomVals []int8
	emitted  bool
	dead     bool
}

// clusterJob is one dominant cluster awaiting a GT verdict, with the
// tracks depending on it.
type clusterJob struct {
	rec    *index.ClusterRecord
	tracks []int // indices into trackExec.states
	prio   float64
	state  int8
}

type trackExec struct {
	name      string
	watermark float64
	plan      *Plan
	verifier  *query.BatchVerifier

	tracks []*Track
	states []*trackState
	jobs   []*clusterJob
	next   int // first possibly-unresolved job

	uniqueVerified map[index.ClusterID]struct{}
	skipped        int
	classStats     []ClassStat

	ready       []Item
	readyPos    int
	bound       float64 // max possible score of any unready, undead track; -1 if none
	resolvedAll bool
}

func newTrackExec(p *Plan, t plan.Target, opts Options) (*trackExec, error) {
	verifier, err := t.Engine.NewBatchVerifier(t.NumGPUs)
	if err != nil {
		return nil, err
	}
	qopts := query.Options{
		StartSec:    opts.DefaultLeaf.StartSec,
		EndSec:      opts.DefaultLeaf.EndSec,
		MaxClusters: opts.DefaultLeaf.MaxClusters,
		MaxSealSec:  t.Watermark,
	}
	tl, err := t.Engine.Timeline(qopts)
	if err != nil {
		return nil, fmt.Errorf("track: stream %q: %w", t.Stream, err)
	}
	s := &trackExec{
		name:           t.Stream,
		watermark:      t.Watermark,
		plan:           p,
		verifier:       verifier,
		tracks:         Assemble(tl),
		uniqueVerified: make(map[index.ClusterID]struct{}),
		bound:          -1,
	}
	s.classStats = make([]ClassStat, len(p.leaves))
	for li, spec := range p.leaves {
		s.classStats[li].Class = spec.name
	}
	// Per-track state is carved from one array per field.
	nl, na := len(p.leaves), len(p.atoms)
	states := make([]trackState, len(s.tracks))
	classTV := make([]int8, len(s.tracks)*nl)
	classConf := make([]float64, len(s.tracks)*nl)
	atomVals := make([]int8, len(s.tracks)*na)
	s.states = make([]*trackState, len(s.tracks))
	jobByCluster := make(map[index.ClusterID]*clusterJob)
	for ti, tr := range s.tracks {
		ts := &states[ti]
		*ts = trackState{
			tr:        tr,
			classTV:   classTV[ti*nl : (ti+1)*nl : (ti+1)*nl],
			classConf: classConf[ti*nl : (ti+1)*nl : (ti+1)*nl],
			atomVals:  atomVals[ti*na : (ti+1)*na : (ti+1)*na],
		}
		s.states[ti] = ts
		for ai, atom := range p.atoms {
			if atom(tr) {
				ts.atomVals[ai] = tvTrue
			} else {
				ts.atomVals[ai] = tvFalse
			}
		}
		dom := tl.Cluster(tr.Dominant)
		needsVerdict := false
		for li, spec := range p.leaves {
			lopts := spec.opts
			if lopts == (plan.LeafOptions{}) {
				lopts = opts.DefaultLeaf
			}
			conf, inCut, viaOther := t.Engine.ClassStanding(dom, spec.class, lopts.Kx)
			s.classStats[li].ViaOther = viaOther
			if !inCut {
				// The index vouches the dominant cluster does not plausibly
				// contain the class: False without any GPU time.
				ts.classTV[li] = tvFalse
				s.classStats[li].Rejected++
				continue
			}
			ts.classTV[li] = tvUnknown
			ts.classConf[li] = conf
			s.classStats[li].InCut++
			needsVerdict = true
		}
		if !needsVerdict {
			continue
		}
		job := jobByCluster[tr.Dominant]
		if job == nil {
			job = &clusterJob{rec: dom}
			jobByCluster[tr.Dominant] = job
			s.jobs = append(s.jobs, job)
		}
		job.tracks = append(job.tracks, ti)
		for li := range p.leaves {
			if ts.classTV[li] == tvUnknown && ts.classConf[li] > job.prio {
				job.prio = ts.classConf[li]
			}
		}
	}
	// Verification order: highest at-stake confidence first (ties by
	// cluster ID) — the track analog of the plan path's
	// confidence-descending candidate order, so the first verdicts settle
	// the highest-scoring tracks and the bound falls fastest.
	slices.SortFunc(s.jobs, func(a, b *clusterJob) int {
		return cmp.Or(cmp.Compare(b.prio, a.prio), cmp.Compare(a.rec.ID, b.rec.ID))
	})
	s.recompute()
	s.resolvedAll = s.next >= len(s.jobs)
	return s, nil
}

// settled reports that the track's ranked fate needs no further verdicts:
// its truth is True and no scoring leaf is still Unknown (the score can
// no longer grow). Dead tracks are handled separately.
func (s *trackExec) settled(ts *trackState) bool {
	if evalTV(s.plan.eval, ts.classTV, ts.atomVals) != tvTrue {
		return false
	}
	for li, spec := range s.plan.leaves {
		if spec.scoring && ts.classTV[li] == tvUnknown {
			return false
		}
	}
	return true
}

// needed reports whether verifying the job can still change the result.
func (s *trackExec) needed(job *clusterJob) bool {
	for _, ti := range job.tracks {
		ts := s.states[ti]
		if ts.dead || ts.emitted {
			continue
		}
		if !s.settled(ts) {
			return true
		}
	}
	return false
}

// advance resolves up to step cluster jobs: jobs whose dependent tracks
// are all already decided are skipped without GT cost; the rest are
// verified as one batch through the engine's shared verdict cache, and
// the single verdict settles every class leaf of every dependent track
// at once.
func (s *trackExec) advance(step int) {
	if s.resolvedAll {
		return
	}
	resolved := 0
	var batch []*index.ClusterRecord
	var batchJobs []*clusterJob
	for i := s.next; i < len(s.jobs) && resolved < step; i++ {
		job := s.jobs[i]
		if job.state != jobUnresolved {
			continue
		}
		if !s.needed(job) {
			job.state = jobSkipped
			s.skipped++
			resolved++
			continue
		}
		batch = append(batch, job.rec)
		batchJobs = append(batchJobs, job)
		resolved++
	}
	verdicts := s.verifier.Verify(batch)
	for j, job := range batchJobs {
		job.state = jobVerified
		s.uniqueVerified[job.rec.ID] = struct{}{}
		verdict := verdicts[j]
		for _, ti := range job.tracks {
			ts := s.states[ti]
			for li, spec := range s.plan.leaves {
				if ts.classTV[li] != tvUnknown {
					continue
				}
				if verdict == spec.class {
					ts.classTV[li] = tvTrue
					s.classStats[li].Matched++
				} else {
					ts.classTV[li] = tvFalse
					ts.classConf[li] = 0
				}
			}
		}
	}
	for s.next < len(s.jobs) && s.jobs[s.next].state != jobUnresolved {
		s.next++
	}
	s.resolvedAll = s.next >= len(s.jobs)
	s.recompute()
}

// recompute rebuilds the stream's ready list and score bound from the
// per-track truth state, mirroring the plan executor: a track is ready
// once the plan is True for it and no scoring leaf is still Unknown; the
// bound is the best score any not-yet-ready track could still reach.
func (s *trackExec) recompute() {
	s.ready = s.ready[:0]
	s.readyPos = 0
	s.bound = -1
	for _, ts := range s.states {
		if ts.emitted || ts.dead {
			continue
		}
		tv := evalTV(s.plan.eval, ts.classTV, ts.atomVals)
		if tv == tvFalse {
			ts.dead = true
			continue
		}
		score, settled := 0.0, true
		ub := 0.0
		for li, spec := range s.plan.leaves {
			if !spec.scoring {
				continue
			}
			switch ts.classTV[li] {
			case tvTrue:
				score += ts.classConf[li]
				ub += ts.classConf[li]
			case tvUnknown:
				settled = false
				ub += ts.classConf[li]
			}
		}
		if tv == tvTrue && settled {
			s.ready = append(s.ready, s.item(ts, score))
			continue
		}
		if ub > s.bound {
			s.bound = ub
		}
	}
	slices.SortFunc(s.ready, rankCompare)
}

func (s *trackExec) item(ts *trackState, score float64) Item {
	tr := ts.tr
	return Item{
		Stream:     s.name,
		Track:      tr.ID,
		Object:     tr.Sightings[0].Object,
		StartFrame: tr.Sightings[0].Frame,
		EndFrame:   tr.Sightings[len(tr.Sightings)-1].Frame,
		StartSec:   tr.StartSec(),
		EndSec:     tr.EndSec(),
		Sightings:  len(tr.Sightings),
		Score:      score,
	}
}

func (s *trackExec) peek() (Item, bool) {
	if s.readyPos < len(s.ready) {
		return s.ready[s.readyPos], true
	}
	return Item{}, false
}

func (s *trackExec) pop() {
	// Track IDs are dense in assembly order, so the ID indexes states.
	s.states[s.ready[s.readyPos].Track].emitted = true
	s.readyPos++
}
