package plan

// The full-scan per-stream executor, kept verbatim as the oracle for the
// differential test (exec_diff_test.go): every refinement round re-walks
// all frames to refresh dead flags and rebuilds the ready list and bound
// from scratch. The production executor in exec.go must agree with it
// after every advance.

import (
	"fmt"
	"sort"

	"focus/internal/index"
	"focus/internal/query"
	"focus/internal/video"
	"focus/internal/vision"
)

type refStreamExec struct {
	name      string
	watermark float64
	eval      *node
	verifier  *query.BatchVerifier
	leaves    []*refLeafExec
	order     []int // leaf indices, most selective (fewest candidates) first

	frames         map[video.FrameID]*refFrameState
	uniqueVerified map[index.ClusterID]struct{}

	ready       []Item // ready, unemitted frames in final rank order
	readyPos    int
	bound       float64 // max possible score of any unready, undead frame; -1 if none
	resolvedAll bool
}

// refFrameRef is one distinct member frame of a candidate cluster, with its
// timestamp.
type refFrameRef struct {
	frame   video.FrameID
	timeSec float64
}

type refLeafExec struct {
	spec       *leafSpec
	viaOther   bool
	cands      []*index.ClusterRecord
	confs      []float64       // per-candidate class confidence, descending
	candFrames [][]refFrameRef // per-candidate member frames within the leaf window, deduplicated
	state      []int8          // candUnresolved / candMatched / candNotMatched / candSkipped
	next       int             // first possibly-unresolved candidate
	verified   int
	skipped    int
	matched    int
}

type refFrameState struct {
	timeSec  float64
	status   []int8    // per-leaf three-valued truth
	bestConf []float64 // per-leaf confidence of the best matching cluster
	pending  []int32   // per-leaf unresolved candidates covering this frame
	memberOf [][]int32 // per-leaf candidate indices covering this frame, confidence-descending
	nextUB   []int32   // per-leaf cursor into memberOf for the unresolved-confidence bound
	emitted  bool
	dead     bool // overall verdict is False: terminal
}

func newRefStreamExec(p *Plan, t Target, opts Options) (*refStreamExec, error) {
	verifier, err := t.Engine.NewBatchVerifier(t.NumGPUs)
	if err != nil {
		return nil, err
	}
	s := &refStreamExec{
		name:           t.Stream,
		watermark:      t.Watermark,
		eval:           p.eval,
		verifier:       verifier,
		frames:         make(map[video.FrameID]*refFrameState),
		uniqueVerified: make(map[index.ClusterID]struct{}),
		bound:          -1,
	}
	nLeaves := len(p.leaves)
	for _, spec := range p.leaves {
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
		le := &refLeafExec{spec: spec, viaOther: viaOther}
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
		sort.Slice(sc, func(i, j int) bool {
			if sc[i].conf != sc[j].conf {
				return sc[i].conf > sc[j].conf
			}
			return sc[i].rec.ID < sc[j].rec.ID
		})
		le.cands = make([]*index.ClusterRecord, len(sc))
		le.confs = make([]float64, len(sc))
		le.candFrames = make([][]refFrameRef, len(sc))
		le.state = make([]int8, len(sc))
		for i, e := range sc {
			le.cands[i] = e.rec
			le.confs[i] = e.conf
			le.candFrames[i] = refMemberFrames(e.rec, lopts)
		}
		s.leaves = append(s.leaves, le)
	}
	// Register every frame any leaf could touch, with per-leaf coverage.
	// Frames not covered by a leaf at all are permanently False for it.
	for li, le := range s.leaves {
		for ci, frames := range le.candFrames {
			for _, fr := range frames {
				fs := s.frames[fr.frame]
				if fs == nil {
					fs = &refFrameState{
						timeSec:  fr.timeSec,
						status:   make([]int8, nLeaves),
						bestConf: make([]float64, nLeaves),
						pending:  make([]int32, nLeaves),
						memberOf: make([][]int32, nLeaves),
						nextUB:   make([]int32, nLeaves),
					}
					s.frames[fr.frame] = fs
				}
				fs.memberOf[li] = append(fs.memberOf[li], int32(ci))
				fs.pending[li]++
			}
		}
	}
	for _, fs := range s.frames {
		for li := range s.leaves {
			if fs.pending[li] == 0 {
				fs.status[li] = tvFalse
			}
		}
	}
	// Short-circuit order: most selective leaf first (fewest candidates),
	// ties by leaf index, so cheap exclusions land before expensive leaves
	// spend GT time on already-dead frames.
	s.order = make([]int, len(s.leaves))
	for i := range s.order {
		s.order[i] = i
	}
	sort.Slice(s.order, func(i, j int) bool {
		a, b := s.order[i], s.order[j]
		if len(s.leaves[a].cands) != len(s.leaves[b].cands) {
			return len(s.leaves[a].cands) < len(s.leaves[b].cands)
		}
		return a < b
	})
	s.recompute()
	return s, nil
}

// refMemberFrames returns the cluster's distinct member frames within the
// leaf's window, in first-appearance order, with their timestamps.
func refMemberFrames(rec *index.ClusterRecord, opts LeafOptions) []refFrameRef {
	var out []refFrameRef
	seen := make(map[video.FrameID]struct{}, len(rec.Members))
	for _, m := range rec.Members {
		if m.TimeSec < opts.StartSec {
			continue
		}
		if opts.EndSec > 0 && m.TimeSec > opts.EndSec {
			continue
		}
		if _, dup := seen[m.Frame]; dup {
			continue
		}
		seen[m.Frame] = struct{}{}
		out = append(out, refFrameRef{frame: m.Frame, timeSec: m.TimeSec})
	}
	return out
}

// advance resolves up to step candidates per leaf: clusters whose member
// frames are all already-True (for this leaf) or dead are skipped without
// GT cost; the rest are verified as one batch. Leaves run most selective
// first, and dead-frame knowledge propagates between leaves within the
// round, so a frame excluded by the cheap leaf spares the expensive
// leaves' clusters entirely.
func (s *refStreamExec) advance(step int) {
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
func (s *refStreamExec) skippable(li, i int) bool {
	for _, fr := range s.leaves[li].candFrames[i] {
		fs := s.frames[fr.frame]
		if fs.dead || fs.status[li] == tvTrue {
			continue
		}
		return false
	}
	return true
}

// applyResolution updates per-frame leaf truth after candidate i of leaf
// li resolved (matched, not matched, or skipped).
func (s *refStreamExec) applyResolution(li, i int, matched bool) {
	le := s.leaves[li]
	for _, fr := range le.candFrames[i] {
		fs := s.frames[fr.frame]
		fs.pending[li]--
		if matched && fs.status[li] != tvTrue {
			fs.status[li] = tvTrue
			fs.bestConf[li] = le.confs[i]
		} else if fs.status[li] == tvUnknown && fs.pending[li] == 0 {
			fs.status[li] = tvFalse
		}
	}
}

// refreshDead updates only the terminal-False flags (cheap enough to run
// between leaves within a round).
func (s *refStreamExec) refreshDead() {
	for _, fs := range s.frames {
		if !fs.dead && !fs.emitted && evalTV(s.eval, fs.status) == tvFalse {
			fs.dead = true
		}
	}
}

// recompute rebuilds the stream's ready list and score bound from the
// per-frame truth state. A frame is ready once the plan is True for it and
// no scoring leaf covering it is still Unknown (its score can no longer
// grow); the bound is the best score any not-yet-ready frame could still
// reach, using each leaf's highest unresolved candidate confidence.
func (s *refStreamExec) recompute() {
	s.ready = s.ready[:0]
	s.readyPos = 0
	s.bound = -1
	for f, fs := range s.frames {
		if fs.emitted || fs.dead {
			continue
		}
		tv := evalTV(s.eval, fs.status)
		if tv == tvFalse {
			fs.dead = true
			continue
		}
		score, settled := 0.0, true
		ub := 0.0
		for li, le := range s.leaves {
			if !le.spec.scoring {
				continue
			}
			switch fs.status[li] {
			case tvTrue:
				score += fs.bestConf[li]
				ub += fs.bestConf[li]
			case tvUnknown:
				settled = false
				ub += s.unresolvedConf(fs, li)
			}
		}
		if tv == tvTrue && settled {
			s.ready = append(s.ready, Item{
				Stream:  s.name,
				Frame:   f,
				TimeSec: fs.timeSec,
				Segment: video.SegmentOf(fs.timeSec),
				Score:   score,
			})
			continue
		}
		if ub > s.bound {
			s.bound = ub
		}
	}
	sort.Slice(s.ready, func(i, j int) bool { return RankBefore(s.ready[i], s.ready[j]) })
}

// unresolvedConf returns the highest confidence among leaf li's unresolved
// candidates covering this frame — the most its score could still gain
// from that leaf.
func (s *refStreamExec) unresolvedConf(fs *refFrameState, li int) float64 {
	le := s.leaves[li]
	list := fs.memberOf[li]
	for int(fs.nextUB[li]) < len(list) && le.state[list[fs.nextUB[li]]] != candUnresolved {
		fs.nextUB[li]++
	}
	if int(fs.nextUB[li]) < len(list) {
		return le.confs[list[fs.nextUB[li]]]
	}
	return 0
}

func (s *refStreamExec) peek() (Item, bool) {
	if s.readyPos < len(s.ready) {
		return s.ready[s.readyPos], true
	}
	return Item{}, false
}

func (s *refStreamExec) pop() {
	item := s.ready[s.readyPos]
	s.frames[item.Frame].emitted = true
	s.readyPos++
}
