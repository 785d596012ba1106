package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"time"

	"focus"
	"focus/api"
	"focus/client"
)

// Every workload's corpus gets into the system the same way, the way a
// deployment's would: live ingestion through a server into a durable
// store, chunk by chunk with a checkpoint after each, one standing query
// watching, then a clean stop and a cold start from the store. The
// harness is the ingest clock, so each step is timed where it happens.

// Every stream is watched by one standing query over a bounded epoch of
// stream time, reopened as the stream passes into the next epoch, so one
// evaluation's cost does not grow with the corpus. An evaluation costs
// more the further its epoch has got — delta latency is a sawtooth — so
// the streams' epochs are staggered: at every step the standing queries
// are spread over the sawtooth, and the time from the pump to the last
// delta decoded, which is what delta_p50_ms samples once per step, is
// about as long at one step as at the next. (One standing query with 300 s
// epochs gave a 500 s run a median that jumped by a quarter between two
// runs of one seed.)
const (
	standingExpr     = "bus & !person"
	standingEpochSec = 100
)

// epochOf returns the epoch a stream's standing query is in when the
// stream is about to be ingested from `from`, and the epoch's bounds.
// Stream i's epochs begin i quarters of an epoch early.
func epochOf(stream string, from float64) (epoch int, start, end float64) {
	shift := 0.0
	for i, name := range streamNames {
		if name == stream {
			shift = float64(i) * standingEpochSec / float64(len(streamNames))
		}
	}
	epoch = int((from + shift) / standingEpochSec)
	start = float64(epoch)*standingEpochSec - shift
	return epoch, max(0, start), start + standingEpochSec
}

// subState is a standing query's reassembled answer at one vector, kept
// for the answer check.
type subState struct {
	hello  *api.SubscribeHello
	vector api.WatermarkVector
	items  []api.Item
}

// ingestPhase is what one node's ingestion measured.
type ingestPhase struct {
	streamSec float64 // stream-seconds sealed
	// tuneSec is serve.Start on the empty store: the tuning sweep.
	tuneSec float64
	// stepSec is the wall time of the ingest steps proper: AdvanceLive and
	// CheckpointLive over every stream, nothing else.
	stepSec      float64
	advanceSec   float64
	checkpointMS []float64
	// deltaMS has one sample per step: the pump to the last standing
	// query's delta decoded. deltas counts the deltas received.
	deltaMS      []float64
	deltas       int
	deltaItems   int
	subStates    []subState
	gpuIngestMS  float64
	gpuIngestOps int64
	frames       int
	sightings    int
	cnnInfers    int
	deduped      int
	clusters     int
	storeBytes   int64
	// stats is /v1/stats just before the stop.
	stats map[string]float64
}

// watcher holds one stream's standing query open across epochs.
type watcher struct {
	cli    *client.Client
	stream string
	cancel context.CancelFunc
	sub    *client.Subscriber
	epoch  int
	phase  *ingestPhase
}

// follow makes sure the standing query covers stream time `from` onwards,
// reopening it when the stream has passed into the next epoch.
func (w *watcher) follow(from float64) error {
	epoch, start, end := epochOf(w.stream, from)
	if w.sub != nil && epoch == w.epoch {
		return nil
	}
	w.close()
	ctx, cancel := context.WithCancel(context.Background())
	sub, err := w.cli.Subscribe(ctx, &api.SubscribeRequest{
		Expr: standingExpr, Streams: []string{w.stream}, Start: start, End: end})
	if err != nil {
		cancel()
		return fmt.Errorf("subscribing on %s: %w", w.stream, err)
	}
	w.sub, w.cancel, w.epoch = sub, cancel, epoch
	// The stream opens with a catch-up delta to the current vector.
	_, err = sub.Recv()
	return err
}

// close snapshots the reassembled state for the answer check and ends the
// subscription.
func (w *watcher) close() {
	if w.sub == nil {
		return
	}
	w.phase.subStates = append(w.phase.subStates, subState{
		hello: w.sub.Hello(), vector: w.sub.Vector(), items: append([]api.Item(nil), w.sub.Items()...)})
	w.sub.Close()
	w.cancel()
	w.sub = nil
}

// ingestLive drives n's streams from watermark zero to corpusSec in steps
// of chunkSec. Each step advances and checkpoints every stream, pumps the
// standing queries and waits for each one's delta, then calls between
// (live_ingest reads there; the other workloads pass nil). It leaves the
// node running, fully ingested.
func ingestLive(n *node, corpusSec, chunkSec float64, rec *recorder, between func(t float64)) (*ingestPhase, error) {
	p := &ingestPhase{tuneSec: n.startSec}
	// Subscriptions outlive any request timeout.
	subs := client.New(n.url, client.WithHTTPClient(&http.Client{}))
	watchers := make([]*watcher, len(n.streams))
	for i, name := range n.streams {
		watchers[i] = &watcher{cli: subs, stream: name, phase: p}
		defer watchers[i].close()
	}
	sessions := make([]*focus.Session, len(n.streams))
	for i, name := range n.streams {
		sessions[i] = n.sys.Session(name)
	}
	steps := int(corpusSec/chunkSec + 0.5)
	for step := 1; step <= steps; step++ {
		t := float64(step) * chunkSec
		for _, w := range watchers {
			if err := w.follow(t - chunkSec); err != nil {
				return nil, err
			}
		}
		stepStart := time.Now()
		for _, sess := range sessions {
			a0 := time.Now()
			if _, err := sess.AdvanceLive(t); err != nil {
				return nil, fmt.Errorf("advancing %s to %g: %w", sess.Name(), t, err)
			}
			c0 := time.Now()
			if err := sess.CheckpointLive(); err != nil {
				return nil, fmt.Errorf("checkpointing %s at %g: %w", sess.Name(), t, err)
			}
			c1 := time.Now()
			p.advanceSec += c0.Sub(a0).Seconds()
			p.checkpointMS = append(p.checkpointMS, float64(c1.Sub(c0))/1e6)
			if rec != nil {
				end := rec.now()
				id := rec.newID()
				rec.add(span{ID: id, Req: id, Name: "ingest.advance", Class: "ingest",
					Start: end - int64(c1.Sub(a0)), End: end - int64(c1.Sub(c0))})
				id = rec.newID()
				rec.add(span{ID: id, Req: id, Name: "kvstore.checkpoint", Class: "ingest",
					Start: end - int64(c1.Sub(c0)), End: end})
			}
		}
		p.stepSec += time.Since(stepStart).Seconds()
		d0 := time.Now()
		n.srv.PumpSubscriptions()
		for _, w := range watchers {
			d, err := w.sub.Recv()
			if err != nil {
				return nil, fmt.Errorf("waiting for %s's delta at %g: %w", w.stream, t, err)
			}
			p.deltaItems += len(d.Items) + len(d.RemovedItems)
			p.deltas++
		}
		el := time.Since(d0)
		p.deltaMS = append(p.deltaMS, float64(el)/1e6)
		if rec != nil {
			end := rec.now()
			id := rec.newID()
			rec.add(span{ID: id, Req: id, Name: "subscribe.delta", Class: "ingest", Start: end - int64(el), End: end})
		}
		if between != nil {
			between(t)
		}
	}
	if !n.srv.IngestDone() {
		return nil, fmt.Errorf("ingest did not finish at %g s", corpusSec)
	}
	p.streamSec = corpusSec * float64(len(sessions))
	for _, sess := range sessions {
		st := sess.IngestStats()
		p.frames += st.Frames
		p.sightings += st.Sightings
		p.cnnInfers += st.CNNInferences
		p.deduped += st.Deduplicated
		p.clusters += st.Clusters
	}
	meter := n.sys.GPUMeter()
	p.gpuIngestMS, p.gpuIngestOps = meter.IngestMS, meter.IngestOps
	var err error
	p.stats, err = queryStats(n.url)
	return p, err
}

// storeSize is the size of a closed store file.
func storeSize(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// restoreNode cold-starts a server from a populated store and checks that
// every stream came back from its checkpoint, fully ingested.
func restoreNode(cfg focus.Config, streams []string, corpusSec, chunkSec float64, rec *recorder) (*node, error) {
	n, err := startNode(cfg, streams, corpusSec, chunkSec, rec)
	if err != nil {
		return nil, err
	}
	st, err := queryStats(n.url)
	if err == nil && (int(st["restored_streams"]) != len(streams) || !n.srv.IngestDone()) {
		err = fmt.Errorf("restored %g of %d streams, ingest done %v", st["restored_streams"], len(streams), n.srv.IngestDone())
	}
	if err != nil {
		n.stop()
		return nil, err
	}
	return n, nil
}
