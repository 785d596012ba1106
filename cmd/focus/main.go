// Command focus is the CLI for the Focus video-query system: ingest
// synthetic Table 1 streams, run class queries against the resulting top-K
// indexes, inspect the tuner's trade-off space, and print stream
// characterizations. With -server, query and plan run against a live
// focus-serve or focus-router endpoint through the typed v1 client
// instead of the local library.
//
// Usage:
//
//	focus streams
//	focus classes [-n 30]
//	focus ingest  -stream auburn_c [-duration 240] [-policy balance] [-store focus.kv]
//	focus query   -stream auburn_c -class car [-start 0 -end 120] [-kx 2] [-store focus.kv]
//	focus query   -server http://localhost:7070 -class car [-stream auburn_c]
//	focus plan    -streams auburn_c,jacksonh -expr 'car & person & !bus' [-top 10] [-page 5]
//	focus plan    -server http://localhost:7070 -expr 'car & person & !bus' [-top 10] [-page 5]
//	focus tracks  -streams auburn_c,jacksonh -expr 'car & dur(30)' [-top 10] [-page 5]
//	focus tracks  -server http://localhost:7070 -expr 'seq(region(0,0,160,720), region(160,0,320,720))'
//	focus subscribe -server http://localhost:7070 -expr 'car & person' [-streams auburn_c] [-max-deltas 5]
//	focus reshard -server http://localhost:7070 -map new-cluster.json [-dry-run]
//	focus sweep   -stream auburn_c [-duration 240]
//	focus characterize -stream auburn_c [-duration 240]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"

	"focus"
	"focus/api"
	"focus/client"
	"focus/internal/stats"
	"focus/internal/tune"
	"focus/internal/video"
	"focus/internal/vision"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "streams":
		err = cmdStreams()
	case "classes":
		err = cmdClasses(os.Args[2:])
	case "ingest":
		err = cmdIngest(os.Args[2:])
	case "query":
		err = cmdQuery(os.Args[2:])
	case "plan":
		err = cmdPlan(os.Args[2:])
	case "tracks":
		err = cmdTracks(os.Args[2:])
	case "subscribe":
		err = cmdSubscribe(os.Args[2:])
	case "reshard":
		err = cmdReshard(os.Args[2:])
	case "sweep":
		err = cmdSweep(os.Args[2:])
	case "characterize":
		err = cmdCharacterize(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "focus: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "focus:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `focus <command> [flags]

commands:
  streams        list the Table 1 stream presets
  classes        list queryable class names
  ingest         tune and ingest a stream window, print the chosen config
  query          answer "find frames with class X" against an ingested stream
  plan           answer a compound query like 'car & person & !bus', ranked and paged
  tracks         answer a temporal query like 'car & dur(30)' over object tracks
  subscribe      hold a standing query against a live service and stream its answer deltas
  reshard        transition a live cluster to a new shard map through its router
  sweep          print the tuner's Pareto boundary for a stream
  characterize   print a stream's ground-truth characterization`)
}

func cmdStreams() error {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "NAME\tTYPE\tLOCATION\tDESCRIPTION")
	for _, s := range video.Table1Specs() {
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\n", s.Name, s.Type, s.Location, s.Description)
	}
	return w.Flush()
}

func cmdClasses(args []string) error {
	fs := flag.NewFlagSet("classes", flag.ExitOnError)
	n := fs.Int("n", 30, "how many class names to print")
	seed := fs.Uint64("seed", 1, "system seed")
	fs.Parse(args)
	sys, err := focus.New(focus.Config{Seed: *seed})
	if err != nil {
		return err
	}
	defer sys.Close()
	for c := 0; c < *n; c++ {
		fmt.Println(sys.Space().Name(vision.ClassID(c)))
	}
	return nil
}

func cmdIngest(args []string) error {
	fs := flag.NewFlagSet("ingest", flag.ExitOnError)
	stream := fs.String("stream", "auburn_c", "Table 1 stream name")
	duration := fs.Float64("duration", 240, "window length in seconds")
	sampleEvery := fs.Int("sample-every", 1, "frame sampling stride (1 = 30fps)")
	policy := fs.String("policy", "balance", "balance | opt-ingest | opt-query")
	store := fs.String("store", "", "persist the index to this path")
	seed := fs.Uint64("seed", 1, "system seed")
	fs.Parse(args)

	sys, err := focus.New(focus.Config{
		Seed: *seed, Policy: focus.Policy(*policy), StorePath: *store,
	})
	if err != nil {
		return err
	}
	defer sys.Close()
	sess, err := sys.AddTable1Stream(*stream)
	if err != nil {
		return err
	}
	opts := focus.GenOptions{DurationSec: *duration, SampleEvery: *sampleEvery}
	if err := sess.Ingest(opts); err != nil {
		return err
	}
	chosen := sess.Selection().Chosen
	ws := sess.IngestStats()
	fmt.Printf("stream %s: ingested %.0fs at %.1f fps\n", *stream, *duration, opts.EffectiveFPS())
	fmt.Printf("  chosen config: model=%s K=%d T=%.1f (est recall %.3f, est precision %.3f)\n",
		chosen.Model.Name, chosen.K, chosen.T, chosen.EstRecall, chosen.EstPrecision)
	fmt.Printf("  sightings=%d cnn-inferences=%d dedup=%.1f%% clusters=%d\n",
		ws.Sightings, ws.CNNInferences, 100*ws.DedupRate(), ws.Clusters)
	fmt.Printf("  ingest GPU: %.1fs (Ingest-all would need %.1fs → %.0fx cheaper)\n",
		ws.IngestGPUMS/1000, float64(ws.Sightings)*13/1000,
		float64(ws.Sightings)*13/ws.IngestGPUMS)
	if *store != "" {
		fmt.Printf("  index persisted to %s\n", *store)
	}
	return nil
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	stream := fs.String("stream", "auburn_c", "Table 1 stream name (with -server, empty = every served stream)")
	class := fs.String("class", "car", "class name to query")
	duration := fs.Float64("duration", 240, "window length in seconds (when re-ingesting)")
	start := fs.Float64("start", 0, "window start (seconds)")
	end := fs.Float64("end", 0, "window end (seconds, 0 = unbounded)")
	kx := fs.Int("kx", 0, "dynamic Kx cut (0 = indexed K)")
	maxClusters := fs.Int("max-clusters", 0, "batched retrieval cap")
	store := fs.String("store", "", "load a persisted index from this path")
	server := fs.String("server", "", "base URL of a running focus-serve or focus-router; queries it over /v1 instead of the local library")
	seed := fs.Uint64("seed", 1, "system seed")
	fs.Parse(args)

	if *server != "" {
		req := &api.QueryRequest{
			Expr:        *class,
			Kx:          *kx,
			Start:       *start,
			End:         *end,
			MaxClusters: *maxClusters,
		}
		if *stream != "" {
			req.Streams = []string{*stream}
		}
		resp, err := client.New(*server).Query(context.Background(), req)
		if err != nil {
			return err
		}
		return printServedQuery(*server, resp)
	}

	sys, err := focus.New(focus.Config{Seed: *seed, StorePath: *store})
	if err != nil {
		return err
	}
	defer sys.Close()
	sess, err := sys.AddTable1Stream(*stream)
	if err != nil {
		return err
	}
	if *store != "" {
		if err := sess.LoadIndex(); err != nil {
			return fmt.Errorf("loading persisted index (run `focus ingest -store %s` first?): %w", *store, err)
		}
	} else {
		fmt.Fprintln(os.Stderr, "no -store given; ingesting fresh (this tunes + indexes the stream)")
		if err := sess.Ingest(focus.GenOptions{DurationSec: *duration, SampleEvery: 1}); err != nil {
			return err
		}
	}
	id, err := sys.ClassID(*class)
	if err != nil {
		return err
	}
	res, err := sess.QueryClass(id, focus.QueryOptions{
		Kx: *kx, StartSec: *start, EndSec: *end, MaxClusters: *maxClusters,
	})
	if err != nil {
		return err
	}
	fmt.Printf("query %q on %s: %d frames in %d segments\n",
		*class, *stream, len(res.Frames), len(res.Segments))
	fmt.Printf("  clusters examined=%d matched=%d gt-inferences=%d\n",
		res.ExaminedClusters, res.MatchedClusters, res.GTInferences)
	fmt.Printf("  latency %.0fms GPU-time %.0fms (via OTHER: %v)\n",
		res.LatencyMS, res.GPUTimeMS, res.ViaOther)
	max := len(res.Segments)
	if max > 10 {
		max = 10
	}
	if max > 0 {
		fmt.Printf("  first segments (s): %v\n", res.Segments[:max])
	}
	return nil
}

func cmdPlan(args []string) error {
	fs := flag.NewFlagSet("plan", flag.ExitOnError)
	streams := fs.String("streams", "auburn_c", "comma-separated Table 1 stream names (with -server, empty = every served stream)")
	expr := fs.String("expr", "", "compound predicate, e.g. 'car & person & !bus'")
	top := fs.Int("top", 10, "top-K results by aggregate confidence (0 = all)")
	page := fs.Int("page", 0, "page size: stream results through the paging cursor (0 = one shot)")
	duration := fs.Float64("duration", 240, "window length in seconds (when re-ingesting)")
	kx := fs.Int("kx", 0, "per-leaf dynamic Kx cut (0 = indexed K)")
	maxClusters := fs.Int("max-clusters", 0, "per-leaf retrieval cap")
	mode := fs.String("mode", "", "execution mode: exact (default) or early_exit (approximate: stop at -top verified results, requires -top >= 1)")
	store := fs.String("store", "", "load persisted indexes from this path")
	server := fs.String("server", "", "base URL of a running focus-serve or focus-router; plans over /v1 instead of the local library")
	seed := fs.Uint64("seed", 1, "system seed")
	fs.Parse(args)
	if *expr == "" {
		return fmt.Errorf("plan: -expr is required (e.g. -expr 'car & person & !bus')")
	}
	normMode, aerr := api.NormalizeMode(*mode, *top)
	if aerr != nil {
		return fmt.Errorf("plan: %s", aerr.Message)
	}

	if *server != "" {
		return servedPlan(*server, *streams, *expr, *top, *page, *kx, *maxClusters, normMode)
	}

	sys, err := focus.New(focus.Config{Seed: *seed, StorePath: *store})
	if err != nil {
		return err
	}
	defer sys.Close()
	var names []string
	for _, name := range strings.Split(*streams, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		names = append(names, name)
		sess, err := sys.AddTable1Stream(name)
		if err != nil {
			return err
		}
		if *store != "" {
			if err := sess.LoadIndex(); err != nil {
				return fmt.Errorf("loading persisted index (run `focus ingest -store %s` first?): %w", *store, err)
			}
		} else {
			fmt.Fprintf(os.Stderr, "no -store given; ingesting %s fresh (this tunes + indexes the stream)\n", name)
			if err := sess.Ingest(focus.GenOptions{DurationSec: *duration, SampleEvery: 1}); err != nil {
				return err
			}
		}
	}

	compiled, err := sys.CompilePlan(*expr)
	if err != nil {
		return err
	}
	opts := focus.PlanOptions{
		Streams:   names,
		TopK:      *top,
		Leaf:      focus.QueryOptions{Kx: *kx, MaxClusters: *maxClusters},
		EarlyExit: normMode == api.ModeEarlyExit,
	}
	if opts.EarlyExit && *page > 0 {
		return fmt.Errorf("plan: -page needs the exact mode's incremental cursor; early_exit answers at most -top results in one shot")
	}
	fmt.Printf("plan %s over %s:\n", compiled.Canonical(), strings.Join(names, ","))

	printItems := func(items []focus.PlanItem, from int) {
		for i, it := range items {
			fmt.Printf("  %3d. %-10s frame %-8d t=%6.1fs  score %.2f\n",
				from+i+1, it.Stream, it.Frame, it.TimeSec, it.Score)
		}
	}
	if *page > 0 {
		cur, err := sys.NewPlanCursor(compiled, opts)
		if err != nil {
			return err
		}
		n := 0
		for !cur.Done() {
			items, err := cur.Next(*page)
			if err != nil {
				return err
			}
			if len(items) > 0 {
				fmt.Printf("  -- page (%d results) --\n", len(items))
				printItems(items, n)
				n += len(items)
			}
		}
		st := cur.Stats()
		fmt.Printf("  %d results; gt-inferences=%d gpu-time=%.0fms latency=%.0fms\n",
			n, st.GTInferences, st.GPUTimeMS, st.LatencyMS)
		return nil
	}
	res, err := sys.ExecutePlan(compiled, opts)
	if err != nil {
		return err
	}
	printItems(res.Items, 0)
	fmt.Printf("  %d results; gt-inferences=%d gpu-time=%.0fms latency=%.0fms\n",
		len(res.Items), res.Stats.GTInferences, res.Stats.GPUTimeMS, res.Stats.LatencyMS)
	for name, ss := range res.Stats.PerStream {
		fmt.Printf("  %s: verified=%d skipped=%d clusters across %d leaves\n",
			name, ss.VerifiedClusters, ss.SkippedClusters, len(ss.Leaves))
	}
	return nil
}

func cmdTracks(args []string) error {
	fs := flag.NewFlagSet("tracks", flag.ExitOnError)
	streams := fs.String("streams", "auburn_c", "comma-separated Table 1 stream names (with -server, empty = every served stream)")
	expr := fs.String("expr", "", "temporal predicate, e.g. 'car & dur(30)' or 'person & seq(region(0,0,160,720), region(160,0,320,720))'")
	top := fs.Int("top", 10, "top-K tracks by aggregate confidence (0 = all)")
	page := fs.Int("page", 0, "page size: stream results through the paging cursor (0 = one shot)")
	duration := fs.Float64("duration", 240, "window length in seconds (when re-ingesting)")
	kx := fs.Int("kx", 0, "per-leaf dynamic Kx cut (0 = indexed K)")
	maxClusters := fs.Int("max-clusters", 0, "per-leaf retrieval cap")
	store := fs.String("store", "", "load persisted indexes from this path")
	server := fs.String("server", "", "base URL of a running focus-serve or focus-router; queries over /v1 instead of the local library")
	seed := fs.Uint64("seed", 1, "system seed")
	fs.Parse(args)
	if *expr == "" {
		return fmt.Errorf("tracks: -expr is required (e.g. -expr 'car & dur(30)')")
	}

	if *server != "" {
		return servedTracks(*server, *streams, *expr, *top, *page, *kx, *maxClusters)
	}

	sys, err := focus.New(focus.Config{Seed: *seed, StorePath: *store})
	if err != nil {
		return err
	}
	defer sys.Close()
	var names []string
	for _, name := range strings.Split(*streams, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		names = append(names, name)
		sess, err := sys.AddTable1Stream(name)
		if err != nil {
			return err
		}
		if *store != "" {
			if err := sess.LoadIndex(); err != nil {
				return fmt.Errorf("loading persisted index (run `focus ingest -store %s` first?): %w", *store, err)
			}
		} else {
			fmt.Fprintf(os.Stderr, "no -store given; ingesting %s fresh (this tunes + indexes the stream)\n", name)
			if err := sess.Ingest(focus.GenOptions{DurationSec: *duration, SampleEvery: 1}); err != nil {
				return err
			}
		}
	}

	compiled, err := sys.CompileTrackQuery(*expr)
	if err != nil {
		return err
	}
	opts := focus.TrackOptions{
		Streams: names,
		TopK:    *top,
		Leaf:    focus.QueryOptions{Kx: *kx, MaxClusters: *maxClusters},
	}
	fmt.Printf("tracks %s over %s:\n", compiled.Canonical(), strings.Join(names, ","))

	printTracks := func(items []focus.TrackItem, from int) {
		for i, it := range items {
			fmt.Printf("  %3d. %-10s track %-4d object %-6d %.1fs..%.1fs (%d sightings)  score %.2f\n",
				from+i+1, it.Stream, it.Track, it.Object, it.StartSec, it.EndSec, it.Sightings, it.Score)
		}
	}
	if *page > 0 {
		cur, err := sys.NewTrackCursor(compiled, opts)
		if err != nil {
			return err
		}
		n := 0
		for !cur.Done() {
			items, err := cur.Next(*page)
			if err != nil {
				return err
			}
			if len(items) > 0 {
				fmt.Printf("  -- page (%d results) --\n", len(items))
				printTracks(items, n)
				n += len(items)
			}
		}
		st := cur.Stats()
		fmt.Printf("  %d tracks; gt-inferences=%d gpu-time=%.0fms latency=%.0fms\n",
			n, st.GTInferences, st.GPUTimeMS, st.LatencyMS)
		return nil
	}
	res, err := sys.ExecuteTrackQuery(compiled, opts)
	if err != nil {
		return err
	}
	printTracks(res.Items, 0)
	fmt.Printf("  %d tracks; gt-inferences=%d gpu-time=%.0fms latency=%.0fms\n",
		len(res.Items), res.Stats.GTInferences, res.Stats.GPUTimeMS, res.Stats.LatencyMS)
	return nil
}

// cmdSubscribe holds a standing query against a live service: it opens
// POST /v1/subscribe through the typed client, prints the resolved hello,
// then renders every answer delta as it arrives, together with the
// reassembled answer size at the delivered watermark vector. It runs
// until the server ends the stream (complete or draining) or -max-deltas
// is reached. Subscriptions are a service feature — there is no local
// library mode.
func cmdReshard(args []string) error {
	fs := flag.NewFlagSet("reshard", flag.ExitOnError)
	server := fs.String("server", "", "base URL of a running focus-router (required)")
	mapPath := fs.String("map", "", "target shard-map JSON file (required; same format as focus-router -map)")
	dryRun := fs.Bool("dry-run", false, "plan only: print which streams would move, move nothing")
	fs.Parse(args)
	if *server == "" {
		return fmt.Errorf("reshard: -server is required (the router executes the transition)")
	}
	if *mapPath == "" {
		return fmt.Errorf("reshard: -map is required (the target shard map)")
	}
	raw, err := os.ReadFile(*mapPath)
	if err != nil {
		return fmt.Errorf("reshard: %w", err)
	}
	var m api.AdminShardMap
	if err := json.Unmarshal(raw, &m); err != nil {
		return fmt.Errorf("reshard: parsing %s: %w", *mapPath, err)
	}
	resp, err := client.New(*server).Reshard(context.Background(), m, *dryRun)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "STREAM\tFROM\tTO\tSTATE\tWATERMARK\tERROR")
	for _, mv := range resp.Moves {
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%g\t%s\n", mv.Stream, mv.From, mv.To, mv.State, mv.Watermark, mv.Error)
	}
	w.Flush()
	if resp.DryRun {
		fmt.Printf("dry run: %d streams would move\n", len(resp.Moves))
		return nil
	}
	fmt.Printf("moved %d streams, %d failed\n", resp.Moved, resp.Failed)
	if resp.Failed > 0 {
		return fmt.Errorf("reshard: %d moves failed (sources still own those streams; fix and re-run)", resp.Failed)
	}
	return nil
}

func cmdSubscribe(args []string) error {
	fs := flag.NewFlagSet("subscribe", flag.ExitOnError)
	server := fs.String("server", "", "base URL of a running focus-serve or focus-router (required)")
	expr := fs.String("expr", "", "predicate to track, e.g. 'car & person' or 'car & dur(30)'")
	streams := fs.String("streams", "", "comma-separated stream names (empty = every served stream)")
	maxDeltas := fs.Int("max-deltas", 0, "close after this many deltas (0 = until the server ends the stream)")
	kx := fs.Int("kx", 0, "per-leaf dynamic Kx cut (0 = indexed K)")
	start := fs.Float64("start", 0, "window start (seconds)")
	end := fs.Float64("end", 0, "window end (seconds, 0 = unbounded)")
	maxClusters := fs.Int("max-clusters", 0, "per-leaf retrieval cap")
	fs.Parse(args)
	if *server == "" {
		return fmt.Errorf("subscribe: -server is required (standing queries are served by focus-serve or focus-router)")
	}
	if *expr == "" {
		return fmt.Errorf("subscribe: -expr is required (e.g. -expr 'car & person')")
	}
	req := &api.SubscribeRequest{
		Expr:        *expr,
		Kx:          *kx,
		Start:       *start,
		End:         *end,
		MaxClusters: *maxClusters,
	}
	for _, name := range strings.Split(*streams, ",") {
		if name = strings.TrimSpace(name); name != "" {
			req.Streams = append(req.Streams, name)
		}
	}
	sub, err := client.New(*server).Subscribe(context.Background(), req)
	if err != nil {
		return err
	}
	defer sub.Close()
	h := sub.Hello()
	fmt.Printf("subscribed to %s (%s form) over %v via %s\n", h.Expr, h.Form, h.Streams, *server)
	for n := 0; ; {
		d, err := sub.Recv()
		if err == io.EOF {
			fmt.Printf("server ended the subscription: %s\n", sub.Reason())
			return nil
		}
		if err != nil {
			return err
		}
		n++
		if h.Form == api.FormTracks {
			fmt.Printf("delta %d: +%d -%d tracks → %d total at %v (gt-inferences=%d gpu-time=%.0fms)\n",
				n, len(d.Tracks), len(d.RemovedTracks), d.TotalItems, d.To, d.GTInferences, d.GPUTimeMS)
		} else {
			fmt.Printf("delta %d: +%d -%d items → %d total at %v (gt-inferences=%d gpu-time=%.0fms)\n",
				n, len(d.Items), len(d.RemovedItems), d.TotalItems, d.To, d.GTInferences, d.GPUTimeMS)
		}
		for _, it := range d.Items {
			fmt.Printf("  + %-10s frame %-8d t=%6.1fs  score %.2f\n", it.Stream, it.Frame, it.TimeSec, it.Score)
		}
		for _, it := range d.RemovedItems {
			fmt.Printf("  - %-10s frame %-8d t=%6.1fs  score %.2f\n", it.Stream, it.Frame, it.TimeSec, it.Score)
		}
		for _, tr := range d.Tracks {
			fmt.Printf("  + %-10s track %-4d object %-6d %.1fs..%.1fs (%d sightings)  score %.2f\n",
				tr.Stream, tr.Track, tr.Object, tr.StartSec, tr.EndSec, tr.Sightings, tr.Score)
		}
		for _, tr := range d.RemovedTracks {
			fmt.Printf("  - %-10s track %-4d object %-6d %.1fs..%.1fs (%d sightings)  score %.2f\n",
				tr.Stream, tr.Track, tr.Object, tr.StartSec, tr.EndSec, tr.Sightings, tr.Score)
		}
		if *maxDeltas > 0 && n >= *maxDeltas {
			fmt.Printf("closing after %d deltas; resume later with from=%v\n", n, sub.Vector())
			return nil
		}
	}
}

// servedTracks runs a temporal track query against a live endpoint,
// one-shot or page by page through the opaque cursor.
func servedTracks(server, streams, expr string, top, page, kx, maxClusters int) error {
	req := &api.QueryRequest{
		Expr:        expr,
		TopK:        top,
		Kx:          kx,
		MaxClusters: maxClusters,
		Form:        api.FormTracks,
	}
	for _, name := range strings.Split(streams, ",") {
		if name = strings.TrimSpace(name); name != "" {
			req.Streams = append(req.Streams, name)
		}
	}
	cli := client.New(server)
	printTracks := func(items []api.TrackItem, from int) {
		for i, it := range items {
			fmt.Printf("  %3d. %-10s track %-4d object %-6d %.1fs..%.1fs (%d sightings)  score %.2f\n",
				from+i+1, it.Stream, it.Track, it.Object, it.StartSec, it.EndSec, it.Sightings, it.Score)
		}
	}
	fmt.Printf("tracks %s via %s:\n", expr, server)
	if page > 0 {
		pager := cli.Pager(req, page)
		n := 0
		var last *api.QueryResponse
		for pager.More() {
			var err error
			if last, err = pager.Next(context.Background()); err != nil {
				return err
			}
			if items := last.Tracks; len(items) > 0 {
				fmt.Printf("  -- page (%d results) --\n", len(items))
				printTracks(items, n)
				n += len(items)
			}
		}
		fmt.Printf("  %d tracks at vector %v; gt-inferences=%d gpu-time=%.0fms latency=%.0fms\n",
			n, last.Watermarks, last.GTInferences, last.GPUTimeMS, last.LatencyMS)
		return nil
	}
	resp, err := cli.Query(context.Background(), req)
	if err != nil {
		return err
	}
	printTracks(resp.Tracks, 0)
	fmt.Printf("  %d tracks at vector %v; gt-inferences=%d gpu-time=%.0fms latency=%.0fms (cached: %v)\n",
		resp.TotalItems, resp.Watermarks, resp.GTInferences, resp.GPUTimeMS, resp.LatencyMS, resp.Cached)
	return nil
}

// printServedQuery renders a frames-form v1 response the way the library
// path prints a direct query, stream by stream.
func printServedQuery(server string, resp *api.QueryResponse) error {
	names := make([]string, 0, len(resp.Streams))
	for name := range resp.Streams {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("query %q via %s: %d frames across %d streams (cached: %v)\n",
		resp.Expr, server, resp.TotalFrames, len(resp.Streams), resp.Cached)
	for _, name := range names {
		sr := resp.Streams[name]
		fmt.Printf("  %s@%g: %d frames in %d segments (examined=%d matched=%d gt-inferences=%d via OTHER: %v)\n",
			name, sr.Watermark, len(sr.Frames), len(sr.Segments),
			sr.ExaminedClusters, sr.MatchedClusters, sr.GTInferences, sr.ViaOther)
		max := len(sr.Segments)
		if max > 10 {
			max = 10
		}
		if max > 0 {
			fmt.Printf("    first segments (s): %v\n", sr.Segments[:max])
		}
	}
	fmt.Printf("  latency %.0fms GPU-time %.0fms\n", resp.LatencyMS, resp.GPUTimeMS)
	return nil
}

// servedPlan runs a ranked plan against a live endpoint, one-shot or
// page by page through the opaque cursor.
func servedPlan(server, streams, expr string, top, page, kx, maxClusters int, mode string) error {
	req := &api.QueryRequest{
		Expr:        expr,
		TopK:        top,
		Kx:          kx,
		MaxClusters: maxClusters,
		Form:        api.FormRanked,
		Mode:        mode,
	}
	for _, name := range strings.Split(streams, ",") {
		if name = strings.TrimSpace(name); name != "" {
			req.Streams = append(req.Streams, name)
		}
	}
	cli := client.New(server)
	printItems := func(items []api.Item, from int) {
		for i, it := range items {
			fmt.Printf("  %3d. %-10s frame %-8d t=%6.1fs  score %.2f\n",
				from+i+1, it.Stream, it.Frame, it.TimeSec, it.Score)
		}
	}
	fmt.Printf("plan %s via %s:\n", expr, server)
	if page > 0 {
		pager := cli.Pager(req, page)
		n := 0
		var last *api.QueryResponse
		for pager.More() {
			var err error
			if last, err = pager.Next(context.Background()); err != nil {
				return err
			}
			if items := last.Items; len(items) > 0 {
				fmt.Printf("  -- page (%d results) --\n", len(items))
				printItems(items, n)
				n += len(items)
			}
		}
		fmt.Printf("  %d results at vector %v; gt-inferences=%d gpu-time=%.0fms latency=%.0fms\n",
			n, last.Watermarks, last.GTInferences, last.GPUTimeMS, last.LatencyMS)
		return nil
	}
	resp, err := cli.Query(context.Background(), req)
	if err != nil {
		return err
	}
	printItems(resp.Items, 0)
	fmt.Printf("  %d results at vector %v; gt-inferences=%d gpu-time=%.0fms latency=%.0fms (cached: %v)\n",
		resp.TotalItems, resp.Watermarks, resp.GTInferences, resp.GPUTimeMS, resp.LatencyMS, resp.Cached)
	return nil
}

func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	stream := fs.String("stream", "auburn_c", "Table 1 stream name")
	duration := fs.Float64("duration", 240, "window length in seconds")
	recall := fs.Float64("recall", 0.95, "recall target")
	precision := fs.Float64("precision", 0.95, "precision target")
	seed := fs.Uint64("seed", 1, "system seed")
	fs.Parse(args)

	sys, err := focus.New(focus.Config{
		Seed:    *seed,
		Targets: focus.Targets{Recall: *recall, Precision: *precision},
	})
	if err != nil {
		return err
	}
	defer sys.Close()
	sess, err := sys.AddTable1Stream(*stream)
	if err != nil {
		return err
	}
	if err := sess.Tune(focus.GenOptions{DurationSec: *duration, SampleEvery: 1}); err != nil {
		return err
	}
	sel := sess.Selection()
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "MODEL\tK\tT\tNORM-INGEST\tNORM-QUERY\tEST-RECALL\tEST-PRECISION\tCHOSEN")
	for _, c := range sel.Pareto {
		mark := ""
		if c == sel.Chosen {
			mark = "<= " + string(tune.Balance)
		}
		fmt.Fprintf(w, "%s\t%d\t%.1f\t%.5f\t%.5f\t%.3f\t%.3f\t%s\n",
			c.Model.Name, c.K, c.T, c.NormIngest, c.NormQuery, c.EstRecall, c.EstPrecision, mark)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("%d viable configurations, %d on the Pareto boundary\n",
		len(sel.Viable), len(sel.Pareto))
	return nil
}

func cmdCharacterize(args []string) error {
	fs := flag.NewFlagSet("characterize", flag.ExitOnError)
	stream := fs.String("stream", "auburn_c", "Table 1 stream name")
	duration := fs.Float64("duration", 240, "window length in seconds")
	seed := fs.Uint64("seed", 1, "system seed")
	fs.Parse(args)

	sys, err := focus.New(focus.Config{Seed: *seed})
	if err != nil {
		return err
	}
	defer sys.Close()
	sess, err := sys.AddTable1Stream(*stream)
	if err != nil {
		return err
	}
	truth, err := stats.ComputeGroundTruth(sess.Stream(), sys.Space(), sys.Zoo().GT,
		video.GenOptions{DurationSec: *duration, SampleEvery: 1})
	if err != nil {
		return err
	}
	fmt.Printf("stream %s over %.0fs:\n", *stream, *duration)
	fmt.Printf("  frames=%d empty=%.1f%% sightings=%d\n", truth.TotalFrames,
		100*float64(truth.EmptyFrames)/float64(truth.TotalFrames), truth.TotalSightings)
	fmt.Printf("  classes present: %d\n", len(truth.PresentClasses()))
	fmt.Println("  dominant classes (by positive segments):")
	for _, c := range truth.DominantClasses(8) {
		fmt.Printf("    %-16s %4d segments\n", sys.Space().Name(c), len(truth.Positives[c]))
	}
	return nil
}
