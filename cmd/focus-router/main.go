// Command focus-router fronts a sharded focus-serve cluster: it loads a
// shard map (or builds one from -shards), discovers which streams each
// shard serves, health-checks them in the background, and answers POST
// /v1/query by scatter-gather — speaking the same v1 wire contract
// (focus/api) to clients and to shards, merging failures by structured
// error code — with answers bit-identical to a single focus-serve holding
// every stream. See OPERATIONS.md for the deployment runbook and the
// shard-map file format.
//
// Usage:
//
//	focus-router -addr :7070 -map cluster.json
//	focus-router -addr :7070 -shards shard-0=http://127.0.0.1:7071,shard-1=http://127.0.0.1:7072
//	focus-router -map cluster.json -print-assignment auburn_c,jacksonh,city_a_d
//
// Endpoints: POST /v1/query (cursor paging over the merged ranking), POST
// /v1/subscribe (merged standing queries), GET /v1/streams
// (shard-annotated), GET /v1/stats (router counters + per-shard health),
// and GET /healthz (ok / degraded / unavailable).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"focus/internal/router"
)

func main() {
	addr := flag.String("addr", ":7070", "listen address")
	mapPath := flag.String("map", "", "shard-map JSON file (see OPERATIONS.md)")
	shardsArg := flag.String("shards", "", "inline shard roster: name=url,name=url (alternative to -map)")
	refresh := flag.Duration("refresh", 2*time.Second, "shard health/ownership poll interval")
	timeout := flag.Duration("timeout", 30*time.Second, "per-shard request timeout")
	shardRetries := flag.Int("shard-retries", 2, "per-shard sub-request retries on transient failures (transport errors, 429, typed unavailable/not_ready); negative disables")
	shardBackoff := flag.Duration("shard-backoff", 50*time.Millisecond, "base backoff between sub-request retries (doubled per attempt, jittered, Retry-After honored)")
	probationPolls := flag.Int("probation-polls", 3, "consecutive healthy polls a recovered shard must string together before it is routed to again")
	strict := flag.Bool("strict-placement", false, "fail startup when a shard serves streams the map assigns elsewhere")
	printAssignment := flag.String("print-assignment", "", "print the map's shard assignment for these comma-separated streams and exit")
	diffMap := flag.String("diff-map", "", "with -print-assignment: also load this target shard-map JSON and print which of the streams would move (reshard planning, offline)")
	flag.Parse()

	m, err := loadMap(*mapPath, *shardsArg)
	if err != nil {
		log.Fatalf("focus-router: %v", err)
	}

	if *printAssignment != "" {
		// Operator tool: derive each shard's -streams flag from the map
		// before any process is booted.
		byShard := make(map[string][]string)
		for _, st := range splitCSV(*printAssignment) {
			shard := m.Assign(st)
			byShard[shard.Name] = append(byShard[shard.Name], st)
		}
		names := make([]string, 0, len(byShard))
		for n := range byShard {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			sort.Strings(byShard[n])
			spec, _ := m.Shard(n)
			fmt.Printf("%s\t%s\t-streams %s\n", n, spec.URL, strings.Join(byShard[n], ","))
		}
		if *diffMap != "" {
			// Reshard planning: diff this map's assignment against the
			// target map's, stream by stream — the offline preview of what
			// POST /v1/admin/reshard would move.
			target, err := router.LoadShardMap(*diffMap)
			if err != nil {
				log.Fatalf("focus-router: -diff-map: %v", err)
			}
			streams := splitCSV(*printAssignment)
			sort.Strings(streams)
			moves := 0
			for _, st := range streams {
				from, to := m.Assign(st), target.Assign(st)
				if from.Name == to.Name {
					continue
				}
				moves++
				fmt.Printf("move\t%s\t%s -> %s\n", st, from.Name, to.Name)
			}
			fmt.Printf("%d of %d streams would move\n", moves, len(streams))
		}
		return
	}
	if *diffMap != "" {
		log.Fatalf("focus-router: -diff-map requires -print-assignment (it is an offline planning tool)")
	}

	rt, err := router.New(router.Config{
		Map:             m,
		Refresh:         *refresh,
		Timeout:         *timeout,
		ShardRetries:    *shardRetries,
		ShardBackoff:    *shardBackoff,
		ProbationPolls:  *probationPolls,
		StrictPlacement: *strict,
	})
	if err != nil {
		log.Fatalf("focus-router: %v", err)
	}
	log.Printf("focus-router: discovering %d shards…", len(m.Shards))
	if err := rt.Start(); err != nil {
		log.Fatalf("focus-router: %v", err)
	}
	defer rt.Stop()
	for _, sh := range rt.Snapshot().Shards {
		log.Printf("focus-router: shard %s (%s) %s, owns %s",
			sh.Name, sh.URL, sh.State, strings.Join(sh.Streams, ","))
	}

	httpSrv := &http.Server{Addr: *addr, Handler: rt.Handler()}
	go func() {
		log.Printf("focus-router: listening on %s", *addr)
		if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			log.Fatalf("focus-router: %v", err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Print("focus-router: shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("focus-router: shutdown: %v", err)
	}
}

// loadMap builds the shard map from exactly one of -map / -shards.
func loadMap(mapPath, shardsArg string) (*router.ShardMap, error) {
	switch {
	case mapPath != "" && shardsArg != "":
		return nil, fmt.Errorf("give either -map or -shards, not both")
	case mapPath != "":
		return router.LoadShardMap(mapPath)
	case shardsArg != "":
		m := &router.ShardMap{}
		for _, ent := range splitCSV(shardsArg) {
			name, url, ok := strings.Cut(ent, "=")
			if !ok {
				return nil, fmt.Errorf("bad -shards entry %q: want name=url", ent)
			}
			m.Shards = append(m.Shards, router.ShardSpec{Name: name, URL: url})
		}
		if err := m.Validate(); err != nil {
			return nil, err
		}
		return m, nil
	default:
		return nil, fmt.Errorf("one of -map or -shards is required")
	}
}

func splitCSV(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}
