package serve

import (
	"fmt"
	"testing"

	"focus/api"
)

func TestResultCacheLRUEviction(t *testing.T) {
	c := newResultCache(4, 1) // single shard: eviction order is global
	for i := 0; i < 4; i++ {
		c.put(fmt.Sprintf("k%d", i), &api.QueryResponse{TotalFrames: i})
	}
	if c.len() != 4 {
		t.Fatalf("len %d, want 4", c.len())
	}
	// Touch k0 so k1 becomes the LRU victim.
	if c.get("k0") == nil {
		t.Fatal("k0 missing")
	}
	c.put("k4", &api.QueryResponse{TotalFrames: 4})
	if c.get("k1") != nil {
		t.Error("k1 should have been evicted as LRU")
	}
	for _, k := range []string{"k0", "k2", "k3", "k4"} {
		if c.get(k) == nil {
			t.Errorf("%s missing after eviction", k)
		}
	}
}

func TestResultCachePutRefreshesExisting(t *testing.T) {
	c := newResultCache(8, 2)
	c.put("k", &api.QueryResponse{TotalFrames: 1})
	c.put("k", &api.QueryResponse{TotalFrames: 2})
	got := c.get("k")
	if got == nil || got.resp.TotalFrames != 2 {
		t.Fatalf("got %+v, want TotalFrames=2", got)
	}
}

func TestResultCacheShardingCoversCapacity(t *testing.T) {
	c := newResultCache(64, 8)
	for i := 0; i < 64; i++ {
		c.put(fmt.Sprintf("key-%d", i), &api.QueryResponse{TotalFrames: i})
	}
	// Per-shard capacity is capacity/shards; hashing spreads keys unevenly,
	// so some evictions are expected — but the cache must retain at least
	// half its nominal capacity and never exceed it.
	if n := c.len(); n < 32 || n > 64 {
		t.Errorf("cache holds %d entries, want within [32, 64]", n)
	}
}
