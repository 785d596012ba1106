package serve

import (
	"container/list"
	"hash/fnv"
	"sync"

	"focus/api"
)

// resultCache is a sharded LRU over fully rendered, unpaged responses of
// every form, keyed by execKey: (form, canonical predicate, options,
// watermark vector). Because an execution at a fixed watermark vector is a
// pure function of its key (see query.Options MaxSealSec), entries never
// go stale in place: advancing a watermark changes the key of subsequent
// lookups, and the orphaned entries age out of the LRU. Sharding keeps the
// hot popular-query path from serializing all clients behind one mutex.
type resultCache struct {
	shards []cacheShard
}

type cacheShard struct {
	mu       sync.Mutex
	capacity int
	entries  map[string]*list.Element
	order    *list.List // front = most recently used
}

type cacheEntry struct {
	key  string
	resp *api.QueryResponse
}

// newResultCache builds a cache holding about `capacity` responses across
// `shards` shards.
func newResultCache(capacity, shards int) *resultCache {
	if shards < 1 {
		shards = 1
	}
	if capacity < shards {
		capacity = shards
	}
	c := &resultCache{shards: make([]cacheShard, shards)}
	per := (capacity + shards - 1) / shards
	for i := range c.shards {
		c.shards[i].capacity = per
		c.shards[i].entries = make(map[string]*list.Element, per)
		c.shards[i].order = list.New()
	}
	return c
}

func (c *resultCache) shard(key string) *cacheShard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return &c.shards[h.Sum32()%uint32(len(c.shards))]
}

// get returns the cached response for key, refreshing its recency.
func (c *resultCache) get(key string) (*api.QueryResponse, bool) {
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.entries[key]
	if !ok {
		return nil, false
	}
	sh.order.MoveToFront(el)
	return el.Value.(*cacheEntry).resp, true
}

// put inserts (or refreshes) a response, evicting the least recently used
// entry of the shard when full. Callers must never mutate resp afterwards.
func (c *resultCache) put(key string, resp *api.QueryResponse) {
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.entries[key]; ok {
		el.Value.(*cacheEntry).resp = resp
		sh.order.MoveToFront(el)
		return
	}
	sh.entries[key] = sh.order.PushFront(&cacheEntry{key: key, resp: resp})
	if sh.order.Len() > sh.capacity {
		oldest := sh.order.Back()
		sh.order.Remove(oldest)
		delete(sh.entries, oldest.Value.(*cacheEntry).key)
	}
}

// len returns the total number of cached responses.
func (c *resultCache) len() int {
	n := 0
	for i := range c.shards {
		c.shards[i].mu.Lock()
		n += c.shards[i].order.Len()
		c.shards[i].mu.Unlock()
	}
	return n
}
