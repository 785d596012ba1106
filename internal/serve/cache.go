package serve

import (
	"container/list"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"focus/api"
)

// resultCache is a sharded LRU over full, unpaged answers of every form,
// keyed by execKey: (form, canonical predicate, options,
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

// cacheEntry is one cached execution: the typed full answer, which paging
// and standing queries slice and diff, and — once it has proved popular —
// the encoded body of a hit on it, so the popular answer is rendered once
// and every later unpaged hit is a header and one Write.
type cacheEntry struct {
	key  string
	resp *api.QueryResponse
	// hitOnce is set by the first whole-answer hit; body by the second.
	hitOnce atomic.Bool
	body    atomic.Pointer[[]byte]
}

// hitBody returns the encoded reply of an unpaged hit on the entry, or nil
// while the entry does not keep one (the caller then renders hit itself).
// hit is that reply — the full answer with Cached set, the same value on
// every such hit because an execution is a pure function of the entry's
// key. The body is rendered and kept from the second hit on: an entry
// never hit retains nothing, and neither does one hit exactly once — what a
// router's two-page read does to a shard, whose encoded full rankings
// would otherwise sit beside every such entry until it aged out.
func (e *cacheEntry) hitBody(hit *api.QueryResponse) []byte {
	if b := e.body.Load(); b != nil {
		return *b
	}
	if !e.hitOnce.Swap(true) {
		return nil
	}
	b := api.QueryBody(hit)
	// Racing hits rendered the same bytes; keep one copy.
	if !e.body.CompareAndSwap(nil, &b) {
		return *e.body.Load()
	}
	return b
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

// get returns the entry cached under key, refreshing its recency, or nil.
func (c *resultCache) get(key string) *cacheEntry {
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.entries[key]
	if !ok {
		return nil
	}
	sh.order.MoveToFront(el)
	return el.Value.(*cacheEntry)
}

// put inserts a response and returns its entry (replacing the entry,
// encoded body included, of an equal key), evicting the least recently
// used entry of the shard when full. Callers must never mutate resp
// afterwards.
func (c *resultCache) put(key string, resp *api.QueryResponse) *cacheEntry {
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ent := &cacheEntry{key: key, resp: resp}
	if el, ok := sh.entries[key]; ok {
		el.Value = ent
		sh.order.MoveToFront(el)
		return ent
	}
	sh.entries[key] = sh.order.PushFront(ent)
	if sh.order.Len() > sh.capacity {
		oldest := sh.order.Back()
		sh.order.Remove(oldest)
		delete(sh.entries, oldest.Value.(*cacheEntry).key)
	}
	return ent
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
