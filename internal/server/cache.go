package server

import (
	"container/list"
	"sync"
)

// planCache is a thread-safe LRU cache over completed sanitization
// responses. Keys combine the input log's digest with the canonicalized
// Options (see Server.identify), so a repeated sanitization of the same
// corpus under an equivalent configuration is served without re-solving.
// Values are stored as immutable *sanitizeResponse snapshots and must not
// be mutated by readers.
type planCache struct {
	mu           sync.Mutex
	cap          int
	ll           *list.List // front = most recently used
	items        map[string]*list.Element
	hits, misses int64
}

type cacheEntry struct {
	key string
	val *sanitizeResponse
}

// newPlanCache returns an LRU holding up to capacity entries. capacity < 1
// disables the cache (every Get misses, Put is a no-op).
func newPlanCache(capacity int) *planCache {
	return &planCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element),
	}
}

// Get returns the cached response for key and marks it most recently used.
func (c *planCache) Get(key string) (*sanitizeResponse, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// Put stores val under key, evicting the least recently used entry when the
// cache is full.
func (c *planCache) Put(key string, val *sanitizeResponse) {
	if c.cap < 1 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, val: val})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
}

// Len returns the number of cached entries.
func (c *planCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns the cumulative hit and miss counts.
func (c *planCache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
