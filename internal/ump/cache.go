package ump

// The incremental re-solve machinery for append-only corpora. An append
// adds counts only for the users it touches, and Theorem 1's constraints
// couple pairs only through shared users, so a connected component of the
// new version that contains no touched user is — after the pair-local
// unique-pair preprocessing — byte-identical to exactly one component of
// the parent version. ComponentCache exploits this without tracking
// lineage at all: per-component plans are keyed by the component sub-log's
// own content digest plus the full solve identity (problem kind, ε, δ,
// solver, box ablation), so an unchanged component is a cache hit whatever
// version — or corpus — it came from, and a changed component misses and
// re-solves. Reused plans carry the cached λ/counts byte-identically; the
// solver-effort counters are zeroed (no solver ran) and Plan.Reused counts
// the components served from cache.
//
// Only solves whose per-component outcome is independent of the other
// components are cached: O-UMP (also C-UMP's phase-1 λ solves and
// multi-component F-UMP's, which are O-UMP by construction) and D-UMP. Q-UMP selects its
// candidates globally and F-UMP/C-UMP phase 2 depend on the global
// allocation and scale, so those always re-solve — correctness first,
// reuse second.

import (
	"fmt"
	"sync"

	"dpslog/internal/dp"
	"dpslog/internal/partition"
)

// ComponentCache is a concurrency-safe cache of per-component plans keyed
// by component content digest and solve identity. Share one cache across
// the versions of a corpus to make appends re-solve only what changed; the
// key carries no corpus name, so one cache can serve many corpora (slserve
// shares a single cache across all of them).
type ComponentCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*Plan
	order   []string // insertion order, oldest first (FIFO eviction)
	hits    int
	misses  int
}

// NewComponentCache creates a cache bounded to capacity plans (≤ 0 means
// a modest default). Capacity bounds memory, not correctness: an evicted
// component simply re-solves.
func NewComponentCache(capacity int) *ComponentCache {
	if capacity <= 0 {
		capacity = 4096
	}
	return &ComponentCache{cap: capacity, entries: make(map[string]*Plan)}
}

// Len reports the number of cached component plans.
func (c *ComponentCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Counters reports cumulative lookup hits and misses (for tests, metrics
// and the benchmark harness).
func (c *ComponentCache) Counters() (hits, misses int) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// lookup returns a detached copy of the cached plan for key, or nil.
func (c *ComponentCache) lookup(key string) *Plan {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil
	}
	c.hits++
	return reusedPlan(p)
}

// store caches a detached copy of p under key.
func (c *ComponentCache) store(key string, p *Plan) {
	if c == nil || p == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		return
	}
	for len(c.entries) >= c.cap && len(c.order) > 0 {
		delete(c.entries, c.order[0])
		c.order = c.order[1:]
	}
	cp := *p
	cp.Counts = append([]int(nil), p.Counts...)
	c.entries[key] = &cp
	c.order = append(c.order, key)
}

// reusedPlan detaches a cached plan for a caller: the plan content —
// counts, output size, objectives — is byte-identical to the solve that
// produced it; the effort counters are zeroed because no solver ran, and
// Reused marks the provenance.
func reusedPlan(p *Plan) *Plan {
	cp := *p
	cp.Counts = append([]int(nil), p.Counts...)
	cp.Iterations = 0
	cp.Stats = SolveStats{}
	cp.Reused = 1
	return &cp
}

// compCacheKey is the full identity of one per-component solve. The
// component's content digest stands in for the constraint system (the
// Theorem-1 rows are a pure function of the histogram), and the remaining
// fields pin everything else that can change the plan.
func compCacheKey(kind string, params dp.Params, solver string, noBox bool, digest string) string {
	return fmt.Sprintf("%s|%.17g|%.17g|%s|%t|%s", kind, params.Eps, params.Delta, solver, noBox, digest)
}

// cachedComponent runs solve for one component through the cache in o.Comp
// (a no-op pass-through when no cache is attached, and for the empty
// one-component partition of an empty log, which solves without an LP).
// kind and solver must fully determine the solve given params and the
// component content.
func (o Options) cachedComponent(kind string, params dp.Params, solver string, c *partition.Component, solve func() (*Plan, error)) (*Plan, error) {
	if o.Comp == nil || c.Log.NumPairs() == 0 {
		return solve()
	}
	key := compCacheKey(kind, params, solver, o.NoBoxConstraint, c.Log.Digest())
	if p := o.Comp.lookup(key); p != nil {
		return p, nil
	}
	p, err := solve()
	if err != nil {
		return nil, err
	}
	o.Comp.store(key, p)
	return p, nil
}
