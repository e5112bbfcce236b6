package service

import (
	"fmt"
	"sync"

	"distxq/internal/core"
)

// cachedPlan is one plan-cache entry: the decomposed plan, whose query
// carries its compiled Program (see xq.Query.CompiledArtifact). Both are
// immutable after publication; the key's topology epoch guarantees a
// Program can never be executed against shard maps it was not planned under.
type cachedPlan struct {
	plan *core.Plan
	// epoch is the network topology epoch the plan was decomposed under (also
	// embedded in the key). Inserting an entry of a newer epoch evicts every
	// entry below it: superseded-epoch plans can never match again, so they
	// would only displace live entries while aging out.
	epoch int64
}

// planCache is a bounded insert-order cache of decomposed plans (and their
// compiled artifacts). Keys embed the topology epoch, so a shard-map change
// invalidates by never matching again; stale entries age out through
// insertion-order eviction.
type planCache struct {
	mu      sync.Mutex
	max     int
	entries map[string]cachedPlan
	order   []string
	// building holds the in-flight build of each missing key, so concurrent
	// misses on one query wait for a single decomposition and compilation
	// instead of each doing the work.
	building map[string]*planBuild
}

// planBuild is one in-flight plan build; done closes once entry and err are
// set.
type planBuild struct {
	done  chan struct{}
	entry cachedPlan
	err   error
}

func newPlanCache(max int) *planCache {
	if max <= 0 {
		max = DefaultPlanCacheSize
	}
	return &planCache{max: max, entries: map[string]cachedPlan{}, building: map[string]*planBuild{}}
}

// getOrBuild returns the cached plan of key, or builds, publishes and
// returns it. Concurrent callers missing the same key share one build: they
// wait for it and, like cache hits, report built=false. Failed builds are
// not cached.
func (c *planCache) getOrBuild(key string, build func() (cachedPlan, error)) (p cachedPlan, built bool, err error) {
	c.mu.Lock()
	if p, ok := c.entries[key]; ok {
		c.mu.Unlock()
		return p, false, nil
	}
	if b, ok := c.building[key]; ok {
		c.mu.Unlock()
		<-b.done
		return b.entry, false, b.err
	}
	b := &planBuild{done: make(chan struct{})}
	c.building[key] = b
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.building, key)
		c.mu.Unlock()
		close(b.done)
	}()
	b.err = fmt.Errorf("service: planning %q did not complete", key)
	b.entry, b.err = build()
	if b.err == nil {
		c.put(key, b.entry)
	}
	return b.entry, true, b.err
}

func (c *planCache) put(key string, p cachedPlan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Evict superseded epochs first: a topology change strands every entry
	// planned under an older epoch (the key embeds the epoch, so they can
	// never be hit again) — drop them now instead of letting dead plans
	// crowd live ones out of the bounded cache.
	for i := 0; i < len(c.order); {
		k := c.order[i]
		if c.entries[k].epoch < p.epoch {
			delete(c.entries, k)
			c.order = append(c.order[:i], c.order[i+1:]...)
			continue
		}
		i++
	}
	if _, ok := c.entries[key]; ok {
		c.entries[key] = p
		return
	}
	for len(c.entries) >= c.max {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.entries, oldest)
	}
	c.entries[key] = p
	c.order = append(c.order, key)
}

// Len reports the number of cached plans.
func (c *planCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
