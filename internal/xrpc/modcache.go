package xrpc

import (
	"hash/maphash"
	"sync"

	"distxq/internal/xq"
)

// Bounds of a Server's module cache. A cached module costs its text plus
// its parsed and compiled forms (a few KiB for a typical shipped function),
// so both the entry count and the total text bytes are capped; the oldest
// admissions are evicted first.
const (
	moduleCacheEntries = 64
	moduleCacheBytes   = 256 << 10
	// moduleSeenSlots sizes the admission table of once-seen module hashes.
	// It only has to remember a module between two requests that carry it,
	// and every peer pays for it, so it stays small.
	moduleSeenSlots = 32
)

// moduleCache keeps the parsed, normalized shipped modules a peer has been
// sent more than once, keyed on their full text, so a repeated module skips
// parse and normalize, and its first call's compiled Program (cached on the
// query) serves every later request. The zero value is ready to use.
//
// Admission waits for a module's second sighting: a workload that ships a
// fresh module with every request never fills the cache, and never
// retains a module beyond the most recent one. Lookups compare the full text
// after the hash, so a collision can only miss, never return another module.
// A module that fails to parse, normalize or render is never kept.
type moduleCache struct {
	mu      sync.Mutex
	entries []*moduleEntry // admission order, oldest first
	bytes   int
	// seen holds the hashes of once-seen modules, one per slot; last is the
	// most recent once-seen module, so a module sent twice in a row is
	// admitted without being parsed (and compiled) again.
	seen [moduleSeenSlots]uint64
	last *moduleEntry
}

// moduleSeed seeds the module-text hashes of every cache in the process.
var moduleSeed = maphash.MakeSeed()

// moduleEntry is one parsed module with the text it was parsed from.
type moduleEntry struct {
	hash uint64
	text string
	q    *xq.Query
}

// load returns the query of a shipped module: the cached one when the text
// was admitted earlier, else a freshly parsed, normalized and rendered one.
func (c *moduleCache) load(text string) (*xq.Query, error) {
	h := maphash.String(moduleSeed, text) | 1 // nonzero: zero marks a free seen slot
	c.mu.Lock()
	for _, e := range c.entries {
		if e.hash == h && e.text == text {
			c.mu.Unlock()
			return e.q, nil
		}
	}
	if e := c.last; e != nil && e.text == text {
		c.last = nil
		c.admit(e)
		c.mu.Unlock()
		return e.q, nil
	}
	c.mu.Unlock()

	q, err := xq.ParseQuery(text + "\n0")
	if err == nil {
		err = xq.Normalize(q)
	}
	if err == nil {
		err = xq.RenderModules(q)
	}
	if err != nil {
		return nil, err
	}
	e := &moduleEntry{hash: h, text: text, q: q}
	c.mu.Lock()
	defer c.mu.Unlock()
	slot := &c.seen[h%moduleSeenSlots]
	if *slot == h {
		*slot = 0
		c.admit(e)
		return q, nil
	}
	*slot = h
	c.last = e
	return q, nil
}

// admit publishes e and evicts the oldest entries until both bounds hold. A
// module larger than the byte bound is not kept. The caller holds c.mu.
func (c *moduleCache) admit(e *moduleEntry) {
	if len(e.text) > moduleCacheBytes {
		return
	}
	c.entries = append(c.entries, e)
	c.bytes += len(e.text)
	drop := 0
	for len(c.entries)-drop > moduleCacheEntries || c.bytes > moduleCacheBytes {
		c.bytes -= len(c.entries[drop].text)
		drop++
	}
	if drop > 0 {
		c.entries = append(c.entries[:0], c.entries[drop:]...)
	}
}
