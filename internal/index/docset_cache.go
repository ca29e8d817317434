package index

import (
	"sort"
	"strings"
	"sync"

	"wwt/internal/lru"
)

// DocSetSource is anything that can compute sorted doc sets — the
// searchers qualify, as does the map-based Index.
type DocSetSource interface {
	DocSet(tokens []string, fields ...Field) []int32
}

// DocSetCache is a bounded, concurrency-safe LRU cache in front of a
// DocSetSource. The PMI² feature probes the same H(Qℓ) set once per
// (query column × candidate column) and the same B(cell) set for every
// repeated cell value, within and across queries; caching the intersected
// sets turns those repeats into a map hit. Cached slices are shared —
// callers must treat them as read-only (every in-repo consumer only
// intersects them).
//
// The cache is split into independent LRU partitions with keys routed by
// hash. An engine sizes it with one partition per index shard, which
// keeps lock contention per shard rather than global and gives per-shard
// hit-rate observability (surfaced through Engine.CacheStats → /metrics);
// a one-partition cache is a single LRU.
type DocSetCache struct {
	src   DocSetSource
	parts []*lru.Cache[string, []int32]
}

// DefaultDocSetCacheSize bounds the cache when NewDocSetCache is given a
// non-positive capacity.
const DefaultDocSetCacheSize = 8192

// NewDocSetCache wraps src with nParts independent LRUs sharing capacity
// entries (DefaultDocSetCacheSize when capacity is non-positive). Every
// partition holds at least a handful of entries, or the whole capacity
// when that is smaller, so one partition is exactly a capacity-bounded
// LRU.
func NewDocSetCache(src DocSetSource, nParts, capacity int) *DocSetCache {
	if nParts < 1 {
		nParts = 1
	}
	if capacity <= 0 {
		capacity = DefaultDocSetCacheSize
	}
	per := max(capacity/nParts, min(capacity, 16))
	c := &DocSetCache{src: src, parts: make([]*lru.Cache[string, []int32], nParts)}
	for i := range c.parts {
		c.parts[i] = lru.New[string, []int32](per)
	}
	return c
}

// DocSet returns src.DocSet(tokens, fields...), memoized on the
// deduplicated sorted token set plus the field mask in the key's home
// partition. The intersection runs outside the cache lock (it can be
// expensive; DocSet is a pure function of the key, so racing duplicate
// computes are harmless).
func (c *DocSetCache) DocSet(tokens []string, fields ...Field) []int32 {
	key := docSetKey(tokens, fields)
	p := c.parts[shardOfToken(key, len(c.parts))]
	if v, ok := p.Cached(key); ok { // closure-free: warm hits allocate only the key
		return v
	}
	// Copy fields so the variadic slice doesn't escape through the closure:
	// capturing it directly would heap-allocate it at every call site,
	// including warm hits that never run compute.
	fs := append([]Field(nil), fields...)
	return p.Get(key, func() []int32 { return c.src.DocSet(tokens, fs...) })
}

// AdoptFrom migrates old's entries into c (a fresh cache of a new index
// generation) and then evicts exactly the ones the generation change
// staled — stale receives each key's token set and reports whether any of
// its tokens could have gained members. Entries are re-routed by c's
// partition count (generations can differ in shard layout) and re-inserted
// in LRU order, preserving recency; surviving warm entries keep serving
// hits across the swap. Valid only for append-only generation changes
// (doc numbers of prior documents unchanged): a merge remaps doc numbers,
// so merge swaps start cold instead. Returns entries adopted and evicted.
func (c *DocSetCache) AdoptFrom(old *DocSetCache, stale func(tokens []string) bool) (adopted, evicted int) {
	for _, op := range old.parts {
		op.Each(func(k string, v []int32) {
			c.parts[shardOfToken(k, len(c.parts))].Put(k, v)
			adopted++
		})
	}
	for _, p := range c.parts {
		evicted += p.EvictIf(func(k string) bool { return stale(docSetKeyTokens(k)) })
	}
	return adopted, evicted
}

// Stats reports cumulative hit/miss counts summed over all partitions.
func (c *DocSetCache) Stats() (hits, misses uint64) {
	for _, p := range c.parts {
		h, m := p.Stats()
		hits += h
		misses += m
	}
	return hits, misses
}

// CacheCounters is one cache partition's cumulative hit/miss counters.
type CacheCounters struct {
	Hits, Misses uint64
}

// PartitionStats reports each partition's cumulative counters, in
// partition order.
func (c *DocSetCache) PartitionStats() []CacheCounters {
	out := make([]CacheCounters, len(c.parts))
	for i, p := range c.parts {
		out[i].Hits, out[i].Misses = p.Stats()
	}
	return out
}

// Len returns the number of cached entries across all partitions.
func (c *DocSetCache) Len() int {
	n := 0
	for _, p := range c.parts {
		n += p.Len()
	}
	return n
}

// keyScratch pools the sort buffer docSetKey uses, so key construction's
// only allocation is the key string itself.
var keyScratch = sync.Pool{New: func() any { return new(docSetKeyScratch) }}

type docSetKeyScratch struct {
	toks []string
}

// docSetKey canonicalizes (tokens, fields) into a cache key: unique tokens
// sorted and joined with an unlikely separator, prefixed by the field
// mask. One pass over a pooled sorted copy sizes the builder exactly, so
// the single allocation is the returned key — warm cache hits do no other
// allocation (pinned by TestDocSetCacheWarmHitAllocs).
func docSetKey(tokens []string, fields []Field) string {
	mask := 0
	for _, f := range fields {
		mask |= 1 << f
	}
	ks := keyScratch.Get().(*docSetKeyScratch)
	toks := append(ks.toks[:0], tokens...)
	sort.Strings(toks)
	size := 1
	for i, t := range toks {
		if i > 0 && t == toks[i-1] {
			continue
		}
		size += 1 + len(t)
	}
	var b strings.Builder
	b.Grow(size)
	b.WriteByte(byte('0' + mask))
	for i, t := range toks {
		if i > 0 && t == toks[i-1] {
			continue
		}
		b.WriteByte(0x1f)
		b.WriteString(t)
	}
	ks.toks = toks
	keyScratch.Put(ks)
	return b.String()
}

// docSetKeyTokens recovers the sorted unique token set from a docSetKey —
// the separator never occurs inside normalized tokens, so the split is
// exact. Generation migration uses it to test keys for staleness.
func docSetKeyTokens(key string) []string {
	if len(key) <= 1 {
		return nil
	}
	return strings.Split(key[1:], "\x1f")[1:]
}
