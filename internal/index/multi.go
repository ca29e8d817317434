package index

import (
	"math"
	"path/filepath"
	"slices"
	"sort"
	"sync"
)

// MultiSearcher unions searches over an ordered list of immutable
// segments — each a complete ShardedSearcher over its own document
// subset — and presents them as one index over a global doc space:
// segment i's documents occupy the contiguous global range starting at
// its doc base, in manifest order.
//
// Scoring stays bit-identical to a single index rebuilt over the union.
// The one corpus-wide quantity in the score is idf, so every resolved
// term carries the global statistics on its termRef: df summed across
// segments (documents live in exactly one segment, so the sum is exact)
// and idf recomputed from the global doc count with the same smoothed
// formula — the identical float64 operation a rebuilt index would run at
// freeze time. Each segment is then gathered independently in the
// canonical global term order (df ascending, token ascending), so every
// document accumulates the identical operation sequence it would in the
// rebuilt index; per-segment top-k candidate lists merge by the shared
// hit order. The top-k score floor established by earlier segments
// carries into later segments' gathers — per-segment scores are complete
// (no document spans segments), so the running kth-best is a valid
// admission bound, and later segments open with blocks already closed.
//
// A MultiSearcher is immutable and safe for concurrent use; Close
// releases every segment's mappings.
type MultiSearcher struct {
	segs    []*multiSegment
	numDocs int
	maxSeg  int    // largest single-segment doc count (accumulator sizing)
	gen     uint64 // manifest generation this snapshot was opened at
	pool    sync.Pool
}

// multiSegment pairs a segment's searcher with its global doc base.
type multiSegment struct {
	ss   *ShardedSearcher
	base int32
}

// segLoc is one (segment, shard, term) resolution hit.
type segLoc struct {
	si  int32
	sh  *shard
	tid int32
}

// multiScratch is the pooled per-probe state of a multi-segment search.
type multiScratch struct {
	acc     accumulator
	seen    map[string]bool
	toks    []string
	locs    []segLoc
	segRefs [][]termRef
	all     []Hit
}

// NewMultiFromSearchers assembles a MultiSearcher over already-open
// segments in the given canonical order. The searchers are owned by the
// result: Close closes them.
func NewMultiFromSearchers(segs []*ShardedSearcher) *MultiSearcher {
	ms := &MultiSearcher{}
	for _, ss := range segs {
		ms.segs = append(ms.segs, &multiSegment{ss: ss, base: int32(ms.numDocs)})
		ms.numDocs += ss.Len()
		if ss.Len() > ms.maxSeg {
			ms.maxSeg = ss.Len()
		}
	}
	return ms
}

// OpenMulti opens the given segment directories (each a flat sharded
// index) in canonical order.
func OpenMulti(dirs []string) (*MultiSearcher, error) {
	return openMulti(dirs, false)
}

func openMulti(dirs []string, noMmap bool) (*MultiSearcher, error) {
	segs := make([]*ShardedSearcher, 0, len(dirs))
	for _, d := range dirs {
		ss, err := openSharded(d, noMmap)
		if err != nil {
			for _, open := range segs {
				open.Close()
			}
			return nil, err
		}
		segs = append(segs, ss)
	}
	return NewMultiFromSearchers(segs), nil
}

// OpenMultiSnapshot opens dir's committed manifest (or the implicit
// base-only manifest of a plain frozen index directory) as one
// MultiSearcher, and returns the manifest it opened. A directory holding
// neither a manifest nor a flat index fails with an error wrapping
// fs.ErrNotExist.
func OpenMultiSnapshot(dir string) (*MultiSearcher, Manifest, error) {
	return openMultiSnapshot(dir, false)
}

func openMultiSnapshot(dir string, noMmap bool) (*MultiSearcher, Manifest, error) {
	m, err := SnapshotManifest(dir)
	if err != nil {
		return nil, m, err
	}
	dirs := make([]string, len(m.Segments))
	for i, s := range m.Segments {
		dirs[i] = segPath(dir, s)
	}
	ms, err := openMulti(dirs, noMmap)
	if err != nil {
		return nil, m, err
	}
	ms.gen = m.Generation
	return ms, m, nil
}

// segPath resolves a manifest segment entry against the index root
// ("." is the root itself).
func segPath(dir, entry string) string {
	return filepath.Join(dir, entry)
}

// Close releases every segment. Results alias segment mappings and must
// not be used afterwards.
func (ms *MultiSearcher) Close() error {
	var first error
	for _, seg := range ms.segs {
		if err := seg.ss.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Len returns the total document count across segments.
func (ms *MultiSearcher) Len() int { return ms.numDocs }

// Segments returns the segment count.
func (ms *MultiSearcher) Segments() int { return len(ms.segs) }

// Generation returns the manifest generation this snapshot was opened at
// (0 for snapshots assembled without a manifest).
func (ms *MultiSearcher) Generation() uint64 { return ms.gen }

// SegmentLens returns the per-segment document counts in canonical
// order — the merge planner's input.
func (ms *MultiSearcher) SegmentLens() []int {
	out := make([]int, len(ms.segs))
	for i, seg := range ms.segs {
		out[i] = seg.ss.Len()
	}
	return out
}

// SegmentHasTerm reports whether segment i contains the token. Generation
// swaps use it to evict exactly the cached doc sets the new segment
// staled.
func (ms *MultiSearcher) SegmentHasTerm(i int, tok string) bool {
	return ms.segs[i].ss.HasTerm(tok)
}

// Shards returns the total shard count across segments.
func (ms *MultiSearcher) Shards() int {
	n := 0
	for _, seg := range ms.segs {
		n += seg.ss.Shards()
	}
	return n
}

// Mmapped reports whether every segment aliases file mappings.
func (ms *MultiSearcher) Mmapped() bool {
	for _, seg := range ms.segs {
		if !seg.ss.Mmapped() {
			return false
		}
	}
	return len(ms.segs) > 0
}

// ShardPruneCounts concatenates the per-shard prune counters in segment
// order (only single-segment probes run the pruning pre-pass, so later
// segments' counters stay zero).
func (ms *MultiSearcher) ShardPruneCounts() []uint64 {
	var out []uint64
	for _, seg := range ms.segs {
		out = append(out, seg.ss.ShardPruneCounts()...)
	}
	return out
}

// IDOf returns the table ID of a global doc number.
func (ms *MultiSearcher) IDOf(doc int32) string {
	si := ms.segOf(doc)
	return ms.segs[si].ss.IDOf(doc - ms.segs[si].base)
}

// segOf locates the segment owning a global doc number.
func (ms *MultiSearcher) segOf(doc int32) int {
	return sort.Search(len(ms.segs), func(i int) bool { return ms.segs[i].base > doc }) - 1
}

// globalDF sums the token's per-segment document frequencies. Documents
// live in exactly one segment, so the sum equals the df a rebuilt index
// over the union would compute.
func (ms *MultiSearcher) globalDF(tok string) int64 {
	var df int64
	for _, seg := range ms.segs {
		sh := seg.ss.shards[shardOfToken(tok, seg.ss.shardCount)]
		if tid, ok := sh.lookup(tok); ok {
			df += int64(sh.df[tid])
		}
	}
	return df
}

// IDF returns the smoothed corpus-global inverse document frequency,
// identical to Index.IDF over the union of segments.
func (ms *MultiSearcher) IDF(tok string) float64 {
	if ms.numDocs == 0 {
		return 1
	}
	return math.Log(1 + float64(ms.numDocs)/float64(1+ms.globalDF(tok)))
}

// TermStats returns the corpus-global union document frequency and total
// posting entries of a token. Unknown tokens report ok=false.
func (ms *MultiSearcher) TermStats(tok string) (df int32, postings int, ok bool) {
	var d int64
	for _, seg := range ms.segs {
		sd, sp, sok := seg.ss.TermStats(tok)
		if sok {
			d += int64(sd)
			postings += sp
			ok = true
		}
	}
	return int32(d), postings, ok
}

// HasTerm reports whether any segment contains the token.
func (ms *MultiSearcher) HasTerm(tok string) bool {
	for _, seg := range ms.segs {
		if seg.ss.HasTerm(tok) {
			return true
		}
	}
	return false
}

func (ms *MultiSearcher) getScratch() *multiScratch {
	sc, _ := ms.pool.Get().(*multiScratch)
	if sc == nil {
		sc = &multiScratch{}
	}
	a := &sc.acc
	if len(a.score) < ms.maxSeg {
		a.score = make([]float64, ms.maxSeg)
		a.gen = make([]uint32, ms.maxSeg)
		a.cur = 0
	}
	if sc.seen == nil {
		sc.seen = make(map[string]bool, 16)
	}
	clear(sc.seen)
	if len(sc.segRefs) != len(ms.segs) {
		sc.segRefs = make([][]termRef, len(ms.segs))
	}
	return sc
}

// Search scores a union-of-keywords query over all segments and returns
// the top k hits (all hits when k <= 0), bit-identical to a single index
// rebuilt over the union of the segments' documents.
func (ms *MultiSearcher) Search(tokens []string, k int) []Hit {
	hits, _ := ms.SearchStats(tokens, k)
	return hits
}

// SearchStats is Search plus the probe's skip counters, summed across
// segments.
//
// Each segment is scored independently into one reused accumulator
// generation: per-term global df/idf are computed once, the segment's
// resolved refs are sorted into the canonical global order, and the
// gather runs with the floor carried over from already-scored segments'
// merged top k (exact, since no document spans segments). The global
// top k is a subset of the per-segment top k's, so merging the
// candidate lists with the shared hit order reproduces the rebuilt
// index's result exactly. Multi-segment probes skip the page-prefault
// scatter and the shard-pruning pre-pass — segments past the first
// usually open with most blocks closed by the carried floor instead.
func (ms *MultiSearcher) SearchStats(tokens []string, k int) ([]Hit, ProbeStats) {
	var st ProbeStats
	if len(tokens) == 0 || ms.numDocs == 0 {
		return nil, st
	}
	if len(ms.segs) == 1 {
		// One segment is just that index: take its scatter/prune path.
		return ms.segs[0].ss.SearchStats(tokens, k)
	}
	sc := ms.getScratch()
	defer ms.pool.Put(sc)

	toks := sc.toks[:0]
	for _, tok := range tokens {
		if !sc.seen[tok] {
			sc.seen[tok] = true
			toks = append(toks, tok)
		}
	}
	sc.toks = toks
	for i := range sc.segRefs {
		sc.segRefs[i] = sc.segRefs[i][:0]
	}

	// Resolve every token in every segment and stamp the refs with the
	// corpus-global statistics. idf is computed with the exact float64
	// operation sequence Index.IDF uses, so downstream sums match a
	// rebuilt index bit for bit. The segment-local best-weight bound is
	// rescaled by the global idf — still a valid per-doc contribution
	// bound within that segment.
	locs := sc.locs[:0]
	for _, tok := range toks {
		start := len(locs)
		var df int64
		for si, seg := range ms.segs {
			sh := seg.ss.shards[shardOfToken(tok, seg.ss.shardCount)]
			if tid, ok := sh.lookup(tok); ok {
				df += int64(sh.df[tid])
				locs = append(locs, segLoc{si: int32(si), sh: sh, tid: tid})
			}
		}
		if len(locs) == start {
			continue
		}
		idf := math.Log(1 + float64(ms.numDocs)/float64(1+df))
		for _, l := range locs[start:] {
			sc.segRefs[l.si] = append(sc.segRefs[l.si], termRef{
				tok: tok, sh: l.sh, tid: l.tid,
				df: int32(df), idf: idf,
				maxS: idf * l.sh.bestW[l.tid],
			})
		}
		locs = locs[:start]
	}
	sc.locs = locs

	acc := &sc.acc
	all := sc.all[:0]
	floor := math.Inf(-1)
	for si, seg := range ms.segs {
		refs := sc.segRefs[si]
		if len(refs) == 0 {
			continue
		}
		for i, r := range refs {
			probed := false
			for _, p := range refs[:i] {
				if p.sh == r.sh {
					probed = true
					break
				}
			}
			if !probed {
				st.ShardsProbed++
			}
		}
		sortRefs(refs)
		acc.nextGen()
		gather(acc, refs, k, floor, &st)
		all = append(all, seg.ss.collect(acc, k)...)
		if k > 0 && len(all) >= k {
			if f := kthHitScore(all, k, &acc.scratch); f > floor {
				floor = f
			}
		}
	}
	sc.all = all
	if len(all) == 0 {
		return nil, st
	}
	return selectTopHits(all, k), st
}

// kthHitScore returns the kth largest score among hits (k <= len(hits))
// using the accumulator's reusable selection scratch.
func kthHitScore(hits []Hit, k int, scratch *[]float64) float64 {
	s := (*scratch)[:0]
	for _, h := range hits {
		s = append(s, h.Score)
	}
	*scratch = s
	if k >= len(s) {
		return slices.Min(s)
	}
	return topKSelect(s, k, func(x, y float64) bool { return x < y })[0]
}

// DocsWithToken returns the sorted global doc set containing tok in any
// of the given fields — segment sets remapped by doc base, concatenated
// in canonical order (bases ascend, so the result stays sorted). The
// slice is freshly allocated and safe to retain across Close.
func (ms *MultiSearcher) DocsWithToken(tok string, fields ...Field) []int32 {
	var out []int32
	for _, seg := range ms.segs {
		sh := seg.ss.shards[shardOfToken(tok, seg.ss.shardCount)]
		tid, ok := sh.lookup(tok)
		if !ok {
			continue
		}
		for _, d := range sh.termDocs(tid, fields) {
			out = append(out, d+seg.base)
		}
	}
	return out
}

// DocSet returns the sorted global set of documents containing all
// tokens, each in at least one of the given fields. A document's tokens
// all live in its own segment, so the intersection runs per segment and
// the remapped results concatenate. The slice is freshly allocated and
// safe to retain across Close.
func (ms *MultiSearcher) DocSet(tokens []string, fields ...Field) []int32 {
	var out []int32
	for _, seg := range ms.segs {
		for _, d := range seg.ss.DocSet(tokens, fields...) {
			out = append(out, d+seg.base)
		}
	}
	return out
}
