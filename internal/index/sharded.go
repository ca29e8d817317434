package index

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// ShardedSearcher is the frozen query-time form of an index: postings are
// partitioned by term hash into independent shards, each holding its own
// term table and CSR arrays, while the doc table (doc number → table ID)
// is shared. NewSearcher freezes an Index into one heap-resident shard;
// NewShardedFromSearcher re-partitions, and OpenSharded maps a flat
// directory written by WriteSharded. A probe scatters across shards in
// parallel — each shard resolves its slice of the query terms and
// prefaults their posting pages — and the gather accumulates contributions
// in the canonical term order (df ascending, token ascending), so hits are
// bit-identical (IDs, scores, order, tie-breaks) for every shard count.
// Term-hash sharding keeps every per-term quantity (idf, df, max-score
// bound, posting list) exactly equal to its single-shard value, which is
// what makes the canonical-order gather exact rather than merely
// approximate (TestSearcherEquivalence pins every shard count against the
// map-based Index.Search).
//
// A ShardedSearcher is immutable and safe for concurrent use (the pruning
// counters are atomics). When opened from disk (OpenSharded) its arrays
// alias the file mapping: results must not outlive Close.
//
// Scoring itself is the shared gather (gather.go). On top of it, a probe
// with block summaries on every shard runs a floor-seeding pre-pass: shards
// are ranked by their score upper bound (the sum of their resolved terms'
// max-scores), the best one or two are scored into a throwaway generation
// to establish a top-k floor, and shards whose bound cannot beat that floor
// are pruned from the scatter — their pages are never prefaulted, and under
// the preseeded floor the main gather touches at most their block
// summaries. The main gather always processes every resolved term in
// canonical order, so hits stay bit-identical at every shard count.
type ShardedSearcher struct {
	numDocs    int
	shardCount int

	// Doc table: either materialized strings (in-memory construction) or
	// an offsets+blob view into the docs file (flat construction).
	ids    []string
	idOffs []int64
	idBlob []byte

	shards      []*shard
	shardPruned []atomic.Uint64 // per shard: probes that pruned its scatter
	pool        sync.Pool       // *shardedScratch
	closers     []func() error
	mmapped     bool
}

// shard is one term-hash partition: a term table in lexicographic order
// plus the per-field CSR arrays over the shared doc space.
//
// A flat-opened shard's arrays are zero-copy views over its postings
// file's mapping; the ShardedSearcher that opened it owns the mapping and
// its Close is the unmap point (mmapalias invariant).
//
//wwt:mmap-owner
type shard struct {
	numTerms int

	names    []string // in-memory construction
	termOffs []int64  // flat construction
	termBlob []byte

	idf      []float64
	maxScore []float64
	bestW    []float64 // per term: max per-doc cross-field weight sum (idf-free)
	df       []int32

	off  [numFields][]int32
	docs [numFields][]int32
	wts  [numFields][]float32

	// Block-max summaries (gather.go). blockSize == 0 (a v1 file) means no
	// summaries: the gather falls back to the term-level skip alone, with
	// identical results.
	blockSize int
	blkOff    [numFields][]int32   // per term: cumulative block counts (numTerms+1)
	blkMax    [numFields][]float32 // per block: max posting weight
	blkDoc    [numFields][]int32   // per block: first doc ID
	fieldMaxW [numFields][]float32 // per term: max posting weight in the field
}

// shardOfToken is the stable (cross-process) term→shard assignment:
// FNV-1a 64 over the token bytes, mod the shard count. Inlined so probes
// don't allocate a hash.Hash per token.
func shardOfToken(tok string, n int) int {
	if n <= 1 {
		return 0
	}
	h := uint64(14695981039346656037)
	for i := 0; i < len(tok); i++ {
		h ^= uint64(tok[i])
		h *= 1099511628211
	}
	return int(h % uint64(n))
}

// termName returns term i's token.
func (sh *shard) termName(i int32) string {
	if sh.names != nil {
		return sh.names[i]
	}
	return unsafeString(sh.termBlob[sh.termOffs[i]:sh.termOffs[i+1]])
}

// lookup binary-searches the shard's lexicographic term table — no map to
// build at open time, so opening stays O(1) in corpus size.
func (sh *shard) lookup(tok string) (int32, bool) {
	lo, hi := int32(0), int32(sh.numTerms)
	for lo < hi {
		mid := int32(uint32(lo+hi) >> 1)
		if sh.termName(mid) < tok {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < int32(sh.numTerms) && sh.termName(lo) == tok {
		return lo, true
	}
	return 0, false
}

// NewShardedFromSearcher re-partitions s's terms by hash into n shards,
// copying each term's CSR ranges into its home shard. Per-term statistics
// (idf, df, maxScore) carry over unchanged — term-hash sharding does not
// alter them. The arrays are always copied, even for n == 1, so the
// result's block summaries can be recomputed (WriteShardedWith does)
// without touching s, which may be serving queries. The doc table and
// term strings are shared with s: over a disk-opened s, the result must
// not outlive s.Close.
func NewShardedFromSearcher(s *ShardedSearcher, n int) *ShardedSearcher {
	if n < 1 {
		n = 1
	}
	ss := &ShardedSearcher{
		numDocs:     s.numDocs,
		shardCount:  n,
		ids:         s.ids,
		idOffs:      s.idOffs,
		idBlob:      s.idBlob,
		shards:      make([]*shard, n),
		shardPruned: make([]atomic.Uint64, n),
	}
	// Every source term in global lexicographic order, so each new shard
	// receives its terms already sorted.
	type srcTerm struct {
		sh   *shard
		tid  int32
		name string
	}
	var terms []srcTerm
	for _, sh := range s.shards {
		for ti := int32(0); ti < int32(sh.numTerms); ti++ {
			terms = append(terms, srcTerm{sh, ti, sh.termName(ti)})
		}
	}
	if len(s.shards) > 1 {
		slices.SortFunc(terms, func(a, b srcTerm) int { return strings.Compare(a.name, b.name) })
	}
	perShard := make([][]srcTerm, n)
	for _, t := range terms {
		g := shardOfToken(t.name, n)
		perShard[g] = append(perShard[g], t)
	}
	for g, ts := range perShard {
		sh := &shard{
			numTerms: len(ts),
			names:    make([]string, len(ts)),
			idf:      make([]float64, len(ts)),
			maxScore: make([]float64, len(ts)),
			bestW:    make([]float64, len(ts)),
			df:       make([]int32, len(ts)),
		}
		for f := 0; f < int(numFields); f++ {
			total := 0
			for _, t := range ts {
				total += int(t.sh.off[f][t.tid+1] - t.sh.off[f][t.tid])
			}
			sh.off[f] = make([]int32, len(ts)+1)
			sh.docs[f] = make([]int32, 0, total)
			sh.wts[f] = make([]float32, 0, total)
		}
		for li, t := range ts {
			src, ti := t.sh, t.tid
			sh.names[li] = t.name
			sh.idf[li] = src.idf[ti]
			sh.maxScore[li] = src.maxScore[ti]
			sh.bestW[li] = src.bestW[ti]
			sh.df[li] = src.df[ti]
			for f := 0; f < int(numFields); f++ {
				lo, hi := src.off[f][ti], src.off[f][ti+1]
				sh.off[f][li] = int32(len(sh.docs[f]))
				sh.docs[f] = append(sh.docs[f], src.docs[f][lo:hi]...)
				sh.wts[f] = append(sh.wts[f], src.wts[f][lo:hi]...)
			}
		}
		for f := 0; f < int(numFields); f++ {
			sh.off[f][len(ts)] = int32(len(sh.docs[f]))
		}
		if bs := s.shards[0].blockSize; bs > 0 {
			sh.computeBlocks(bs)
		}
		ss.shards[g] = sh
	}
	return ss
}

// shardFileName names shard g's postings file inside an index directory.
func shardFileName(g int) string { return fmt.Sprintf("postings-%03d.wwt", g) }

// DocsFileName is the shared doc-table file of a flat sharded index; its
// presence marks a directory as holding one.
const DocsFileName = "docs.wwt"

// maxShards bounds the builder: beyond this, per-shard overhead dwarfs any
// fan-out win and the file-per-shard layout stops making sense.
const maxShards = 4096

// WriteShardedOptions configures WriteShardedWith.
type WriteShardedOptions struct {
	// FormatVersion selects the flat layout: 1 writes WWTFLT01 (no block
	// summaries, readable by older builds), 2 writes WWTFLT02 (block-max
	// postings). 0 means 2.
	FormatVersion int
}

// maxSectionInt32 bounds per-field posting counts: the CSR offsets (and
// the v2 block counts derived from them) are int32 section arrays. A var
// so tests can exercise the bound without a 2^31-posting corpus.
var maxSectionInt32 = math.MaxInt32

// WriteSharded persists a searcher as a flat sharded index under dir in
// the current format version (2): one shared doc-table file plus nShards
// postings files, each in the versioned mmap-friendly layout described in
// the package documentation. s is only read: its postings are re-
// partitioned into private copies (NewShardedFromSearcher) before any
// block summaries are written.
func WriteSharded(dir string, s *ShardedSearcher, nShards int) error {
	return WriteShardedWith(dir, s, nShards, WriteShardedOptions{})
}

// WriteShardedWith is WriteSharded with an explicit format version. A v2
// file always carries DefaultBlockSize-wide posting blocks. Invalid
// options fail before any file is written.
func WriteShardedWith(dir string, s *ShardedSearcher, nShards int, opts WriteShardedOptions) error {
	if nShards < 1 {
		nShards = 1
	}
	if nShards > maxShards {
		return fmt.Errorf("index write: %d shards exceeds the %d-shard limit", nShards, maxShards)
	}
	version := opts.FormatVersion
	if version == 0 {
		version = flatFormatVersion2
	}
	if version != flatFormatVersion && version != flatFormatVersion2 {
		return fmt.Errorf("index write: flat format version %d not supported, this build writes %d (%s) and %d (%s)",
			version, flatFormatVersion, flatMagic, flatFormatVersion2, flatMagicV2)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("index write: %w", err)
	}
	ss := NewShardedFromSearcher(s, nShards)
	for g, sh := range ss.shards {
		for f := 0; f < int(numFields); f++ {
			if n := len(sh.docs[f]); n > maxSectionInt32 {
				return fmt.Errorf("index write: flat format v%d: shard %d field %s has %d postings, over the int32 section-offset bound (%d); rebuild with more shards",
					version, g, Field(f), n, maxSectionInt32)
			}
		}
	}
	ids := make([]string, s.numDocs)
	for d := range ids {
		ids[d] = s.IDOf(int32(d))
	}
	idOffs, idBlob := packStrings(ids)
	err := writeFlatFile(filepath.Join(dir, DocsFileName), uint32(version), 0, kindDocs, 0, uint32(nShards),
		uint64(s.numDocs), 0, []section{
			{secIDOffs, int64Bytes(idOffs)},
			{secIDBlob, idBlob},
		})
	if err != nil {
		return fmt.Errorf("index write: %w", err)
	}
	for g, sh := range ss.shards {
		termOffs, termBlob := packStrings(sh.names)
		secs := []section{
			{secTermOffs, int64Bytes(termOffs)},
			{secTermBlob, termBlob},
			{secIDF, float64Bytes(sh.idf)},
			{secMaxScore, float64Bytes(sh.maxScore)},
			{secDF, int32Bytes(sh.df)},
			// The idf-free best weight backs multi-segment bounds; old
			// readers ignore the unknown section ID.
			{secBestWeight, float64Bytes(sh.bestW)},
		}
		for f := 0; f < int(numFields); f++ {
			secs = append(secs,
				section{secFieldOff(f), int32Bytes(sh.off[f])},
				section{secFieldDocs(f), int32Bytes(sh.docs[f])},
				section{secFieldWts(f), float32Bytes(sh.wts[f])},
			)
		}
		shardBlockSize := 0
		if version == flatFormatVersion2 {
			shardBlockSize = DefaultBlockSize
			if sh.blockSize != DefaultBlockSize {
				sh.computeBlocks(DefaultBlockSize)
			}
			for f := 0; f < int(numFields); f++ {
				secs = append(secs,
					section{secFieldBlkOff(f), int32Bytes(sh.blkOff[f])},
					section{secFieldBlkMax(f), float32Bytes(sh.blkMax[f])},
					section{secFieldBlkDoc(f), int32Bytes(sh.blkDoc[f])},
					section{secFieldFieldMax(f), float32Bytes(sh.fieldMaxW[f])},
				)
			}
		}
		err := writeFlatFile(filepath.Join(dir, shardFileName(g)), uint32(version), uint32(shardBlockSize), kindPostings,
			uint32(g), uint32(nShards), uint64(s.numDocs), uint64(sh.numTerms), secs)
		if err != nil {
			return fmt.Errorf("index write: %w", err)
		}
	}
	return nil
}

// OpenSharded opens a flat sharded index written by WriteSharded. Opening
// is O(1) in corpus size: the files are page-mapped (or read whole where
// mmap is unavailable) and only headers are validated — no decode, no
// map building. The returned searcher's strings and arrays alias the
// mappings; results must not outlive Close. A directory without a flat
// index fails with an error wrapping fs.ErrNotExist.
func OpenSharded(dir string) (*ShardedSearcher, error) {
	return openSharded(dir, false)
}

// openSharded is OpenSharded with a switch forcing the portable
// read-into-memory path (exercised by tests; also the only path on
// platforms without mmap).
func openSharded(dir string, noMmap bool) (*ShardedSearcher, error) {
	df, err := openFlatFile(filepath.Join(dir, DocsFileName), noMmap)
	if err != nil {
		return nil, err
	}
	ss := &ShardedSearcher{mmapped: !noMmap}
	ss.closers = append(ss.closers, df.Close)
	fail := func(e error) (*ShardedSearcher, error) {
		ss.Close()
		return nil, e
	}
	if df.kind != kindDocs {
		return fail(df.corrupt("file kind %d, want doc table (%d)", df.kind, kindDocs))
	}
	if df.shardCount < 1 || df.shardCount > maxShards {
		return fail(df.corrupt("shard count %d out of range", df.shardCount))
	}
	ss.numDocs = int(df.numDocs)
	ss.shardCount = int(df.shardCount)
	if ss.idOffs, err = df.int64Sec(secIDOffs, ss.numDocs+1); err != nil {
		return fail(err)
	}
	if ss.idBlob, err = df.sec(secIDBlob); err != nil {
		return fail(err)
	}
	if ss.numDocs > 0 && int(ss.idOffs[ss.numDocs]) != len(ss.idBlob) {
		return fail(df.corrupt("doc-ID blob is %d bytes, offsets end at %d", len(ss.idBlob), ss.idOffs[ss.numDocs]))
	}
	ss.shards = make([]*shard, ss.shardCount)
	ss.shardPruned = make([]atomic.Uint64, ss.shardCount)
	for g := 0; g < ss.shardCount; g++ {
		pf, err := openFlatFile(filepath.Join(dir, shardFileName(g)), noMmap)
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				return fail(fmt.Errorf("index open %s: shard file %s missing (doc table says %d shards): %w",
					dir, shardFileName(g), ss.shardCount, err))
			}
			return fail(err)
		}
		ss.closers = append(ss.closers, pf.Close)
		sh, err := openShardFile(pf, g, ss.shardCount, ss.numDocs)
		if err != nil {
			return fail(err)
		}
		ss.shards[g] = sh
	}
	return ss, nil
}

// openShardFile validates one postings file's header against the doc
// table and aliases its sections into a shard.
func openShardFile(pf *flatFile, g, shardCount, numDocs int) (*shard, error) {
	if pf.kind != kindPostings {
		return nil, pf.corrupt("file kind %d, want postings shard (%d)", pf.kind, kindPostings)
	}
	if int(pf.shardIndex) != g || int(pf.shardCount) != shardCount {
		return nil, pf.corrupt("shard %d/%d, doc table says %d/%d — files from different builds mixed in one directory?",
			pf.shardIndex, pf.shardCount, g, shardCount)
	}
	if int(pf.numDocs) != numDocs {
		return nil, pf.corrupt("shard built over %d docs, doc table has %d — files from different builds mixed in one directory?",
			pf.numDocs, numDocs)
	}
	sh := &shard{numTerms: int(pf.numTerms)}
	var err error
	if sh.termOffs, err = pf.int64Sec(secTermOffs, sh.numTerms+1); err != nil {
		return nil, err
	}
	if sh.termBlob, err = pf.sec(secTermBlob); err != nil {
		return nil, err
	}
	if sh.numTerms > 0 && int(sh.termOffs[sh.numTerms]) != len(sh.termBlob) {
		return nil, pf.corrupt("term blob is %d bytes, offsets end at %d", len(sh.termBlob), sh.termOffs[sh.numTerms])
	}
	if sh.idf, err = pf.float64Sec(secIDF, sh.numTerms); err != nil {
		return nil, err
	}
	if sh.maxScore, err = pf.float64Sec(secMaxScore, sh.numTerms); err != nil {
		return nil, err
	}
	if sh.df, err = pf.int32Sec(secDF, sh.numTerms); err != nil {
		return nil, err
	}
	if pf.hasSec(secBestWeight) {
		if sh.bestW, err = pf.float64Sec(secBestWeight, sh.numTerms); err != nil {
			return nil, err
		}
	} else {
		// Files written before the best-weight section carry only
		// maxScore = idf·bestW. Dividing the rounding back out can land a
		// hair below the true bestW, so pad by one ulp-scale factor — the
		// value is only ever used as an upper bound, never in scores.
		sh.bestW = make([]float64, sh.numTerms)
		for t := 0; t < sh.numTerms; t++ {
			if sh.idf[t] > 0 {
				sh.bestW[t] = sh.maxScore[t] / sh.idf[t] * (1 + 1e-12)
			}
		}
	}
	for f := 0; f < int(numFields); f++ {
		if sh.off[f], err = pf.int32Sec(secFieldOff(f), sh.numTerms+1); err != nil {
			return nil, err
		}
		count := int(sh.off[f][sh.numTerms])
		if sh.docs[f], err = pf.int32Sec(secFieldDocs(f), count); err != nil {
			return nil, err
		}
		if sh.wts[f], err = pf.float32Sec(secFieldWts(f), count); err != nil {
			return nil, err
		}
	}
	if pf.version >= flatFormatVersion2 {
		// v2: block-max summaries. Validation stays O(1) in corpus size —
		// section byte counts are cross-checked against the block counts
		// declared by the last blkOff entry.
		if pf.blockSize <= 0 {
			return nil, pf.corrupt("flat v2 header declares block size %d, want > 0", pf.blockSize)
		}
		sh.blockSize = pf.blockSize
		for f := 0; f < int(numFields); f++ {
			if sh.blkOff[f], err = pf.int32Sec(secFieldBlkOff(f), sh.numTerms+1); err != nil {
				return nil, err
			}
			nb := 0
			if sh.numTerms > 0 {
				nb = int(sh.blkOff[f][sh.numTerms])
			}
			if nb < 0 {
				return nil, pf.corrupt("field %s declares %d posting blocks", Field(f), nb)
			}
			if sh.blkMax[f], err = pf.float32Sec(secFieldBlkMax(f), nb); err != nil {
				return nil, err
			}
			if sh.blkDoc[f], err = pf.int32Sec(secFieldBlkDoc(f), nb); err != nil {
				return nil, err
			}
			if sh.fieldMaxW[f], err = pf.float32Sec(secFieldFieldMax(f), sh.numTerms); err != nil {
				return nil, err
			}
		}
	}
	return sh, nil
}

// Close releases the file mappings of a disk-opened searcher. Hits, doc
// IDs and doc sets returned earlier alias the mappings and must not be
// used afterwards. Close on an in-memory searcher is a no-op.
func (ss *ShardedSearcher) Close() error {
	var first error
	for _, c := range ss.closers {
		if err := c(); err != nil && first == nil {
			first = err
		}
	}
	ss.closers = nil
	return first
}

// Len returns the number of indexed documents.
func (ss *ShardedSearcher) Len() int { return ss.numDocs }

// Shards returns the shard count.
func (ss *ShardedSearcher) Shards() int { return ss.shardCount }

// Mmapped reports whether the searcher aliases file mappings (as opposed
// to heap-resident arrays).
func (ss *ShardedSearcher) Mmapped() bool { return ss.mmapped }

// NumTerms returns the total distinct terms across shards.
func (ss *ShardedSearcher) NumTerms() int {
	n := 0
	for _, sh := range ss.shards {
		n += sh.numTerms
	}
	return n
}

// IDOf returns the table ID of an internal doc number. For disk-opened
// searchers the string aliases the mapping (zero-copy).
func (ss *ShardedSearcher) IDOf(doc int32) string {
	if ss.ids != nil {
		return ss.ids[doc]
	}
	return unsafeString(ss.idBlob[ss.idOffs[doc]:ss.idOffs[doc+1]])
}

// IDF returns the smoothed inverse document frequency of a token,
// identical to Index.IDF: the per-term value was computed at freeze time,
// and the unknown-token case recomputes the same smoothed formula.
func (ss *ShardedSearcher) IDF(tok string) float64 {
	if ss.numDocs == 0 {
		return 1
	}
	sh := ss.shards[shardOfToken(tok, ss.shardCount)]
	if ti, ok := sh.lookup(tok); ok {
		return sh.idf[ti]
	}
	return math.Log(1 + float64(ss.numDocs))
}

// TermStats returns a token's union document frequency and total posting
// entries across all fields — the cost-model features a query planner
// reads before probing — read from the token's home shard, identical to
// Index.TermStats at every shard count. Unknown tokens report ok=false.
func (ss *ShardedSearcher) TermStats(tok string) (df int32, postings int, ok bool) {
	sh := ss.shards[shardOfToken(tok, ss.shardCount)]
	ti, ok := sh.lookup(tok)
	if !ok {
		return 0, 0, false
	}
	for f := 0; f < int(numFields); f++ {
		postings += int(sh.off[f][ti+1] - sh.off[f][ti])
	}
	return sh.df[ti], postings, true
}

// HasTerm reports whether the token occurs in this index. Generation
// swaps use it to decide which cached doc sets a new segment staled.
func (ss *ShardedSearcher) HasTerm(tok string) bool {
	_, ok := ss.shards[shardOfToken(tok, ss.shardCount)].lookup(tok)
	return ok
}

// termRef is one resolved query term: its home shard and local term ID,
// plus the token for canonical (lexicographic) ordering at gather time.
// The per-term statistics (df, idf, max-score bound) are carried on the
// ref rather than read from the shard arrays so a multi-segment probe can
// substitute corpus-global values: a segment's shard only knows its own
// doc population, but MultiSearcher scores every segment under the global
// df/idf, which is what keeps multi-segment sums bit-identical to a
// single rebuilt index. Single-index probes populate the fields from the
// shard arrays, so behavior there is unchanged.
type termRef struct {
	tok  string
	sh   *shard
	tid  int32
	df   int32   // document frequency (corpus-global in multi probes)
	idf  float64 // smoothed IDF the gather multiplies by
	maxS float64 // per-doc contribution bound: idf · best cross-field weight sum
}

// fill populates a ref's carried statistics from its home shard — the
// single-index case, where shard-local and corpus-global values coincide.
func (r *termRef) fill() {
	r.df = r.sh.df[r.tid]
	r.idf = r.sh.idf[r.tid]
	r.maxS = r.sh.maxScore[r.tid]
}

// shardedScratch is the pooled per-probe state: the dense accumulator
// plus the scatter-side buffers (token dedup, per-shard token groups, resolved refs, and the
// pruning pre-pass's shard ordering).
type shardedScratch struct {
	acc       accumulator
	seen      map[string]bool
	refs      []termRef
	groups    [][]string
	shardRefs [][]termRef
	order     []int     // shards with refs, sorted by descending bound
	bounds    []float64 // per entry of order: shard score upper bound
}

func (ss *ShardedSearcher) getScratch() *shardedScratch {
	sc, _ := ss.pool.Get().(*shardedScratch)
	if sc == nil {
		sc = &shardedScratch{}
	}
	a := &sc.acc
	if len(a.score) < ss.numDocs {
		a.score = make([]float64, ss.numDocs)
		a.gen = make([]uint32, ss.numDocs)
		a.cur = 0
	}
	a.nextGen()
	if sc.seen == nil {
		sc.seen = make(map[string]bool, 16)
	}
	clear(sc.seen)
	if len(sc.groups) != ss.shardCount {
		sc.groups = make([][]string, ss.shardCount)
		sc.shardRefs = make([][]termRef, ss.shardCount)
	}
	return sc
}

// prefetchSink defeats dead-code elimination of the page-prefault loads.
var prefetchSink atomic.Uint64

// resolve is the per-shard scatter step: look up each token in the shard's
// term table and, when prefault is set, touch its posting pages (one load
// per 4KiB) so cold pages of different shards fault in concurrently
// instead of serially inside the gather loop. The pruning pre-pass
// resolves first and prefaults only the shards that survive.
func (sh *shard) resolve(toks []string, out []termRef, prefault bool) []termRef {
	start := len(out)
	for _, tok := range toks {
		if tid, ok := sh.lookup(tok); ok {
			r := termRef{tok: tok, sh: sh, tid: tid}
			r.fill()
			out = append(out, r)
		}
	}
	if prefault {
		sh.prefault(out[start:])
	}
	return out
}

// prefault touches the posting pages of already-resolved refs.
func (sh *shard) prefault(refs []termRef) {
	var touch uint64
	for _, r := range refs {
		for f := 0; f < int(numFields); f++ {
			lo, hi := sh.off[f][r.tid], sh.off[f][r.tid+1]
			for p := lo; p < hi; p += 1024 { // 1024 int32s per 4KiB page
				touch += uint64(sh.docs[f][p]) + uint64(math.Float32bits(sh.wts[f][p]))
			}
			if hi > lo {
				touch += uint64(sh.docs[f][hi-1])
			}
		}
	}
	if touch != 0 {
		prefetchSink.Add(touch)
	}
}

// passAShardCap bounds how many shards the floor-seeding pre-pass scores:
// on a skewed corpus the top-bound shard alone sets a floor that prunes
// the rest, and on a uniform corpus scanning more shards twice would cost
// more than the pruning saves.
const passAShardCap = 2

// passASkewFactor is the bound-skew threshold arming the pre-pass: the
// top shard's score bound must exceed the weakest involved shard's by this
// factor before the double scan of the top shards can plausibly pay for
// itself in pruned prefaults and closed blocks.
const passASkewFactor = 4

// Search scores a union-of-keywords query exactly like Index.Search and
// returns the top k hits (all hits when k <= 0), sorted by score then ID —
// bit-identical at every shard count.
func (ss *ShardedSearcher) Search(tokens []string, k int) []Hit {
	hits, _ := ss.SearchStats(tokens, k)
	return hits
}

// SearchStats is Search plus the probe's skip and shard-pruning counters.
//
// The scatter phase resolves each involved shard's terms concurrently.
// When every shard carries block summaries and k > 0, a floor-seeding
// pre-pass then scores the highest-bound shard(s) into a throwaway
// accumulator generation: shards whose score upper bound cannot beat the
// resulting floor are pruned — never prefaulted — while the survivors
// prefault their posting pages concurrently. The main gather accumulates
// every resolved term (pruned shards included: their terms still
// contribute to documents shared with other shards) in canonical
// lexicographic order with the threshold preseeded to the floor, so
// pruned shards' lists open as closed blocks and are mostly skipped.
func (ss *ShardedSearcher) SearchStats(tokens []string, k int) ([]Hit, ProbeStats) {
	var st ProbeStats
	if len(tokens) == 0 || ss.numDocs == 0 {
		return nil, st
	}
	sc := ss.getScratch()
	defer ss.pool.Put(sc)

	// Group unique tokens by home shard (the scatter input).
	active := 0
	for i := range sc.groups {
		sc.groups[i] = sc.groups[i][:0]
		sc.shardRefs[i] = sc.shardRefs[i][:0]
	}
	for _, tok := range tokens {
		if sc.seen[tok] {
			continue
		}
		sc.seen[tok] = true
		g := shardOfToken(tok, ss.shardCount)
		if len(sc.groups[g]) == 0 {
			active++
		}
		sc.groups[g] = append(sc.groups[g], tok)
	}

	// The pre-pass needs block summaries everywhere: without them the main
	// gather would rescan pruned shards' postings in full and the pre-pass
	// would be pure overhead. v1 indexes scatter exactly as before.
	pruning := k > 0 && active > 1
	for g := range sc.groups {
		if len(sc.groups[g]) > 0 && !ss.shards[g].hasBlocks() {
			pruning = false
			break
		}
	}

	// Scatter. With a pruning pre-pass ahead, resolution is lookup-only (a
	// few binary searches per shard) — run it serially rather than pay a
	// goroutine wave; the page prefaulting that justifies fan-out happens
	// after the prune decision, for surviving shards only. Without the
	// pre-pass, resolve and prefault each involved shard concurrently as
	// before. Every goroutine writes only its own shardRefs slot.
	if active > 1 && !pruning {
		var wg sync.WaitGroup
		for g := range sc.groups {
			if len(sc.groups[g]) == 0 {
				continue
			}
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				sc.shardRefs[g] = ss.shards[g].resolve(sc.groups[g], sc.shardRefs[g], true)
			}(g)
		}
		wg.Wait()
	} else {
		for g := range sc.groups {
			if len(sc.groups[g]) > 0 {
				sc.shardRefs[g] = ss.shards[g].resolve(sc.groups[g], sc.shardRefs[g], !pruning)
			}
		}
	}

	floor := math.Inf(-1)
	if pruning {
		floor = ss.passA(sc, k, &st)
	} else {
		for g := range sc.groups {
			if len(sc.groups[g]) > 0 {
				st.ShardsProbed++
			}
		}
	}

	refs := sc.refs[:0]
	for _, rs := range sc.shardRefs {
		refs = append(refs, rs...)
	}
	sc.refs = refs
	if len(refs) == 0 {
		return nil, st
	}
	// Gather in canonical term order — df ascending, token ascending on
	// ties, exactly the order the reference scorer accumulates in, so
	// per-document float64 sums are bit-identical. Rarest-first also puts
	// the selective terms ahead of the long lists, so the top-k floor
	// forms before the block walk reaches the blocks worth skipping.
	sortRefs(refs)
	gather(&sc.acc, refs, k, floor, &st)
	return ss.collect(&sc.acc, k), st
}

// passA is the floor-seeding pre-pass: rank shards by their score upper
// bound (the sum of their resolved terms' max-scores), score the top
// shard(s) into a throwaway accumulator generation, and prune the scatter
// of every shard whose bound cannot beat the established floor. Pruning is
// a prefault decision only — the main gather still sees every resolved
// term — so a too-aggressive floor can cost speed, never correctness. The
// returned floor is a valid lower bound on the kth-best final score: it is
// the kth-largest sum of real (partial) contributions. Shards neither
// scanned nor pruned prefault concurrently before this returns.
func (ss *ShardedSearcher) passA(sc *shardedScratch, k int, st *ProbeStats) float64 {
	sc.order = sc.order[:0]
	sc.bounds = sc.bounds[:0]
	for g := range sc.shardRefs {
		if len(sc.shardRefs[g]) == 0 {
			continue
		}
		b := 0.0
		for _, r := range sc.shardRefs[g] {
			b += r.maxS
		}
		sc.order = append(sc.order, g)
		sc.bounds = append(sc.bounds, b)
	}
	sort.Sort(&shardsByBound{sc.order, sc.bounds})

	floor := math.Inf(-1)
	acc := &sc.acc
	scanned := 0
	prunedFrom := len(sc.order)
	// Bound-skew gate: the pre-pass rescans its top shards, so it only pays
	// when the bound profile is skewed — a floor built from the top shard's
	// real scores has to plausibly beat the weakest shard's bound. On a flat
	// profile (every shard could reach comparable scores) no floor can prune
	// anything, and the pre-pass would be pure double work: fall through to
	// an ordinary prefault of every involved shard.
	if n := len(sc.order); n > 1 && sc.bounds[0] > passASkewFactor*sc.bounds[n-1] {
		var subStats ProbeStats // pre-pass work is not part of Postings totals
		for idx, g := range sc.order {
			if floor > sc.bounds[idx]+1e-9 {
				// Neither this shard nor any lower-bound one can lift a new
				// document into the top k on its own: skip their prefault.
				prunedFrom = idx
				break
			}
			if scanned >= passAShardCap {
				continue // bound not beaten, but pre-pass budget spent
			}
			scanned++
			rs := sc.shardRefs[g]
			sortRefs(rs)
			gather(acc, rs, k, floor, &subStats)
			if len(acc.touched) >= k {
				if t := acc.kthLargest(k); t > floor {
					floor = t
				}
			}
		}
		st.Scanned += subStats.Scanned
		st.BlocksTotal += subStats.BlocksTotal
		st.BlocksSkipped += subStats.BlocksSkipped
	}
	st.ShardsPruned = len(sc.order) - prunedFrom
	st.ShardsProbed = prunedFrom

	// Prune the tail; prefault the surviving shards the pre-pass did not
	// already warm, concurrently as the plain scatter would have.
	for _, g := range sc.order[prunedFrom:] {
		ss.shardPruned[g].Add(1)
	}
	survivors := sc.order[:prunedFrom]
	need := 0
	for idx := range survivors {
		if idx >= scanned {
			need++
		}
	}
	if need == 1 {
		// One cold shard: faulting it from this goroutine is cheaper than
		// spawning one.
		for idx, g := range survivors {
			if idx >= scanned {
				ss.shards[g].prefault(sc.shardRefs[g])
			}
		}
	} else if need > 1 {
		var wg sync.WaitGroup
		for idx, g := range survivors {
			if idx < scanned {
				continue // pre-pass scan already faulted these pages in
			}
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				ss.shards[g].prefault(sc.shardRefs[g])
			}(g)
		}
		wg.Wait()
	}

	// Fresh generation for the canonical main gather; the pre-pass floor
	// carries over as the preseeded admission threshold.
	acc.nextGen()
	return floor
}

// sortRefs puts resolved term refs into the canonical accumulation order:
// df ascending, token ascending on ties (the same order the reference
// scorer uses — per-document float64 sums depend on it).
func sortRefs(refs []termRef) {
	slices.SortFunc(refs, func(a, b termRef) int {
		if a.df != b.df {
			return int(a.df - b.df)
		}
		return strings.Compare(a.tok, b.tok)
	})
}

// shardsByBound sorts shard indices by descending bound, shard index
// ascending on ties — a deterministic pre-pass order.
type shardsByBound struct {
	order  []int
	bounds []float64
}

func (s *shardsByBound) Len() int { return len(s.order) }
func (s *shardsByBound) Less(i, j int) bool {
	if s.bounds[i] != s.bounds[j] {
		return s.bounds[i] > s.bounds[j]
	}
	return s.order[i] < s.order[j]
}
func (s *shardsByBound) Swap(i, j int) {
	s.order[i], s.order[j] = s.order[j], s.order[i]
	s.bounds[i], s.bounds[j] = s.bounds[j], s.bounds[i]
}

// ShardPruneCounts returns, per shard, how many probes pruned that shard's
// scatter since the searcher was opened.
func (ss *ShardedSearcher) ShardPruneCounts() []uint64 {
	out := make([]uint64, len(ss.shardPruned))
	for i := range ss.shardPruned {
		out[i] = ss.shardPruned[i].Load()
	}
	return out
}

// worseDoc reports whether doc a ranks strictly below doc b (lower score,
// or equal score and lexicographically larger table ID) — the inverse of
// the hit ordering.
func (ss *ShardedSearcher) worseDoc(acc *accumulator, a, b int32) bool {
	sa, sb := acc.score[a], acc.score[b]
	if sa != sb {
		return sa < sb
	}
	return ss.IDOf(a) > ss.IDOf(b)
}

// collect selects the top k touched docs (all when k <= 0) and
// materializes sorted hits.
func (ss *ShardedSearcher) collect(acc *accumulator, k int) []Hit {
	if len(acc.touched) == 0 {
		return nil
	}
	winners := acc.touched
	if k > 0 {
		winners = topKSelect(acc.touched, k, func(a, b int32) bool { return ss.worseDoc(acc, a, b) })
	}
	hits := make([]Hit, len(winners))
	for i, d := range winners {
		hits[i] = Hit{ID: ss.IDOf(d), Score: acc.score[d]}
	}
	slices.SortFunc(hits, cmpHits)
	return hits
}

// termDocs returns the sorted doc set holding term ti in any of the given
// fields: the union of its per-field posting ranges, freshly allocated.
func (sh *shard) termDocs(ti int32, fields []Field) []int32 {
	var lists [int(numFields)][]int32
	var used [int(numFields)]bool
	n := 0
	for _, f := range fields {
		if used[f] {
			continue
		}
		used[f] = true
		lo, hi := sh.off[f][ti], sh.off[f][ti+1]
		if lo < hi {
			lists[n] = sh.docs[f][lo:hi]
			n++
		}
	}
	return mergeSortedDocLists(lists[:n])
}

// DocsWithToken returns the sorted doc set containing tok in any of the
// given fields — equivalent to Index.DocsWithToken. A term's postings
// live wholly in its home shard, and doc numbers are global, so no
// cross-shard merge is needed.
func (ss *ShardedSearcher) DocsWithToken(tok string, fields ...Field) []int32 {
	if ss.numDocs == 0 {
		return nil
	}
	sh := ss.shards[shardOfToken(tok, ss.shardCount)]
	ti, ok := sh.lookup(tok)
	if !ok {
		return nil
	}
	return sh.termDocs(ti, fields)
}

// DocSet returns the sorted set of documents containing all tokens, each
// in at least one of the given fields — equivalent to Index.DocSet. The
// result is freshly allocated and safe to retain. Tokens resolve to their
// home shards; the intersection runs over global doc numbers, rarest term
// first with lexicographic tie-breaks, which keeps intermediate
// intersections small.
func (ss *ShardedSearcher) DocSet(tokens []string, fields ...Field) []int32 {
	if ss.numDocs == 0 {
		return nil
	}
	refs := make([]termRef, 0, len(tokens))
	seen := make(map[string]bool, len(tokens))
	for _, tok := range tokens {
		if seen[tok] {
			continue
		}
		seen[tok] = true
		sh := ss.shards[shardOfToken(tok, ss.shardCount)]
		ti, ok := sh.lookup(tok)
		if !ok {
			return nil // a token absent from the corpus empties the set
		}
		refs = append(refs, termRef{tok: tok, sh: sh, tid: ti})
	}
	if len(refs) == 0 {
		return nil
	}
	slices.SortFunc(refs, func(a, b termRef) int {
		if a.sh.df[a.tid] != b.sh.df[b.tid] {
			return cmp.Compare(a.sh.df[a.tid], b.sh.df[b.tid])
		}
		return cmp.Compare(a.tok, b.tok)
	})
	set := refs[0].sh.termDocs(refs[0].tid, fields)
	for _, r := range refs[1:] {
		if len(set) == 0 {
			return nil
		}
		set = intersectSorted(set, r.sh.termDocs(r.tid, fields))
	}
	return set
}
