package index

import (
	"math"
	"slices"
	"sort"
	"sync/atomic"
)

// postingWeight is the per-posting score weight shared by the map-based
// scorer and the frozen searcher: boost_f · (1+ln tf) / √len_f(d), rounded
// to float32 (the searcher's storage precision) so both paths score
// identically.
func postingWeight(f int, tf, fieldLen float32) float32 {
	l := float64(fieldLen)
	if l < 1 {
		l = 1
	}
	return float32(Boosts[f] * (1 + math.Log(float64(tf))) / math.Sqrt(l))
}

// NewSearcher freezes an index into its flat search form: a one-shard,
// heap-resident ShardedSearcher. Postings are laid out CSR-style — for
// every (term, field) pair a contiguous range over flat doc/weight arrays,
// with the length-normalized boosted weight (1+ln tf)·boost_f/√len_f(d)
// precomputed — so a probe is a pure gather-multiply-accumulate over idf
// (gather.go). The index must not be mutated afterwards (the searcher
// shares its ids slice).
func NewSearcher(ix *Index) *ShardedSearcher {
	terms := make([]string, 0, len(ix.df))
	for tok := range ix.df {
		terms = append(terms, tok)
	}
	sort.Strings(terms)

	sh := &shard{
		numTerms: len(terms),
		names:    terms,
		idf:      make([]float64, len(terms)),
		maxScore: make([]float64, len(terms)),
		bestW:    make([]float64, len(terms)),
		df:       make([]int32, len(terms)),
	}
	for ti, tok := range terms {
		sh.idf[ti] = ix.IDF(tok)
		sh.df[ti] = int32(ix.df[tok])
	}
	for f := 0; f < int(numFields); f++ {
		total := 0
		for _, ps := range ix.postings[f] {
			total += len(ps)
		}
		sh.off[f] = make([]int32, len(terms)+1)
		sh.docs[f] = make([]int32, 0, total)
		sh.wts[f] = make([]float32, 0, total)
		for ti, tok := range terms {
			sh.off[f][ti] = int32(len(sh.docs[f]))
			for _, p := range ix.postings[f][tok] {
				sh.docs[f] = append(sh.docs[f], p.Doc)
				sh.wts[f] = append(sh.wts[f], postingWeight(f, p.TF, ix.fieldLen[f][p.Doc]))
			}
		}
		sh.off[f][len(terms)] = int32(len(sh.docs[f]))
	}
	// maxScore[t] bounds the contribution of term t to any single document:
	// a doc matching t in several fields accumulates the SUM of its
	// per-field weights, so the bound is the max per-doc cross-field sum,
	// found with a 3-way merge over the term's doc-sorted ranges.
	for ti := range terms {
		var pos, hi [numFields]int32
		for f := 0; f < int(numFields); f++ {
			pos[f], hi[f] = sh.off[f][ti], sh.off[f][ti+1]
		}
		best := 0.0
		for {
			min := int32(math.MaxInt32)
			for f := 0; f < int(numFields); f++ {
				if pos[f] < hi[f] && sh.docs[f][pos[f]] < min {
					min = sh.docs[f][pos[f]]
				}
			}
			if min == math.MaxInt32 {
				break
			}
			sum := 0.0
			for f := 0; f < int(numFields); f++ {
				if pos[f] < hi[f] && sh.docs[f][pos[f]] == min {
					sum += float64(sh.wts[f][pos[f]])
					pos[f]++
				}
			}
			if sum > best {
				best = sum
			}
		}
		sh.bestW[ti] = best
		sh.maxScore[ti] = sh.idf[ti] * best
	}
	sh.computeBlocks(DefaultBlockSize)
	return &ShardedSearcher{
		numDocs:     len(ix.ids),
		shardCount:  1,
		ids:         ix.ids,
		shards:      []*shard{sh},
		shardPruned: make([]atomic.Uint64, 1),
	}
}

// accumulator is the per-query scratch of a search: a dense score array
// whose entries are valid only when their generation tag matches cur, the
// list of touched docs, reusable heap scratch for threshold and top-k
// selection, and the per-position admission bounds. live/merged maintain
// the sorted list of unfrozen candidates that whole-block skips check
// against (gather.go).
type accumulator struct {
	score   []float64
	gen     []uint32
	cur     uint32
	touched []int32
	scratch []float64 // reusable buffer for the skip-threshold selection
	suffix  []float64 // per-position admission bound

	liveBits  []uint64 // bit per doc: unfrozen candidate (whole-block skip test)
	merged    int      // touched entries already folded into liveBits
	liveBuilt bool     // liveBits materialized (first closed block encountered)
}

// kthLargest returns the kth largest score among touched docs (k <=
// len(touched)) by top-k selection over the reusable scratch slice.
func (a *accumulator) kthLargest(k int) float64 {
	a.scratch = a.scratch[:0]
	for _, d := range a.touched {
		a.scratch = append(a.scratch, a.score[d])
	}
	if k >= len(a.scratch) {
		// topKSelect returns the slice unheapified in this case, so its
		// [0] would be arbitrary; the kth largest of k items is the min.
		return slices.Min(a.scratch)
	}
	// Worst-first heap of the k largest: the root is the kth largest.
	return topKSelect(a.scratch, k, func(x, y float64) bool { return x < y })[0]
}

// mergeSortedDocLists k-way merges up to numFields sorted doc lists into a
// fresh deduplicated sorted slice.
func mergeSortedDocLists(lists [][]int32) []int32 {
	switch len(lists) {
	case 0:
		return nil
	case 1:
		out := make([]int32, len(lists[0]))
		copy(out, lists[0])
		return out
	}
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	out := make([]int32, 0, total)
	pos := make([]int, len(lists))
	for {
		min := int32(math.MaxInt32)
		found := false
		for li, l := range lists {
			if pos[li] < len(l) && l[pos[li]] < min {
				min = l[pos[li]]
				found = true
			}
		}
		if !found {
			return out
		}
		for li, l := range lists {
			if pos[li] < len(l) && l[pos[li]] == min {
				pos[li]++
			}
		}
		out = append(out, min)
	}
}
