package index

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"wwt/internal/wtable"
)

// benchCorpusSize keeps open-time benchmarks meaningful without slowing
// the suite.
const benchCorpusSize = 1500

func benchSearcher(b *testing.B) *ShardedSearcher {
	b.Helper()
	r := rand.New(rand.NewSource(2012))
	tables := make([]*wtable.Table, benchCorpusSize)
	for i := range tables {
		tables[i] = randDocTable(r, i)
	}
	ix, err := Build(tables)
	if err != nil {
		b.Fatal(err)
	}
	return NewSearcher(ix)
}

// BenchmarkOpenIndexMmap measures the flat path: page-map the files and
// validate headers, O(1) in corpus size.
func BenchmarkOpenIndexMmap(b *testing.B) {
	s := benchSearcher(b)
	dir := b.TempDir()
	if err := WriteSharded(dir, s, 2); err != nil {
		b.Fatal(err)
	}
	if st, err := os.Stat(filepath.Join(dir, DocsFileName)); err == nil {
		b.SetBytes(st.Size())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ss, err := OpenSharded(dir)
		if err != nil {
			b.Fatal(err)
		}
		ss.Close()
	}
}

// BenchmarkShardedSearch probes an mmap-opened index at each shard count
// of the CHANGES.md trajectory (1, 2, 4, 8).
func BenchmarkShardedSearch(b *testing.B) {
	s := benchSearcher(b)
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			if err := WriteSharded(dir, s, n); err != nil {
				b.Fatal(err)
			}
			ss, err := OpenSharded(dir)
			if err != nil {
				b.Fatal(err)
			}
			defer ss.Close()
			r := rand.New(rand.NewSource(7))
			queries := make([][]string, 64)
			for i := range queries {
				queries[i] = randQuery(r)
			}
			ss.Search(queries[0], 10) // fault in before timing
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ss.Search(queries[i%len(queries)], 10)
			}
		})
	}
}

// BenchmarkSingleShardSearch is the frozen in-memory baseline over the
// same corpus and query mix as BenchmarkShardedSearch.
func BenchmarkSingleShardSearch(b *testing.B) {
	s := benchSearcher(b)
	r := rand.New(rand.NewSource(7))
	queries := make([][]string, 64)
	for i := range queries {
		queries[i] = randQuery(r)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Search(queries[i%len(queries)], 10)
	}
}

// BenchmarkDocSetCacheWarmHit pins the warm-hit path at one alloc/op (the
// canonical key string); the assertion lives in
// TestDocSetCacheWarmHitAllocs, this reports the trajectory numbers.
func BenchmarkDocSetCacheWarmHit(b *testing.B) {
	s := benchSearcher(b)
	c := NewDocSetCache(s, 1, 0)
	toks := []string{propWords[3], propWords[1], propWords[1], propWords[0]}
	c.DocSet(toks, FieldHeader, FieldContext)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.DocSet(toks, FieldHeader, FieldContext)
	}
}
