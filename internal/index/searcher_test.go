package index

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"wwt/internal/wtable"
)

// buildRandCorpus returns an index plus its tables over the shared random
// table generator.
func buildRandCorpus(t *testing.T, seed int64, n int) (*Index, []*wtable.Table) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	tables := make([]*wtable.Table, n)
	for i := range tables {
		tables[i] = randDocTable(r, i)
	}
	ix, err := Build(tables)
	if err != nil {
		t.Fatal(err)
	}
	return ix, tables
}

func randQuery(r *rand.Rand) []string {
	q := make([]string, 1+r.Intn(6))
	for i := range q {
		q[i] = propWords[r.Intn(len(propWords))]
	}
	if r.Intn(3) == 0 {
		q = append(q, "unknownword") // absent from every table
	}
	if r.Intn(3) == 0 && len(q) > 1 {
		q = append(q, q[0]) // duplicate token
	}
	return q
}

func sameHits(t *testing.T, want, got []Hit, ctx string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: hit count %d != %d (want %v, got %v)", ctx, len(got), len(want), want, got)
	}
	for i := range want {
		if want[i].ID != got[i].ID {
			t.Fatalf("%s: hit %d ID %q != %q", ctx, i, got[i].ID, want[i].ID)
		}
		if math.Abs(want[i].Score-got[i].Score) > 1e-9 {
			t.Fatalf("%s: hit %d score %v != %v", ctx, i, got[i].Score, want[i].Score)
		}
	}
}

// The searcher tests share one body per property, run over a table of
// shard counts: the Test* entry point runs the frozen in-memory one-shard
// layout every engine probes, the TestSharded* one runs the multi-shard
// counts that exercise term-hash partitioning and the floor-seeding shard
// prune.
var (
	frozenShardCounts  = []int{1}
	shardedShardCounts = []int{2, 3, 8}
)

// TestSearcherEquivalence: at every shard count and construction path the
// searcher must return the exact hit sets, order and scores (within 1e-9)
// of the map-based scorer, for every k including the unbounded and
// over-bounded cases — and every path must be bit-identical (IDs, float64
// score bits, order) to the frozen one-shard searcher NewSearcher builds.
func TestSearcherEquivalence(t *testing.T) { testSearcherEquivalence(t, frozenShardCounts) }

func TestShardedSearcherEquivalence(t *testing.T) {
	testSearcherEquivalence(t, shardedShardCounts)
}

func testSearcherEquivalence(t *testing.T, shardCounts []int) {
	for _, n := range shardCounts {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			for _, seed := range []int64{1, 3, 7, 42, 2012, 99991} {
				ix, _ := buildRandCorpus(t, seed, 2+rand.New(rand.NewSource(seed)).Intn(60))
				s := NewSearcher(ix)
				variants := shardedVariants(t, s, n)
				for name, ss := range variants {
					if ss.Shards() != n {
						t.Fatalf("%s: Shards() = %d, want %d", name, ss.Shards(), n)
					}
					if ss.Len() != ix.Len() {
						t.Fatalf("%s: Len() = %d, want %d", name, ss.Len(), ix.Len())
					}
				}
				r := rand.New(rand.NewSource(seed + 1))
				for qi := 0; qi < 50; qi++ {
					q := randQuery(r)
					for _, k := range []int{0, 1, 2, 3, 5, 17, 1000} {
						want := s.Search(q, k)
						sameHits(t, ix.Search(q, k), want, "frozen search")
						for name, ss := range variants {
							sameHitsBitIdentical(t, want, ss.Search(q, k), name)
						}
					}
				}
			}
		})
	}
}

// TestSearcherSkipWithExactlyKTouched: regression for the max-score skip
// threshold, replayed at every shard count. When the first term touches
// exactly k documents, kthLargest hands topKSelect a slice with k == len,
// which topKSelect returns unheapified — so [0] used to be an arbitrary
// (often the largest) partial score. The inflated threshold tripped the
// skip and documents brought in by later terms were never registered,
// even though they belong in the final top k.
func TestSearcherSkipWithExactlyKTouched(t *testing.T) {
	testSkipWithExactlyKTouched(t, frozenShardCounts)
}

func TestShardedSearcherSkipWithExactlyKTouched(t *testing.T) {
	testSkipWithExactlyKTouched(t, shardedShardCounts)
}

func testSkipWithExactlyKTouched(t *testing.T, shardCounts []int) {
	row := func(cells ...string) wtable.Row {
		r := wtable.Row{}
		for _, c := range cells {
			r.Cells = append(r.Cells, wtable.Cell{Text: c})
		}
		return r
	}
	// "aaa" touches exactly k=2 docs: t0 strongly (boosted header match)
	// and t1 weakly. "bbb" touches only t2, whose score lands strictly
	// between t0's and t1's, so the true top 2 is {t0, t2}. With the
	// inflated threshold (t0's partial score > maxScore["bbb"]) the skip
	// fired during "bbb" and t2 was dropped in favor of t1.
	tables := []*wtable.Table{
		{ID: "t0", HeaderRows: []wtable.Row{row("aaa")}, BodyRows: []wtable.Row{row("xxx")}},
		{ID: "t1", BodyRows: []wtable.Row{row("aaa")}},
		{ID: "t2", BodyRows: []wtable.Row{row("bbb")}},
	}
	ix, err := Build(tables)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSearcher(ix)
	q := []string{"aaa", "bbb"}
	want := s.Search(q, 2)
	sameHits(t, ix.Search(q, 2), want, "exactly-k skip")
	for _, n := range shardCounts {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			variants := shardedVariants(t, s, n)
			variants["frozen"] = s
			for name, ss := range variants {
				got := ss.Search(q, 2)
				sameHitsBitIdentical(t, want, got, name)
				ids := map[string]bool{}
				for _, h := range got {
					ids[h.ID] = true
				}
				if !ids["t0"] || !ids["t2"] {
					t.Fatalf("%s: top-2 = %v, want t0 and t2 (t2 arrives after the skip threshold is set)", name, got)
				}
			}
		})
	}
}

// TestSearcherDocSetEquivalence: DocsWithToken, DocSet and IDF must match
// the index across field combinations, at every shard count and
// construction path.
func TestSearcherDocSetEquivalence(t *testing.T) {
	testDocSetEquivalence(t, frozenShardCounts)
}

func TestShardedDocSetEquivalence(t *testing.T) { testDocSetEquivalence(t, shardedShardCounts) }

func testDocSetEquivalence(t *testing.T, shardCounts []int) {
	ix, _ := buildRandCorpus(t, 4242, 40)
	s := NewSearcher(ix)
	fieldSets := [][]Field{
		{FieldHeader}, {FieldContext}, {FieldContent},
		{FieldHeader, FieldContext}, {FieldHeader, FieldContext, FieldContent},
	}
	for _, n := range shardCounts {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			variants := shardedVariants(t, s, n)
			variants["frozen"] = s
			for name, ss := range variants {
				r := rand.New(rand.NewSource(17))
				for i := 0; i < 100; i++ {
					toks := randQuery(r)
					for _, fs := range fieldSets {
						want := ix.DocSet(toks, fs...)
						got := ss.DocSet(toks, fs...)
						if len(want) == 0 && len(got) == 0 {
							continue
						}
						if !reflect.DeepEqual(want, got) {
							t.Fatalf("%s: DocSet(%v, %v) = %v, want %v", name, toks, fs, got, want)
						}
					}
					tok := propWords[r.Intn(len(propWords))]
					for _, fs := range fieldSets {
						want := ix.DocsWithToken(tok, fs...)
						got := ss.DocsWithToken(tok, fs...)
						if len(want) == 0 && len(got) == 0 {
							continue
						}
						if !reflect.DeepEqual(want, got) {
							t.Fatalf("%s: DocsWithToken(%q, %v) = %v, want %v", name, tok, fs, got, want)
						}
					}
					if got, want := ss.IDF(tok), ix.IDF(tok); got != want {
						t.Fatalf("%s: IDF(%q) = %v, want %v", name, tok, got, want)
					}
					if got, want := ss.IDF("unknownword"), ix.IDF("unknownword"); got != want {
						t.Fatalf("%s: unknown-token IDF = %v, want %v", name, got, want)
					}
				}
			}
		})
	}
}

// TestSearcherConcurrent: one searcher must serve goroutines concurrently
// (run under -race) — the frozen in-memory one-shard searcher and an
// mmap-opened 4-shard one, whose scatter goroutines cross shard
// boundaries — matching the map-based scorer and, bit for bit, the
// frozen searcher.
func TestSearcherConcurrent(t *testing.T) { testSearcherConcurrent(t, 1) }

func TestShardedSearcherConcurrent(t *testing.T) { testSearcherConcurrent(t, 4) }

func testSearcherConcurrent(t *testing.T, shardCounts ...int) {
	ix, _ := buildRandCorpus(t, 777, 50)
	s := NewSearcher(ix)
	for _, n := range shardCounts {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			ss := s
			if n > 1 {
				dir := t.TempDir()
				if err := WriteSharded(dir, s, n); err != nil {
					t.Fatal(err)
				}
				var err error
				if ss, err = OpenSharded(dir); err != nil {
					t.Fatal(err)
				}
				defer ss.Close()
			}
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					r := rand.New(rand.NewSource(int64(g)))
					for i := 0; i < 200; i++ {
						q := randQuery(r)
						ref := ix.Search(q, 7)
						want := s.Search(q, 7)
						got := ss.Search(q, 7)
						if len(ref) != len(got) || len(want) != len(got) {
							t.Errorf("goroutine %d: %d hits, want %d", g, len(got), len(ref))
							return
						}
						for j := range want {
							if ref[j].ID != got[j].ID || math.Abs(ref[j].Score-got[j].Score) > 1e-9 ||
								want[j].ID != got[j].ID || want[j].Score != got[j].Score {
								t.Errorf("goroutine %d: hit %d mismatch", g, j)
								return
							}
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

// TestDocSetCache: at one partition (an in-memory engine's layout) and at
// four (a 4-shard engine's), cached results equal uncached ones, repeats
// hit, keys are canonicalized, per-partition counters sum to the
// aggregate, and the LRU respects its capacity.
func TestDocSetCache(t *testing.T) {
	testDocSetCache(t, docSetCacheCase{parts: 1, capacity: 4, bound: 4})
}

func TestShardedDocSetCache(t *testing.T) {
	testDocSetCache(t, docSetCacheCase{parts: 4, capacity: 0, bound: DefaultDocSetCacheSize})
}

type docSetCacheCase struct{ parts, capacity, bound int }

func testDocSetCache(t *testing.T, cases ...docSetCacheCase) {
	ix, _ := buildRandCorpus(t, 11, 30)
	s := NewSearcher(ix)
	for _, tc := range cases {
		t.Run(fmt.Sprintf("parts=%d", tc.parts), func(t *testing.T) {
			src := DocSetSource(s)
			if tc.parts > 1 {
				src = NewShardedFromSearcher(s, tc.parts)
			}
			c := NewDocSetCache(src, tc.parts, tc.capacity)
			r := rand.New(rand.NewSource(3))
			for i := 0; i < 50; i++ {
				toks := randQuery(r)
				want := ix.DocSet(toks, FieldHeader, FieldContext)
				got := c.DocSet(toks, FieldHeader, FieldContext)
				if len(want) != 0 || len(got) != 0 {
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("cached DocSet(%v) = %v, want %v", toks, got, want)
					}
				}
				if c.Len() > tc.bound {
					t.Fatalf("cache exceeded capacity: %d > %d", c.Len(), tc.bound)
				}
			}
			if c.Len() == 0 {
				t.Fatal("cache is empty after 50 probes")
			}
			hits, misses := c.Stats()
			per := c.PartitionStats()
			if len(per) != tc.parts {
				t.Fatalf("PartitionStats has %d partitions, want %d", len(per), tc.parts)
			}
			var sh, sm uint64
			for _, st := range per {
				sh += st.Hits
				sm += st.Misses
			}
			if sh != hits || sm != misses {
				t.Fatalf("per-partition counters sum to %d/%d, aggregate says %d/%d", sh, sm, hits, misses)
			}

			c2 := NewDocSetCache(src, tc.parts, 0) // default capacity
			toks := []string{propWords[0], propWords[1]}
			first := c2.DocSet(toks, FieldContent)
			second := c2.DocSet(toks, FieldContent)
			if !reflect.DeepEqual(first, second) {
				t.Fatalf("repeat lookup differs")
			}
			if hits, misses := c2.Stats(); hits != 1 || misses != 1 {
				t.Fatalf("stats = %d hits / %d misses, want 1/1", hits, misses)
			}
			// Token order and duplicates must not change the key.
			third := c2.DocSet([]string{propWords[1], propWords[0], propWords[0]}, FieldContent)
			if h, _ := c2.Stats(); h != 2 {
				t.Fatalf("canonicalized key missed the cache (hits=%d)", h)
			}
			if !reflect.DeepEqual(first, third) {
				t.Fatalf("canonicalized repeat lookup differs")
			}
		})
	}
}
