package index

import (
	"errors"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"wwt/internal/wtable"
)

// splitTables partitions tables into nSeg contiguous non-empty chunks with
// deterministically uneven sizes — segment boundaries land mid-posting-list
// so the cross-segment stat union is actually exercised.
func splitTables(tables []*wtable.Table, nSeg int, seed int64) [][]*wtable.Table {
	if nSeg > len(tables) {
		nSeg = len(tables)
	}
	r := rand.New(rand.NewSource(seed))
	cuts := map[int]bool{0: true}
	for len(cuts) < nSeg {
		cuts[r.Intn(len(tables))] = true
	}
	var chunks [][]*wtable.Table
	start := -1
	for i := 0; i <= len(tables); i++ {
		if i == len(tables) || cuts[i] {
			if start >= 0 {
				chunks = append(chunks, tables[start:i])
			}
			start = i
		}
	}
	return chunks
}

// multiVariants freezes the chunks as one segment each (format version fv)
// and opens them as a MultiSearcher both memory-mapped and read-into-
// memory, plus a pure in-memory construction over per-chunk searchers.
func multiVariants(t *testing.T, chunks [][]*wtable.Table, fv int) map[string]*MultiSearcher {
	t.Helper()
	dirs := make([]string, len(chunks))
	searchers := make([]*ShardedSearcher, len(chunks))
	for i, chunk := range chunks {
		w := NewSegmentWriter()
		for _, tb := range chunk {
			if err := w.Add(tb); err != nil {
				t.Fatal(err)
			}
		}
		dirs[i] = t.TempDir()
		if err := w.Flush(dirs[i], WriteShardedOptions{FormatVersion: fv}); err != nil {
			t.Fatal(err)
		}
		ix, err := Build(chunk)
		if err != nil {
			t.Fatal(err)
		}
		searchers[i] = NewSearcher(ix)
	}
	mm, err := OpenMulti(dirs)
	if err != nil {
		t.Fatal(err)
	}
	if !mm.Mmapped() {
		t.Fatal("OpenMulti did not map the segment files")
	}
	rd, err := openMulti(dirs, true)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mm.Close(); rd.Close() })
	return map[string]*MultiSearcher{
		"memory": NewMultiFromSearchers(searchers),
		"mmap":   mm,
		"nommap": rd,
	}
}

// TestMultiSearcherEquivalence: top-k over K segments must be bit-identical
// (IDs, float64 score bits, order) to a single index rebuilt over the whole
// corpus, for every segment count, format version and open path. The
// per-term stats a multi probe carries (corpus-global df/idf/bound) are
// what makes a partitioned corpus score exactly like an unpartitioned one.
func TestMultiSearcherEquivalence(t *testing.T) {
	for _, seed := range []int64{5, 77} {
		ix, tables := buildRandCorpus(t, seed, 24+rand.New(rand.NewSource(seed)).Intn(40))
		s := NewSearcher(ix)
		for _, nSeg := range []int{1, 2, 3, 8} {
			chunks := splitTables(tables, nSeg, seed+int64(nSeg))
			for _, fv := range []int{2, 1} {
				for name, ms := range multiVariants(t, chunks, fv) {
					if ms.Len() != ix.Len() {
						t.Fatalf("%s: Len() = %d, want %d", name, ms.Len(), ix.Len())
					}
					if ms.Segments() != len(chunks) {
						t.Fatalf("%s: Segments() = %d, want %d", name, ms.Segments(), len(chunks))
					}
					r := rand.New(rand.NewSource(seed * int64(nSeg*fv)))
					for qi := 0; qi < 20; qi++ {
						q := randQuery(r)
						for _, k := range []int{0, 1, 3, 17, 1000} {
							want := s.Search(q, k)
							got := ms.Search(q, k)
							sameHitsBitIdentical(t, want, got,
								"multi "+name)
						}
					}
				}
			}
		}
	}
}

// TestMultiSearcherSkipWithExactlyKTouched replays the exactly-k-skip
// regression corpus across segment splits: the first term touches exactly
// k docs, and the doc arriving after the skip threshold — in a different
// segment — must still enter the top k (the cross-segment score floor is
// a bound, never a filter).
func TestMultiSearcherSkipWithExactlyKTouched(t *testing.T) {
	row := func(cells ...string) wtable.Row {
		r := wtable.Row{}
		for _, c := range cells {
			r.Cells = append(r.Cells, wtable.Cell{Text: c})
		}
		return r
	}
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
	for _, nSeg := range []int{1, 2, 3} {
		for _, split := range [][][]*wtable.Table{
			splitTables(tables, nSeg, 1),
			splitTables(tables, nSeg, 9),
		} {
			for name, ms := range multiVariants(t, split, 2) {
				got := ms.Search(q, 2)
				sameHitsBitIdentical(t, want, got, name)
				ids := map[string]bool{}
				for _, h := range got {
					ids[h.ID] = true
				}
				if !ids["t0"] || !ids["t2"] {
					t.Fatalf("%s segs=%d: top-2 = %v, want t0 and t2", name, nSeg, got)
				}
			}
		}
	}
}

// TestMultiSearcherPruningBoundary drives the skewed shard-pruning corpus
// through segment splits: the winning docs need contributions from
// low-bound filler terms, so a segment whose gather over-pruned would
// corrupt scores. Bit-identity against the unpartitioned oracle is the
// whole assertion.
func TestMultiSearcherPruningBoundary(t *testing.T) {
	heavy, fills, tables := buildSkewedCorpus(t, 240, 4)
	ix, err := Build(tables)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSearcher(ix)
	q := append([]string{heavy}, fills...)
	for _, nSeg := range []int{2, 3, 8} {
		chunks := splitTables(tables, nSeg, int64(nSeg))
		for _, fv := range []int{2, 1} {
			for name, ms := range multiVariants(t, chunks, fv) {
				for _, k := range []int{1, 3, 10, 1000} {
					want := s.Search(q, k)
					got := ms.Search(q, k)
					sameHitsBitIdentical(t, want, got, name)
				}
			}
		}
	}
}

// TestMultiSearcherDocSets: DocsWithToken/DocSet/IDF/TermStats must match
// the unpartitioned searcher — doc numbers remap through the segment
// bases, and df sums across segments.
func TestMultiSearcherDocSets(t *testing.T) {
	ix, tables := buildRandCorpus(t, 4242, 40)
	s := NewSearcher(ix)
	for _, nSeg := range []int{2, 3} {
		chunks := splitTables(tables, nSeg, int64(nSeg))
		for name, ms := range multiVariants(t, chunks, 2) {
			r := rand.New(rand.NewSource(17))
			for i := 0; i < 40; i++ {
				toks := randQuery(r)
				want := s.DocSet(toks)
				got := ms.DocSet(toks)
				if len(want) != 0 || len(got) != 0 {
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("%s: DocSet(%v) = %v, want %v", name, toks, got, want)
					}
				}
				tok := propWords[r.Intn(len(propWords))]
				if w, g := s.IDF(tok), ms.IDF(tok); w != g {
					t.Fatalf("%s: IDF(%q) = %v, want %v", name, tok, g, w)
				}
				wdf, wpost, wok := s.TermStats(tok)
				gdf, gpost, gok := ms.TermStats(tok)
				if wdf != gdf || wpost != gpost || wok != gok {
					t.Fatalf("%s: TermStats(%q) = (%d,%d,%v), want (%d,%d,%v)", name, tok, gdf, gpost, gok, wdf, wpost, wok)
				}
			}
		}
	}
}

// TestManifestRoundTrip: commit, read back, and the implicit manifest of a
// bare flat directory.
func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()

	// Neither manifest nor flat index: fs.ErrNotExist, naming the builder.
	if _, err := SnapshotManifest(dir); !errors.Is(err, fs.ErrNotExist) || !strings.Contains(err.Error(), "wwt-index") {
		t.Fatalf("empty dir: err = %v, want fs.ErrNotExist naming wwt-index", err)
	}

	// A bare flat index gets the implicit base-only manifest.
	ix, _ := buildRandCorpus(t, 1, 8)
	if err := WriteSharded(dir, NewSearcher(ix), 2); err != nil {
		t.Fatal(err)
	}
	m, err := SnapshotManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Generation != 0 || !reflect.DeepEqual(m.Segments, []string{"."}) {
		t.Fatalf("implicit manifest = %+v", m)
	}

	m.Generation = 7
	m.Segments = []string{".", SegmentDirName(0)}
	if err := WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	got, ok, err := ReadManifest(dir)
	if err != nil || !ok {
		t.Fatalf("ReadManifest: ok=%v err=%v", ok, err)
	}
	if got.Generation != 7 || !reflect.DeepEqual(got.Segments, m.Segments) {
		t.Fatalf("round trip = %+v, want %+v", got, m)
	}

	// Malicious/corrupt segment paths are rejected.
	for _, bad := range []string{"", "/abs", "../escape"} {
		b := m
		b.Segments = []string{bad}
		if err := WriteManifest(dir, b); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ReadManifest(dir); err == nil {
			t.Fatalf("segment path %q accepted", bad)
		}
	}
}

// TestPlanMerge pins the size-tiered policy: the lowest full tier merges,
// partial tiers wait.
func TestPlanMerge(t *testing.T) {
	p := MergePolicy{TierFanIn: 4, TierBase: 4}
	cases := []struct {
		docs []int
		want []int
	}{
		{nil, nil},
		{[]int{1, 2, 3}, nil},                                  // tier 0 not full
		{[]int{1, 2, 3, 2}, []int{0, 1, 2, 3}},                 // tier 0 full
		{[]int{100, 1, 2, 3, 2}, []int{1, 2, 3, 4}},            // big segment left out
		{[]int{20, 30, 21, 22, 1, 2}, []int{0, 1, 2, 3}},       // tier 2 (16..63 docs) full
		{[]int{1, 1, 1, 1, 20, 30, 21, 22}, []int{0, 1, 2, 3}}, // lowest full tier wins
	}
	for i, c := range cases {
		if got := PlanMerge(c.docs, p); !reflect.DeepEqual(got, c.want) {
			t.Fatalf("case %d: PlanMerge(%v) = %v, want %v", i, c.docs, got, c.want)
		}
	}
}

// TestMergeSegments: merging segments yields a segment whose search
// results are bit-identical to the pre-merge multi (same docs, same order,
// same global stats) and whose store holds every table.
func TestMergeSegments(t *testing.T) {
	_, tables := buildRandCorpus(t, 9, 30)
	chunks := splitTables(tables, 3, 9)
	dirs := make([]string, len(chunks))
	for i, chunk := range chunks {
		w := NewSegmentWriter()
		for _, tb := range chunk {
			if err := w.Add(tb); err != nil {
				t.Fatal(err)
			}
		}
		dirs[i] = filepath.Join(t.TempDir(), "seg")
		if err := w.Flush(dirs[i], WriteShardedOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	before, err := OpenMulti(dirs)
	if err != nil {
		t.Fatal(err)
	}
	defer before.Close()

	merged := filepath.Join(t.TempDir(), "merged")
	n, err := MergeSegments(merged, dirs, WriteShardedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(tables) {
		t.Fatalf("merged %d docs, want %d", n, len(tables))
	}
	after, err := OpenMulti([]string{merged})
	if err != nil {
		t.Fatal(err)
	}
	defer after.Close()

	r := rand.New(rand.NewSource(3))
	for i := 0; i < 25; i++ {
		q := randQuery(r)
		sameHitsBitIdentical(t, before.Search(q, 10), after.Search(q, 10), "merge")
	}
	st, err := LoadStore(filepath.Join(merged, StoreFileName))
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != len(tables) {
		t.Fatalf("merged store holds %d tables, want %d", st.Len(), len(tables))
	}
}

// TestOpenMultiSnapshot: a committed manifest opens all listed segments in
// order with stable global doc numbering, and a stale segment directory
// not in the manifest is ignored.
func TestOpenMultiSnapshot(t *testing.T) {
	dir := t.TempDir()
	ix, tables := buildRandCorpus(t, 11, 20)
	if err := WriteSharded(dir, NewSearcher(ix), 2); err != nil {
		t.Fatal(err)
	}
	extra := mkTable("live-1", []string{"Planet", "Moons"},
		[][]string{{"Jupiter", "95"}, {"Saturn", "146"}}, "moon counts")
	w := NewSegmentWriter()
	if err := w.Add(extra); err != nil {
		t.Fatal(err)
	}
	seg := SegmentDirName(0)
	if err := w.Flush(filepath.Join(dir, seg), WriteShardedOptions{}); err != nil {
		t.Fatal(err)
	}
	// An orphan directory (crash between flush and commit) must be ignored.
	orphan := filepath.Join(dir, SegmentDirName(1))
	if err := os.MkdirAll(orphan, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteManifest(dir, Manifest{Generation: 3, Segments: []string{".", seg}}); err != nil {
		t.Fatal(err)
	}

	ms, m, err := OpenMultiSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	if m.Generation != 3 || ms.Generation() != 3 {
		t.Fatalf("generation = %d/%d, want 3", m.Generation, ms.Generation())
	}
	if ms.Segments() != 2 || ms.Len() != len(tables)+1 {
		t.Fatalf("segments=%d len=%d, want 2/%d", ms.Segments(), ms.Len(), len(tables)+1)
	}
	// The ingested doc is searchable and globally numbered after the base.
	hits := ms.Search([]string{"saturn"}, 1)
	if len(hits) != 1 || hits[0].ID != "live-1" {
		t.Fatalf("search for ingested table = %v", hits)
	}
	if id := ms.IDOf(int32(len(tables))); id != "live-1" {
		t.Fatalf("IDOf(base len) = %q, want live-1", id)
	}
}
