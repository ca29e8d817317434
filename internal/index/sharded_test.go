package index

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// sameHitsBitIdentical is the strict form of sameHits: IDs, order AND exact
// float64 score bits must match — every shard count accumulates in the
// same canonical operation order, so == (not a tolerance) is the
// contract.
func sameHitsBitIdentical(t *testing.T, want, got []Hit, ctx string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: hit count %d != %d (want %v, got %v)", ctx, len(got), len(want), want, got)
	}
	for i := range want {
		if want[i].ID != got[i].ID {
			t.Fatalf("%s: hit %d ID %q != %q", ctx, i, got[i].ID, want[i].ID)
		}
		if want[i].Score != got[i].Score {
			t.Fatalf("%s: hit %d score %v != %v (bit-identity violated)", ctx, i, got[i].Score, want[i].Score)
		}
	}
}

// shardedVariants returns the construction paths for n shards — pure
// in-memory partitioning (from s, and re-partitioned from a 3-shard
// copy), the mmap-opened flat index and the forced read-into-memory
// fallback for both the block-max v2 format and the summary-less v1
// format, and a flat index rewritten from the mmap-opened v2 one — with
// cleanup registered on t. Every variant must stay bit-identical: v2
// paths exercise block-max skipping and shard pruning, v1 paths pin the
// term-level-only fallback.
func shardedVariants(t *testing.T, s *ShardedSearcher, n int) map[string]*ShardedSearcher {
	t.Helper()
	out := map[string]*ShardedSearcher{
		"memory":        NewShardedFromSearcher(s, n),
		"repartitioned": NewShardedFromSearcher(NewShardedFromSearcher(s, 3), n),
	}
	for _, v := range []int{2, 1} {
		dir := t.TempDir()
		if err := WriteShardedWith(dir, s, n, WriteShardedOptions{FormatVersion: v}); err != nil {
			t.Fatal(err)
		}
		mm, err := OpenSharded(dir)
		if err != nil {
			t.Fatal(err)
		}
		if !mm.Mmapped() {
			t.Fatalf("OpenSharded did not map the files")
		}
		rd, err := openSharded(dir, true)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { mm.Close(); rd.Close() })
		for g := 0; g < n; g++ {
			if got := mm.shards[g].hasBlocks(); got != (v == 2) {
				t.Fatalf("v%d shard %d: hasBlocks() = %v", v, g, got)
			}
		}
		if v == 2 {
			out["mmap"], out["nommap"] = mm, rd
			// Writing from a mapped (possibly multi-shard) searcher reads
			// its doc table and terms out of the mapping.
			re := t.TempDir()
			if err := WriteSharded(re, mm, n); err != nil {
				t.Fatal(err)
			}
			rw, err := OpenSharded(re)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { rw.Close() })
			out["rewritten"] = rw
		} else {
			out["mmap-v1"], out["nommap-v1"] = mm, rd
		}
	}
	return out
}

// TestDocSetCacheWarmHitAllocs pins the docSetKey rewrite: a warm cache
// hit's only allocation is the key string itself.
func TestDocSetCacheWarmHitAllocs(t *testing.T) {
	ix, _ := buildRandCorpus(t, 5, 20)
	s := NewSearcher(ix)
	c := NewDocSetCache(s, 1, 0)
	toks := []string{propWords[3], propWords[1], propWords[1], propWords[0]}
	c.DocSet(toks, FieldHeader, FieldContext) // warm
	allocs := testing.AllocsPerRun(200, func() {
		c.DocSet(toks, FieldHeader, FieldContext)
	})
	if allocs > 1 {
		t.Fatalf("warm hit does %.1f allocs/op, want <= 1 (the key string)", allocs)
	}
}

// writeShardedDir builds a small corpus and writes an n-shard flat index,
// returning the directory and the frozen searcher it came from.
func writeShardedDir(t *testing.T, n int) (string, *ShardedSearcher) {
	t.Helper()
	ix, _ := buildRandCorpus(t, 99, 12)
	s := NewSearcher(ix)
	dir := t.TempDir()
	if err := WriteSharded(dir, s, n); err != nil {
		t.Fatal(err)
	}
	return dir, s
}

// expectOpenError asserts OpenSharded fails mentioning want.
func expectOpenError(t *testing.T, dir, want string) {
	t.Helper()
	ss, err := OpenSharded(dir)
	if err == nil {
		ss.Close()
		t.Fatalf("OpenSharded succeeded, want error mentioning %q", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("OpenSharded error %q does not mention %q", err, want)
	}
}

// TestOpenShardedErrors: every corruption mode must fail with a precise,
// actionable message — and a directory without a flat index must wrap
// fs.ErrNotExist.
func TestOpenShardedErrors(t *testing.T) {
	t.Run("missing", func(t *testing.T) {
		_, err := OpenSharded(t.TempDir())
		if !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("error %v does not wrap fs.ErrNotExist", err)
		}
	})
	t.Run("missing shard file", func(t *testing.T) {
		dir, _ := writeShardedDir(t, 2)
		if err := os.Remove(filepath.Join(dir, shardFileName(1))); err != nil {
			t.Fatal(err)
		}
		expectOpenError(t, dir, "shard file postings-001.wwt missing")
		if _, err := OpenSharded(dir); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("missing shard error %v does not wrap fs.ErrNotExist", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		dir, _ := writeShardedDir(t, 1)
		if err := os.Truncate(filepath.Join(dir, DocsFileName), 10); err != nil {
			t.Fatal(err)
		}
		expectOpenError(t, dir, "smaller than")
	})
	t.Run("bad magic", func(t *testing.T) {
		dir, _ := writeShardedDir(t, 1)
		if err := os.WriteFile(filepath.Join(dir, DocsFileName), []byte("PNG-DATA-and-then-some-more-bytes-padding-it-out-past-the-header"), 0o644); err != nil {
			t.Fatal(err)
		}
		expectOpenError(t, dir, "bad magic")
	})
	t.Run("newer version", func(t *testing.T) {
		dir, _ := writeShardedDir(t, 1)
		path := filepath.Join(dir, DocsFileName)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[8] = 99 // version field
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		expectOpenError(t, dir, "version 99")
	})
	t.Run("gob file as flat index", func(t *testing.T) {
		dir, _ := writeShardedDir(t, 1)
		if err := NewStore().Save(filepath.Join(dir, DocsFileName)); err != nil {
			t.Fatal(err)
		}
		expectOpenError(t, dir, "gob table store")
	})
	t.Run("kind mix-up", func(t *testing.T) {
		dir, _ := writeShardedDir(t, 1)
		postings, err := os.ReadFile(filepath.Join(dir, shardFileName(0)))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, DocsFileName), postings, 0o644); err != nil {
			t.Fatal(err)
		}
		expectOpenError(t, dir, "want doc table")
	})
	t.Run("mixed builds", func(t *testing.T) {
		// A shard file from a 3-shard build dropped into a 2-shard
		// directory must be rejected by the header cross-check.
		dir, s := writeShardedDir(t, 2)
		other := t.TempDir()
		if err := WriteSharded(other, s, 3); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(filepath.Join(other, shardFileName(1)), filepath.Join(dir, shardFileName(1))); err != nil {
			t.Fatal(err)
		}
		expectOpenError(t, dir, "different builds")
	})
	t.Run("v2 zero block size", func(t *testing.T) {
		// A v2 postings file whose header declares block size 0 is corrupt:
		// the block geometry would be undefined.
		dir, _ := writeShardedDir(t, 1)
		path := filepath.Join(dir, shardFileName(0))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[44], data[45], data[46], data[47] = 0, 0, 0, 0 // block-size field
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		expectOpenError(t, dir, "block size 0")
	})
	t.Run("v2 missing block sections", func(t *testing.T) {
		// A v1-bodied postings file whose header claims v2 must fail on the
		// absent block-summary sections, not open with silent misbehavior.
		ix, _ := buildRandCorpus(t, 99, 12)
		s := NewSearcher(ix)
		dir := t.TempDir()
		if err := WriteShardedWith(dir, s, 1, WriteShardedOptions{FormatVersion: 1}); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, shardFileName(0))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		copy(data[:8], flatMagicV2)
		data[8] = flatFormatVersion2 // version field (little-endian u32)
		data[44] = DefaultBlockSize  // block-size field
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		expectOpenError(t, dir, "missing section 32")
	})
}

// TestWriteShardedWithErrors: invalid write options and over-limit corpora
// must fail with precise versioned errors before any file is written.
func TestWriteShardedWithErrors(t *testing.T) {
	ix, _ := buildRandCorpus(t, 99, 12)
	s := NewSearcher(ix)
	expectWriteError := func(t *testing.T, opts WriteShardedOptions, want string) {
		t.Helper()
		dir := t.TempDir()
		err := WriteShardedWith(dir, s, 1, opts)
		if err == nil {
			t.Fatalf("WriteShardedWith succeeded, want error mentioning %q", want)
		}
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
		ents, derr := os.ReadDir(dir)
		if derr != nil {
			t.Fatal(derr)
		}
		if len(ents) != 0 {
			t.Fatalf("failed write left %d file(s) behind: %v", len(ents), ents)
		}
	}
	t.Run("unsupported version", func(t *testing.T) {
		expectWriteError(t, WriteShardedOptions{FormatVersion: 3}, "version 3 not supported")
	})
	t.Run("postings over section bound", func(t *testing.T) {
		old := maxSectionInt32
		maxSectionInt32 = 8 // force the int32 section-offset bound down
		defer func() { maxSectionInt32 = old }()
		expectWriteError(t, WriteShardedOptions{}, "over the int32 section-offset bound")
	})
}

// TestGobHeaderErrors: the table store's magic/version header must
// diagnose mix-ups and stale files precisely.
func TestGobHeaderErrors(t *testing.T) {
	dir := t.TempDir()
	_, tables := buildRandCorpus(t, 7, 5)
	st := NewStore()
	for _, tb := range tables {
		if err := st.Add(tb); err != nil {
			t.Fatal(err)
		}
	}
	stPath := filepath.Join(dir, "store.gob")
	if err := st.Save(stPath); err != nil {
		t.Fatal(err)
	}
	stData, err := os.ReadFile(stPath)
	if err != nil {
		t.Fatal(err)
	}
	// loadBytes writes data to a fresh file and loads it as a store.
	loadBytes := func(t *testing.T, name string, data []byte) error {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadStore(path)
		return err
	}

	expect := func(t *testing.T, err error, want string) {
		t.Helper()
		if err == nil {
			t.Fatalf("load succeeded, want error mentioning %q", want)
		}
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}

	t.Run("round trip", func(t *testing.T) {
		if _, err := LoadStore(stPath); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("index to LoadStore", func(t *testing.T) {
		// An index snapshot header ("WWTIXG01") is foreign data to LoadStore.
		data := append([]byte("WWTIXG01"), stData[8:]...)
		expect(t, loadBytes(t, "ix.gob", data), "bad magic")
	})
	t.Run("flat file to Load", func(t *testing.T) {
		flatDir, _ := writeShardedDir(t, 1)
		_, err := LoadStore(filepath.Join(flatDir, DocsFileName))
		expect(t, err, "flat sharded index")
	})
	t.Run("legacy headerless gob", func(t *testing.T) {
		// A pre-versioning snapshot starts with gob's own framing, not our
		// magic.
		expect(t, loadBytes(t, "legacy.gob", stData[12:]), "rebuild with wwt-index")
	})
	t.Run("newer gob version", func(t *testing.T) {
		data := append([]byte(nil), stData...)
		data[8] = 42
		expect(t, loadBytes(t, "newer.gob", data), "format version 42")
	})
	t.Run("truncated", func(t *testing.T) {
		expect(t, loadBytes(t, "short.gob", []byte("WWT")), "too short")
	})
}

// TestTermStatsEquivalence: the planner's cost features (df, total posting
// entries) must read identically from the mutable Index, the frozen
// one-shard searcher, and every construction path at every shard count.
func TestTermStatsEquivalence(t *testing.T) {
	ix, _ := buildRandCorpus(t, 2012, 40)
	s := NewSearcher(ix)
	for _, n := range []int{1, 2, 3, 8} {
		for name, ss := range shardedVariants(t, s, n) {
			for _, tok := range s.shards[0].names {
				wdf, wpost, wok := ix.TermStats(tok)
				sdf, spost, sok := s.TermStats(tok)
				gdf, gpost, gok := ss.TermStats(tok)
				if !wok || !sok || !gok {
					t.Fatalf("%s shards=%d: token %q ok = (%v,%v,%v), want all true", name, n, tok, wok, sok, gok)
				}
				if wdf != sdf || wdf != gdf || wpost != spost || wpost != gpost {
					t.Fatalf("%s shards=%d: token %q stats (%d,%d)/(%d,%d)/(%d,%d) disagree",
						name, n, tok, wdf, wpost, sdf, spost, gdf, gpost)
				}
				if wpost < int(wdf) {
					t.Fatalf("token %q: %d posting entries < df %d", tok, wpost, wdf)
				}
			}
			if _, _, ok := ss.TermStats("zzz-no-such-token"); ok {
				t.Fatalf("%s shards=%d: unknown token reported ok", name, n)
			}
		}
	}
	if _, _, ok := ix.TermStats("zzz-no-such-token"); ok {
		t.Fatal("Index: unknown token reported ok")
	}
	if _, _, ok := s.TermStats("zzz-no-such-token"); ok {
		t.Fatal("frozen searcher: unknown token reported ok")
	}
}
