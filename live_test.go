package wwt_test

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"wwt"
	"wwt/internal/index"
	"wwt/internal/wtable"
)

// liveDir freezes the small corpus as a 2-shard flat index directory the
// live engine can open (flat files + table store, no manifest yet).
func liveDir(t *testing.T) string {
	t.Helper()
	eng, err := wwt.NewEngine(smallCorpus(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := index.WriteSharded(dir, index.NewSearcher(eng.Index), 2); err != nil {
		t.Fatal(err)
	}
	if err := eng.Store.Save(filepath.Join(dir, index.StoreFileName)); err != nil {
		t.Fatal(err)
	}
	return dir
}

// currencyTable builds one Country/Currency table carrying a unique row.
func currencyTable(i int) *wtable.Table {
	hdr := wtable.Row{Cells: []wtable.Cell{
		{Text: "Country", IsTH: true}, {Text: "Currency", IsTH: true},
	}}
	body := wtable.Row{Cells: []wtable.Cell{
		{Text: fmt.Sprintf("Atlantis%d", i)}, {Text: fmt.Sprintf("Coin%d", i)},
	}}
	return &wtable.Table{
		ID:         fmt.Sprintf("live-%d", i),
		PageTitle:  "Currencies of the world",
		HeaderRows: []wtable.Row{hdr},
		BodyRows:   []wtable.Row{body},
	}
}

func hasRow(res *wwt.Result, cell0 string) bool {
	for _, row := range res.Answer.Rows {
		if len(row.Cells) > 0 && row.Cells[0] == cell0 {
			return true
		}
	}
	return false
}

// dirContents maps every file under dir (relative path) to its bytes.
func dirContents(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		files[rel] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestOpenLiveFallback: a directory without a flat index — empty, or
// holding only gob files — fails with fs.ErrNotExist naming wwt-index;
// and opening, querying and closing a manifest-less flat directory (what
// the wwt CLI does) leaves it exactly as it was.
func TestOpenLiveFallback(t *testing.T) {
	gobOnly := t.TempDir()
	eng, err := wwt.NewEngine(smallCorpus(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Store.Save(filepath.Join(gobOnly, index.StoreFileName)); err != nil {
		t.Fatal(err)
	}
	// An index snapshot file ("WWTIXG01" header) is not an index OpenLive reads.
	if err := os.WriteFile(filepath.Join(gobOnly, "ix.gob"), []byte("WWTIXG01\x01\x00\x00\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, dir := range map[string]string{"empty": t.TempDir(), "gob only": gobOnly} {
		_, err := wwt.OpenLive(dir, nil)
		if !errors.Is(err, fs.ErrNotExist) || !strings.Contains(err.Error(), "wwt-index") {
			t.Fatalf("OpenLive on %s dir: %v, want fs.ErrNotExist naming wwt-index", name, err)
		}
	}

	dir := liveDir(t)
	before := dirContents(t, dir)
	le, err := wwt.OpenLive(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := le.Answer(wwt.Query{Columns: []string{"country", "currency"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answer.Rows) == 0 {
		t.Fatal("read-only open answered no rows")
	}
	res.Release()
	if err := le.Close(); err != nil {
		t.Fatal(err)
	}
	after := dirContents(t, dir)
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("open/answer/close changed the directory: %d file(s) before, %d after", len(before), len(after))
	}
	for _, name := range []string{index.ManifestFileName, index.SegmentsDirName} {
		if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("%s exists after a read-only open (stat err %v)", name, err)
		}
	}
}

// TestLiveEngineIngestRoundTrip: ingest publishes a new queryable
// generation without reopening, rejects duplicate IDs, and the committed
// manifest makes the ingested segment survive a cold reopen.
func TestLiveEngineIngestRoundTrip(t *testing.T) {
	dir := liveDir(t)
	le, err := wwt.OpenLive(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer le.Close()

	info := le.Info()
	if info.Generation != 0 || info.Segments != 1 || info.Docs != 3 {
		t.Fatalf("fresh open info = %+v", info)
	}

	q := wwt.Query{Columns: []string{"country", "currency"}}
	res, err := le.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if hasRow(res, "Atlantis0") {
		t.Fatal("unreachable row present before ingest")
	}

	info, err = le.IngestTables([]*wtable.Table{currencyTable(0)})
	if err != nil {
		t.Fatal(err)
	}
	if info.Generation != 1 || info.Segments != 2 || info.Docs != 4 {
		t.Fatalf("post-ingest info = %+v", info)
	}
	res, err = le.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if !hasRow(res, "Atlantis0") {
		t.Fatalf("ingested row missing from answer: %+v", res.Answer.Rows)
	}

	// Duplicate IDs are rejected — against the base corpus and the
	// just-ingested segment alike.
	if _, err := le.IngestTables([]*wtable.Table{currencyTable(0)}); !errors.Is(err, wwt.ErrTableExists) {
		t.Fatalf("duplicate ingest: %v", err)
	}

	// A cold reopen sees the committed manifest: same generation, same
	// docs, ingested row still answerable.
	le2, err := wwt.OpenLive(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer le2.Close()
	if got := le2.Info(); got.Generation != 1 || got.Docs != 4 {
		t.Fatalf("reopened info = %+v", got)
	}
	res, err = le2.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if !hasRow(res, "Atlantis0") {
		t.Fatal("ingested row lost across reopen")
	}
}

// TestLiveEngineMerge: enough single-doc ingests trigger the size-tiered
// background merge; the compacted index answers identically and the
// segment count drops.
func TestLiveEngineMerge(t *testing.T) {
	dir := liveDir(t)
	le, err := wwt.OpenLive(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer le.Close()

	const n = 5
	for i := 0; i < n; i++ {
		if _, err := le.IngestTables([]*wtable.Table{currencyTable(i)}); err != nil {
			t.Fatal(err)
		}
		// Drain the merger each round so the merge boundary is
		// deterministic: the tier-0 quartet compacts right after the
		// fourth ingest, before the fifth arrives.
		le.WaitMerges()
	}
	info := le.Info()
	// 5 one-doc segments: the first full tier-0 quartet merges into one
	// segment of 4 docs, leaving base + merged + 1 straggler.
	if info.Segments != 3 {
		t.Fatalf("post-merge segments = %d, want 3", info.Segments)
	}
	if info.Docs != 3+n {
		t.Fatalf("post-merge docs = %d, want %d", info.Docs, 3+n)
	}
	_, _, _, merges := le.IngestCounts()
	if merges == 0 {
		t.Fatal("no merge recorded")
	}
	res, err := le.Answer(wwt.Query{Columns: []string{"country", "currency"}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if !hasRow(res, fmt.Sprintf("Atlantis%d", i)) {
			t.Fatalf("row Atlantis%d lost after merge", i)
		}
	}
}

// TestHotSwapConcurrent hammers the live engine from 16 goroutines while
// the main goroutine repeatedly ingests and the background merger swaps
// generations underneath them. Asserts: queries never fail mid-swap,
// every ingest is immediately visible on the next query (no stale
// cross-query cache hits), and after Close every retired generation was
// reclaimed exactly once (old segments closed only after their last
// release). Run under -race in CI, where the generation pin/refcount
// protocol is the actual subject under test.
func TestHotSwapConcurrent(t *testing.T) {
	dir := liveDir(t)
	le, err := wwt.OpenLive(dir, nil)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 16
	stop := make(chan struct{})
	errc := make(chan error, workers)
	var wg sync.WaitGroup
	queries := []wwt.Query{
		{Columns: []string{"country", "currency"}},
		{Columns: []string{"name", "area"}},
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				br := le.AnswerBatchPlan(context.Background(), queries, 2, 10*time.Second, wwt.BatchPlan{})
				for i, err := range br.Errs {
					if err != nil {
						select {
						case errc <- fmt.Errorf("query %d: %w", i, err):
						default:
						}
						br.Release()
						return
					}
					// In-flight members finished on their pinned
					// generation: a batch spanning a swap must still
					// produce a complete answer, never a partial one.
					if len(br.Results[i].Answer.Rows) == 0 {
						select {
						case errc <- fmt.Errorf("query %d: empty answer mid-swap", i):
						default:
						}
						br.Release()
						return
					}
				}
				br.Release()
			}
		}()
	}

	const ingests = 8
	for i := 0; i < ingests; i++ {
		info, err := le.IngestTables([]*wtable.Table{currencyTable(i)})
		if err != nil {
			t.Fatal(err)
		}
		if info.Docs != 3+i+1 {
			t.Fatalf("ingest %d: docs = %d, want %d", i, info.Docs, 3+i+1)
		}
		// The swap is immediately visible — a stale view/pair-sim/doc-set
		// cache would keep answering without the new table.
		res, err := le.Answer(wwt.Query{Columns: []string{"country", "currency"}})
		if err != nil {
			t.Fatal(err)
		}
		if !hasRow(res, fmt.Sprintf("Atlantis%d", i)) {
			t.Fatalf("ingest %d not visible on the very next query", i)
		}
	}

	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if err := le.Close(); err != nil {
		t.Fatal(err)
	}
	retired, reclaimed := le.GenerationCounts()
	if retired < ingests {
		t.Fatalf("retired = %d, want >= %d (one per ingest swap)", retired, ingests)
	}
	// Every retired generation plus the final one must have closed exactly
	// once, and only after its last query released it.
	if reclaimed != retired+1 {
		t.Fatalf("reclaimed = %d, want retired+1 = %d", reclaimed, retired+1)
	}
}
