package wwt_test

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"wwt"
	"wwt/internal/index"
)

// TestEngineShardedFlatRoundTrip: an in-memory engine's corpus written as
// a flat index at 1, 2 and 3 shards and opened with OpenLive must answer
// every query identically to the in-memory engine — rows, support and
// column labeling — and every engine must surface per-partition doc-set
// cache counters, one partition per index shard, that sum to the
// aggregate.
func TestEngineShardedFlatRoundTrip(t *testing.T) {
	eng, err := wwt.NewEngine(smallCorpus(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	queries := []wwt.Query{
		{Columns: []string{"country", "currency"}},
		{Columns: []string{"name", "area"}},
		{Columns: []string{"forest reserves"}},
		{Columns: []string{"country"}},
	}
	checkDocSetPartitions(t, "in-memory", eng, 1)
	for _, n := range []int{1, 2, 3} {
		dir := t.TempDir()
		if err := index.WriteSharded(dir, index.NewSearcher(eng.Index), n); err != nil {
			t.Fatal(err)
		}
		if err := eng.Store.Save(filepath.Join(dir, index.StoreFileName)); err != nil {
			t.Fatal(err)
		}
		le, err := wwt.OpenLive(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer le.Close()
		if info := le.Info(); info.Shards != n || !info.Mmapped {
			t.Fatalf("shards=%d: live info = %+v", n, info)
		}
		for _, q := range queries {
			sameAnswer(t, fmt.Sprintf("shards=%d %v", n, q.Columns), eng, le, q)
		}
		checkDocSetPartitions(t, fmt.Sprintf("shards=%d", n), le.Serving(), n)
	}
}

// sameAnswer requires le to answer q exactly like eng.
func sameAnswer(t *testing.T, ctx string, eng *wwt.Engine, le *wwt.LiveEngine, q wwt.Query) {
	t.Helper()
	a, err := eng.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Release()
	b, err := le.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Release()
	if len(a.Answer.Rows) != len(b.Answer.Rows) {
		t.Fatalf("%s: flat-opened engine differs: %d vs %d rows", ctx, len(b.Answer.Rows), len(a.Answer.Rows))
	}
	for i := range a.Answer.Rows {
		if !reflect.DeepEqual(a.Answer.Rows[i].Cells, b.Answer.Rows[i].Cells) {
			t.Fatalf("%s: row %d differs: %q vs %q", ctx, i, b.Answer.Rows[i].Cells, a.Answer.Rows[i].Cells)
		}
		if a.Answer.Rows[i].Support != b.Answer.Rows[i].Support {
			t.Fatalf("%s: row %d support differs", ctx, i)
		}
	}
	if !reflect.DeepEqual(a.Labeling, b.Labeling) {
		t.Fatalf("%s: labeling %v, want %v", ctx, b.Labeling, a.Labeling)
	}
}

// checkDocSetPartitions drives the engine's PMI doc-set cache directly
// (the tiny corpus's answer path doesn't reach the PMI feature), then
// checks the per-partition breakdown has one entry per index shard and
// sums to the aggregate.
func checkDocSetPartitions(t *testing.T, ctx string, eng *wwt.Engine, shards int) {
	t.Helper()
	pmi := eng.PMISource()
	for i := 0; i < 2; i++ { // second pass hits
		pmi.HeaderContextDocs([]string{"country"})
		pmi.HeaderContextDocs([]string{"currency"})
		pmi.ContentDocs([]string{"france", "euro"})
	}
	cs := eng.CacheStats()
	if len(cs.DocSetShards) != shards {
		t.Fatalf("%s: DocSetShards has %d entries, want %d", ctx, len(cs.DocSetShards), shards)
	}
	var hits, misses uint64
	for _, sh := range cs.DocSetShards {
		hits += sh.Hits
		misses += sh.Misses
	}
	if hits != cs.DocSets.Hits || misses != cs.DocSets.Misses {
		t.Fatalf("%s: per-partition counters %d/%d do not sum to aggregate %d/%d",
			ctx, hits, misses, cs.DocSets.Hits, cs.DocSets.Misses)
	}
	if cs.DocSets.Misses == 0 || cs.DocSets.Hits == 0 {
		t.Fatalf("%s: doc-set cache recorded %d hits / %d misses; PMI probes not routed through it?",
			ctx, cs.DocSets.Hits, cs.DocSets.Misses)
	}
	if got := len(eng.PlanStats().ShardPrunes); got != shards {
		t.Fatalf("%s: ShardPrunes has %d entries, want %d", ctx, got, shards)
	}
}
