package index

import (
	"fmt"
	"reflect"
	"testing"
)

// TestDocSetCacheAdoptFrom pins the generation-migration contract: a new
// generation's cache adopts the old generation's entries — re-routed by
// its own partition count when the shard layout changes — and evicts
// exactly the keys the stale predicate marks. Warm live entries keep
// serving hits across the swap instead of starting cold.
func TestDocSetCacheAdoptFrom(t *testing.T) { testDocSetCacheAdoptFrom(t, partLayout{1, 1}) }

// TestShardedDocSetCacheAdoptFrom replays the contract across a change of
// partition count in both directions.
func TestShardedDocSetCacheAdoptFrom(t *testing.T) {
	testDocSetCacheAdoptFrom(t, partLayout{2, 5}, partLayout{5, 2})
}

type partLayout struct{ oldParts, newParts int }

func testDocSetCacheAdoptFrom(t *testing.T, layouts ...partLayout) {
	ix, _ := buildRandCorpus(t, 21, 30)
	s := NewSearcher(ix)
	for _, tc := range layouts {
		t.Run(fmt.Sprintf("parts=%dto%d", tc.oldParts, tc.newParts), func(t *testing.T) {
			old := NewDocSetCache(s, tc.oldParts, 256)
			warm := [][]string{{"alpha", "beta"}, {"gamma"}, {"delta", "beta"}, {"epsilon", "zeta"}, {"alpha"}}
			for _, toks := range warm {
				old.DocSet(toks)
			}
			if old.Len() != len(warm) {
				t.Fatalf("old cache len %d, want %d", old.Len(), len(warm))
			}

			next := NewDocSetCache(s, tc.newParts, 256)
			adopted, evicted := next.AdoptFrom(old, func(tokens []string) bool {
				for _, tok := range tokens {
					if tok == "beta" {
						return true
					}
				}
				return false
			})
			if adopted != 5 || evicted != 2 {
				t.Fatalf("AdoptFrom = (%d adopted, %d evicted), want (5, 2)", adopted, evicted)
			}
			if next.Len() != 3 {
				t.Fatalf("post-adopt len %d, want 3", next.Len())
			}
			// The surviving entries are warm: the next lookups hit with the
			// old generation's values.
			for _, toks := range [][]string{{"gamma"}, {"epsilon", "zeta"}, {"alpha"}} {
				want := old.DocSet(toks)
				got := next.DocSet(toks)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("surviving entry %v = %v, want %v", toks, got, want)
				}
			}
			if hits, misses := next.Stats(); hits != 3 || misses != 0 {
				t.Fatalf("surviving entries: %d hits / %d misses, want 3/0", hits, misses)
			}
			// A staled key recomputes (miss), it was not served stale.
			next.DocSet([]string{"alpha", "beta"})
			if _, misses := next.Stats(); misses != 1 {
				t.Fatalf("staled entry did not recompute (misses=%d)", misses)
			}
		})
	}
}
