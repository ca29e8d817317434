package eval

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"wwt/internal/corpusgen"
	"wwt/internal/inference"
)

// qualityGolden is the answer-quality pin: the paper's headline error
// numbers at one fixed corpus. Per-group slices follow Groups' order
// (hardest Basic group first).
type qualityGolden struct {
	Easy int `json:"easy"`
	Hard int `json:"hard"`
	// Fig5 is each method's per-group mean F1 error (Fig. 5), and
	// Fig5Hard its mean over all hard queries.
	Fig5     map[string][]float64 `json:"fig5"`
	Fig5Hard map[string]float64   `json:"fig5_hard"`
	// Fig6 is the per-group consolidated-answer row error (Fig. 6).
	Fig6 map[string][]float64 `json:"fig6"`
	// Table2 is each inference algorithm's per-group error (Table 2).
	Table2 map[string][]float64 `json:"table2"`
}

const qualityGoldenFile = "testdata/quality_seed2012_scale0.5.json"

// measureQuality computes the golden's numbers from a runner.
func measureQuality(r *Runner) qualityGolden {
	easy, hard := EasyHard(r.RunAll())
	groups := Groups(hard)
	perGroup := func(f func(g []*QueryResult) float64) []float64 {
		out := make([]float64, len(groups))
		for i, g := range groups {
			out[i] = f(g)
		}
		return out
	}
	q := qualityGolden{
		Easy: len(easy), Hard: len(hard),
		Fig5: map[string][]float64{}, Fig5Hard: map[string]float64{},
		Fig6: map[string][]float64{}, Table2: map[string][]float64{},
	}
	for _, m := range []string{MethodBasic, MethodPMI2, MethodNbrText, MethodWWT} {
		q.Fig5[m] = perGroup(func(g []*QueryResult) float64 { return MeanError(g, m) })
		q.Fig5Hard[m] = MeanError(hard, m)
	}
	for _, m := range []string{MethodBasic, MethodWWT} {
		q.Fig6[m] = perGroup(func(g []*QueryResult) float64 { return groupRowError(g, m) })
	}
	for _, a := range inference.Algorithms {
		q.Table2[a.String()] = perGroup(func(g []*QueryResult) float64 { return MeanError(g, a.String()) })
	}
	return q
}

// TestQualityGolden pins answer quality: the easy/hard split, Fig. 5's
// per-group and overall hard error for Basic, PMI², NbrText and WWT,
// Fig. 6's per-group row error and Table 2's per-group error of every
// inference algorithm, at corpus seed 2012, scale 0.5, must match the
// checked-in golden within 1e-9. The pipeline is deterministic, so a
// mismatch means a change moved what the paper measures: if that is
// intended, replace the golden with the contents the failure prints and
// say why in CHANGES.md.
func TestQualityGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus run")
	}
	r, err := NewRunner(corpusgen.Config{Seed: 2012, Scale: 0.5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := measureQuality(r)
	gotJSON, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.FromSlash(qualityGoldenFile))
	if err != nil {
		t.Fatalf("%v\nnew %s contents:\n%s", err, qualityGoldenFile, gotJSON)
	}
	var want qualityGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", qualityGoldenFile, err)
	}
	if diffs := qualityDiffs(want, got); len(diffs) > 0 {
		for _, d := range diffs {
			t.Error(d)
		}
		t.Fatalf("answer quality moved; new %s contents:\n%s", qualityGoldenFile, gotJSON)
	}
}

// qualityDiffs lists every number that differs by more than 1e-9.
func qualityDiffs(want, got qualityGolden) []string {
	var diffs []string
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9 }
	if want.Easy != got.Easy || want.Hard != got.Hard {
		diffs = append(diffs, fmt.Sprintf("easy/hard split %d/%d, want %d/%d", got.Easy, got.Hard, want.Easy, want.Hard))
	}
	series := func(name string, w, g map[string][]float64) {
		if len(w) != len(g) {
			diffs = append(diffs, fmt.Sprintf("%s: %d series, want %d", name, len(g), len(w)))
		}
		for k, wv := range w {
			gv := g[k]
			if len(gv) != len(wv) {
				diffs = append(diffs, fmt.Sprintf("%s %s: %d groups, want %d", name, k, len(gv), len(wv)))
				continue
			}
			for i := range wv {
				if !near(wv[i], gv[i]) {
					diffs = append(diffs, fmt.Sprintf("%s %s group %d: %.10f, want %.10f", name, k, i+1, gv[i], wv[i]))
				}
			}
		}
	}
	series("fig5", want.Fig5, got.Fig5)
	series("fig6", want.Fig6, got.Fig6)
	series("table2", want.Table2, got.Table2)
	if len(want.Fig5Hard) != len(got.Fig5Hard) {
		diffs = append(diffs, fmt.Sprintf("fig5 hard: %d methods, want %d", len(got.Fig5Hard), len(want.Fig5Hard)))
	}
	for k, wv := range want.Fig5Hard {
		if gv, ok := got.Fig5Hard[k]; !ok || !near(wv, gv) {
			diffs = append(diffs, fmt.Sprintf("fig5 hard %s: %.10f, want %.10f", k, gv, wv))
		}
	}
	return diffs
}
