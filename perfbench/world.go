package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"wwt"
	"wwt/internal/corpusgen"
	"wwt/internal/extract"
	"wwt/internal/index"
	"wwt/internal/workload"
	"wwt/internal/wtable"
)

// flatShards is the postings shard count of the flat index directories,
// as wwt-serve deployments write them.
const flatShards = 2

// worldSpec says how a workload's corpus is built and opened.
type worldSpec struct {
	scale float64
	// flat writes the index as a flat directory and opens it with
	// wwt.OpenLive; otherwise the corpus is indexed in memory with
	// wwt.NewEngine.
	flat bool
	// holdOutEvery holds out every n-th page that carries a data table
	// from the index, to be ingested while serving (0: none).
	holdOutEvery int
}

// world is one set-up corpus with the engine that serves it.
type world struct {
	corpus  *corpusgen.Corpus
	queries []workload.Query
	// tables are the indexed tables, in index order.
	tables []*wtable.Table
	// held are the held-out pages, in corpus order, with their tables.
	held       []corpusgen.Page
	heldTables [][]*wtable.Table

	mem  *wwt.Engine     // in-memory engine (flat == false)
	live *wwt.LiveEngine // live engine over dir (flat == true)
	dir  string

	steps setupSteps
}

// setupSteps is the wall time of each set-up step.
type setupSteps struct {
	gen, extract, index, open time.Duration
}

func (s setupSteps) total() time.Duration { return s.gen + s.extract + s.index + s.open }

// close releases the world's engine and deletes its index directory.
func (w *world) close() {
	if w.live != nil {
		w.live.Close()
	}
	if w.mem != nil {
		w.mem.Close()
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}

// answerer returns the world's single-query entry point.
func (w *world) answerer() func(wwt.Query) (*wwt.Result, error) {
	if w.live != nil {
		return w.live.Answer
	}
	return w.mem.Answer
}

// buildWorld generates, extracts, indexes and opens one corpus, timing
// each step and recording it as a span under a "setup" root.
func buildWorld(spec worldSpec, corpusSeed int64, dir string, rec *Recorder) (*world, error) {
	root := rec.Begin(spanSetup, 0, 0)
	defer rec.End(root, Acct{})
	w := &world{}
	step := func(name string, d *time.Duration, fn func() error) error {
		id := rec.Begin(name, root, 0)
		start := time.Now()
		err := fn()
		*d = time.Since(start)
		rec.End(id, Acct{})
		return err
	}

	_ = step(spanSetupGen, &w.steps.gen, func() error {
		w.corpus = corpusgen.Generate(corpusgen.Config{Seed: corpusSeed, Scale: spec.scale})
		w.queries = workload.FromCorpus(w.corpus)
		return nil
	})
	_ = step(spanSetupExtract, &w.steps.extract, func() error {
		opts := extract.NewOptions()
		withTables := 0
		for _, p := range w.corpus.Pages {
			tables := extract.Page(p.URL, p.HTML, opts)
			if len(tables) > 0 {
				withTables++
				if spec.holdOutEvery > 0 && withTables%spec.holdOutEvery == 0 {
					w.held = append(w.held, p)
					w.heldTables = append(w.heldTables, tables)
					continue
				}
			}
			w.tables = append(w.tables, tables...)
		}
		return nil
	})
	if !spec.flat {
		err := step(spanSetupIndex, &w.steps.index, func() error {
			var err error
			w.mem, err = wwt.NewEngine(w.tables, nil)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("index: %w", err)
		}
		return w, nil
	}

	w.dir = dir
	err := step(spanSetupIndex, &w.steps.index, func() error {
		ix, err := index.Build(w.tables)
		if err != nil {
			return err
		}
		st := index.NewStore()
		for _, t := range w.tables {
			if err := st.Add(t); err != nil {
				return err
			}
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		if err := index.WriteSharded(dir, index.NewSearcher(ix), flatShards); err != nil {
			return err
		}
		return st.Save(filepath.Join(dir, index.StoreFileName))
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("index: %w", err)
	}
	err = step(spanSetupOpen, &w.steps.open, func() error {
		var err error
		w.live, err = wwt.OpenLive(dir, nil)
		return err
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("open: %w", err)
	}
	return w, nil
}

// setUp builds the world reps times, each from scratch, and keeps the
// last one. The earlier builds only contribute set-up times, so the
// reported set-up time is a median rather than one sample.
func setUp(spec worldSpec, corpusSeed int64, workDir string, reps int, rec *Recorder) (*world, []setupSteps, error) {
	var all []setupSteps
	var w *world
	for i := 0; i < reps; i++ {
		if w != nil {
			w.close()
			w = nil
		}
		runtime.GC()
		var err error
		w, err = buildWorld(spec, corpusSeed, filepath.Join(workDir, fmt.Sprintf("index-%d", i)), rec)
		if err != nil {
			return nil, nil, err
		}
		all = append(all, w.steps)
	}
	return w, all, nil
}
