package main

import (
	"runtime"
	"sync"
	"time"

	"wwt"
)

// Snapshot is the program's counters at one phase boundary. Cache and
// probe counters are totals across generations (see counters); the rest
// are read as the program reports them.
type Snapshot struct {
	Phase string `json:"phase"`
	ops

	ViewHits      uint64  `json:"view_hits"`
	ViewMisses    uint64  `json:"view_misses"`
	PairHits      uint64  `json:"pair_hits"`
	PairMisses    uint64  `json:"pair_misses"`
	NormHits      uint64  `json:"norm_hits"`
	NormMisses    uint64  `json:"norm_misses"`
	BlocksSkipped uint64  `json:"blocks_skipped"`
	BlocksTotal   uint64  `json:"blocks_total"`
	ShardsPruned  uint64  `json:"shards_pruned"`
	CostError     float64 `json:"cost_error"`

	Generation uint64 `json:"generation"`
	Segments   int    `json:"segments"`
	Merges     uint64 `json:"merges"`

	TotalAlloc uint64 `json:"total_alloc"`
	NumGC      uint32 `json:"num_gc"`
}

// ops counts the timed operations completed so far. Attempted and
// Failed count queries and ingests; Requests and Shed count HTTP
// requests.
type ops struct {
	Queries   int64 `json:"queries"`
	Requests  int64 `json:"requests"`
	Shed      int64 `json:"shed"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
}

// genCounts are the counters an engine generation starts at zero.
type genCounts struct {
	viewHits, viewMisses, pairHits, pairMisses uint64
	blocksSkipped, blocksTotal, shardsPruned   uint64
}

func (a genCounts) plus(b genCounts) genCounts {
	return genCounts{
		a.viewHits + b.viewHits, a.viewMisses + b.viewMisses,
		a.pairHits + b.pairHits, a.pairMisses + b.pairMisses,
		a.blocksSkipped + b.blocksSkipped, a.blocksTotal + b.blocksTotal,
		a.shardsPruned + b.shardsPruned,
	}
}

// counters reads an engine's counters and folds them into totals that
// survive generation swaps. A live engine's CacheStats and PlanStats
// describe only the serving generation, whose engine starts them at
// zero; sampling often enough and adding up each generation's last
// sample keeps the totals. Counts a retired generation gained after its
// last sample are lost, which sampling every few milliseconds keeps
// small.
type counters struct {
	eng  *wwt.Engine
	live *wwt.LiveEngine

	mu   sync.Mutex
	gen  uint64
	done genCounts // generations retired before gen
	cur  genCounts // the latest sample of gen
	norm wwt.CacheStats
	cost float64
}

func newCounters(w *world) *counters {
	c := &counters{eng: w.mem, live: w.live}
	c.sample()
	return c
}

// read takes one consistent sample: the generation must be the same
// before and after the reads.
func (c *counters) read() (gen uint64, cs wwt.EngineCacheStats, ps wwt.PlanStats) {
	if c.live == nil {
		return 0, c.eng.CacheStats(), c.eng.PlanStats()
	}
	for {
		gen = c.live.Info().Generation
		cs, ps = c.live.CacheStats(), c.live.PlanStats()
		if c.live.Info().Generation == gen {
			return gen, cs, ps
		}
	}
}

// sample folds the current counters into the totals.
func (c *counters) sample() {
	gen, cs, ps := c.read()
	g := genCounts{
		cs.Views.Hits, cs.Views.Misses, cs.PairSims.Hits, cs.PairSims.Misses,
		ps.ProbeBlocksSkipped, ps.ProbeBlocksTotal, ps.ProbeShardsPruned,
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen != c.gen {
		c.done = c.done.plus(c.cur)
		c.gen = gen
	}
	c.cur = g
	// The normalization cache and the planner are shared by every
	// generation, so their counters are cumulative already.
	c.norm = cs.NormCells
	c.cost = ps.CostError
}

// sampleEvery samples every period until stop is closed, then returns.
func (c *counters) sampleEvery(period time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			c.sample()
		}
	}
}

// snapshot samples the counters and returns them with the run's own
// operation counts and the Go runtime's allocation counters.
func (c *counters) snapshot(phase string, o ops) Snapshot {
	c.sample()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	c.mu.Lock()
	tot := c.done.plus(c.cur)
	s := Snapshot{
		Phase: phase, ops: o,
		ViewHits: tot.viewHits, ViewMisses: tot.viewMisses,
		PairHits: tot.pairHits, PairMisses: tot.pairMisses,
		NormHits: c.norm.Hits, NormMisses: c.norm.Misses,
		BlocksSkipped: tot.blocksSkipped, BlocksTotal: tot.blocksTotal,
		ShardsPruned: tot.shardsPruned, CostError: c.cost,
		TotalAlloc: m.TotalAlloc, NumGC: m.NumGC,
	}
	c.mu.Unlock()
	if c.live != nil {
		info := c.live.Info()
		s.Generation, s.Segments = info.Generation, info.Segments
		_, _, _, s.Merges = c.live.IngestCounts()
	}
	return s
}
