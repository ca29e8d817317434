package main

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"
)

// streamSeed derives the seed of one independent random stream (a
// client, or one aspect of a schedule) from the traffic seed.
func streamSeed(seed int64, stream int) int64 { return seed*1_000_003 + int64(stream) }

// order yields the query indices one closed-loop client sends.
type order interface{ next() int }

// shuffled yields consecutive seeded permutations of n queries: every
// query once per pass, in a new order each pass.
type shuffled struct {
	rng  *rand.Rand
	perm []int
	pos  int
}

func newShuffled(seed int64, n int) *shuffled {
	s := &shuffled{rng: rand.New(rand.NewSource(seed)), perm: make([]int, n)}
	for i := range s.perm {
		s.perm[i] = i
	}
	s.pos = n
	return s
}

func (s *shuffled) next() int {
	if s.pos == len(s.perm) {
		s.rng.Shuffle(len(s.perm), func(i, j int) { s.perm[i], s.perm[j] = s.perm[j], s.perm[i] })
		s.pos = 0
	}
	s.pos++
	return s.perm[s.pos-1]
}

// cyclic yields one fixed permutation over and over, from an offset, so
// every pass touches the queries in the same order.
type cyclic struct {
	perm []int
	pos  int
}

func (c *cyclic) next() int {
	q := c.perm[c.pos%len(c.perm)]
	c.pos++
	return q
}

// popularity ranks the queries for the zipfian mix: element k is the
// query index of rank k. It depends on the corpus seed only, so every
// traffic seed draws from the same distribution.
func popularity(corpusSeed int64, n int) []int {
	return rand.New(rand.NewSource(corpusSeed)).Perm(n)
}

// eventKind is what an open-loop event sends.
type eventKind uint8

const (
	evQuery  eventKind = iota // POST /v1/answer, one query
	evBatch                   // POST /v1/answer, a batch
	evIngest                  // POST /v1/ingest, one held-out page
)

// event is one scheduled request of the open loop.
type event struct {
	due     time.Duration // since the start of the run
	kind    eventKind
	phase   int   // 0 at rate lo, 1 at rate hi
	queries []int // query indices (answer events)
	page    int   // held-out page index (ingest events)
}

// openLoop configures the serving workload's traffic.
type openLoop struct {
	rates      [2]float64 // requests per second in phase lo and hi
	loShare    float64    // share of the run spent at rate lo
	ingestRate float64    // held-out pages POSTed per second, across both phases
	batchEvery int        // one request in batchEvery is a batch
	batchSize  int
	zipfS      float64
}

// schedule lays out every request of the run. Arrivals are evenly
// spaced at each phase's fixed rate. Each phase's query mix is zipfian
// over the popularity ranks with fixed counts (zipfCounts); the seed
// picks the order in which those queries are sent, which request of
// every batchEvery is a batch, and the order in which held-out pages are
// ingested. Fixing the counts keeps a seed's draw from moving the
// latency percentiles: only the arrival order differs between seeds.
func (c openLoop) schedule(seed int64, total time.Duration, ranks []int, heldPages int) ([]event, error) {
	nIngest := int(c.ingestRate * total.Seconds())
	if nIngest > heldPages {
		return nil, fmt.Errorf("schedule: %d ingests need more than the %d held-out pages", nIngest, heldPages)
	}
	mix := rand.New(rand.NewSource(streamSeed(seed, 0)))
	batches := rand.New(rand.NewSource(streamSeed(seed, 1)))
	pages := rand.New(rand.NewSource(streamSeed(seed, 2))).Perm(heldPages)

	loEnd := time.Duration(c.loShare * float64(total))
	phaseStart := [2]time.Duration{0, loEnd}
	phaseLen := [2]time.Duration{loEnd, total - loEnd}
	var evs []event
	for p, rate := range c.rates {
		n := int(rate * phaseLen[p].Seconds())
		phase := make([]event, n)
		slots := 0
		batchAt := -1
		for i := range phase {
			if i%c.batchEvery == 0 {
				batchAt = i + batches.Intn(c.batchEvery)
			}
			phase[i] = event{
				due:   phaseStart[p] + time.Duration(float64(i)/rate*float64(time.Second)),
				kind:  evQuery,
				phase: p,
			}
			size := 1
			if i == batchAt {
				phase[i].kind, size = evBatch, c.batchSize
			}
			phase[i].queries = make([]int, size)
			slots += size
		}
		var draw []int
		for k, cnt := range zipfCounts(slots, len(ranks), c.zipfS) {
			for ; cnt > 0; cnt-- {
				draw = append(draw, ranks[k])
			}
		}
		mix.Shuffle(len(draw), func(i, j int) { draw[i], draw[j] = draw[j], draw[i] })
		for i := range phase {
			draw = draw[copy(phase[i].queries, draw):]
		}
		evs = append(evs, phase...)
	}
	for j := 0; j < nIngest; j++ {
		due := time.Duration((float64(j) + 0.5) / c.ingestRate * float64(time.Second))
		phase := 0
		if due >= loEnd {
			phase = 1
		}
		evs = append(evs, event{due: due, kind: evIngest, phase: phase, page: pages[j]})
	}
	slices.SortStableFunc(evs, func(a, b event) int { return cmp.Compare(a.due, b.due) })
	return evs, nil
}

// zipfCounts splits n draws over ranks 0..k-1 in proportion to the
// zipfian weights (1+rank)^-s, the distribution of rand.NewZipf with
// v = 1, rounding by largest remainder so the counts sum to n.
func zipfCounts(n, k int, s float64) []int {
	w := make([]float64, k)
	var sum float64
	for r := range w {
		w[r] = math.Pow(float64(1+r), -s)
		sum += w[r]
	}
	counts := make([]int, k)
	rem := make([]int, k)
	left := n
	for r := range w {
		exact := float64(n) * w[r] / sum
		counts[r] = int(exact)
		left -= counts[r]
		w[r] = exact - float64(counts[r])
		rem[r] = r
	}
	// Ties go to the more popular rank, so the counts are fixed.
	slices.SortStableFunc(rem, func(a, b int) int { return cmp.Compare(w[b], w[a]) })
	for _, r := range rem[:left] {
		counts[r]++
	}
	return counts
}
