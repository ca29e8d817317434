package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"wwt"
)

// closedOrder builds the client's query order. A shuffled order draws a
// new permutation every pass; a cyclic order repeats one seeded
// permutation, so every pass touches the queries in the same order.
func closedOrder(kind string, seed int64, n int) order {
	if kind == "shuffled" {
		return newShuffled(streamSeed(seed, 0), n)
	}
	return &cyclic{perm: rand.New(rand.NewSource(streamSeed(seed, 1))).Perm(n)}
}

// runClosedLoop is the library-path workload: one closed-loop client
// sends its next query only after the previous answer arrived, for the
// whole measured time, and checks every answer against the warm pass. In
// a traced run every other query records a span around the Answer call.
func runClosedLoop(orderKind string) func(e *env) (*outcome, error) {
	return func(e *env) (*outcome, error) {
		w := e.w
		answer := w.answerer()
		ref, err := referencePass(answer, w.queries, w.corpus.Truth)
		if err != nil {
			return nil, fmt.Errorf("warm pass: %w", err)
		}
		queries := make([]wwt.Query, len(w.queries))
		for i, q := range w.queries {
			queries[i] = wwt.Query{Columns: q.Columns}
		}
		out := &outcome{mappingErr: ref.errPct, lat: make([]float64, 0, 1<<15)}
		runtime.GC() // start the timed run from a collected heap
		ctr := newCounters(w)
		var done, failed atomic.Int64
		snap := func(phase string) {
			n, f := done.Load(), failed.Load()
			out.snaps = append(out.snaps, ctr.snapshot(phase, ops{Queries: n, Requests: n + f, Attempted: n + f, Failed: f}))
		}

		snap("start")
		next := closedOrder(orderKind, e.seed, len(queries))
		var wrong int
		start := time.Now()
		deadline := start.Add(e.seconds)
		for i := 0; time.Now().Before(deadline); i++ {
			qi := next.next()
			traced := e.rec != nil && i%2 == 0
			var id int32
			if traced {
				id = e.rec.Begin(spanAnswer, 0, e.reqs.Add(1))
			}
			t0 := time.Now()
			res, err := answer(queries[qi])
			lat := ms(time.Since(t0))
			if err != nil {
				e.rec.End(id, Acct{})
				failed.Add(1)
				continue
			}
			e.rec.End(id, queryAcct(res))
			if resultPrint(res) != ref.prints[qi] {
				wrong++
			}
			res.Release()
			done.Add(1)
			out.lat = append(out.lat, lat)
			if e.rec != nil {
				if traced {
					out.latTraced = append(out.latTraced, lat)
				} else {
					out.latUntraced = append(out.latUntraced, lat)
				}
			}
		}
		out.throughput = float64(done.Load()) / time.Since(start).Seconds()
		snap("end")
		out.rssMB = peakRSSMB()
		out.attempted, out.failed = done.Load()+failed.Load(), failed.Load()
		if wrong > 0 {
			out.problems = append(out.problems, fmt.Sprintf("%d timed answers differ from the warm pass", wrong))
		}

		// The flat-directory engine must answer exactly as an in-memory
		// engine over the same tables; checked after the timed run.
		if w.live != nil {
			diff, err := compareWithMemory(w.tables, w.queries, ref.prints)
			if err != nil {
				return nil, err
			}
			if len(diff) > 0 {
				out.problems = append(out.problems, fmt.Sprintf("OpenLive answers differ from wwt.NewEngine on queries %v", diff))
			}
		}
		return out, nil
	}
}

func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}
