package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

// The tail is the highest percentile with at least ten samples above it.
func TestTailPercentileRule(t *testing.T) {
	cases := []struct {
		n     int
		wantP float64
		ok    bool
	}{
		{100000, 99, true}, // p99 is the highest tail reported
		{1000, 99, true},   // rank 990: exactly 10 beyond
		{999, 98, true},    // p99 rank 990 leaves 9 beyond
		{400, 97, true},    // p98 rank 392 leaves 8; p97 rank 388 leaves 12
		{20, 50, true},     // only the median has 10 beyond
		{19, 0, false},     // not even the median does
	}
	for _, c := range cases {
		p, v, ok := tail(seq(c.n))
		if p != c.wantP || ok != c.ok {
			t.Errorf("tail(n=%d) = p%g ok=%v, want p%g ok=%v", c.n, p, ok, c.wantP, c.ok)
			continue
		}
		if ok {
			r := rank(p, c.n)
			if v != float64(r) || c.n-r < minBeyond {
				t.Errorf("n=%d p%g: value %g at rank %d with %d beyond", c.n, p, v, r, c.n-r)
			}
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

// Self time subtracts the union of the children's intervals, clipped to
// the parent, and leaves grandchildren to their own parent.
func TestSelfTimesNested(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60}, // overlaps a
		{ID: 4, Parent: 2, Name: "a.child", Start: 15, End: 20},
		{ID: 5, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past root
		{ID: 6, Name: "other", Start: 0, End: 7},
	}
	want := []time.Duration{
		100 - 50 - 10, // [10,60) and [90,100) covered
		30 - 5,
		30,
		5,
		30,
		7,
	}
	if got := SelfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("SelfTimes = %v, want %v", got, want)
	}
}

// Spans recorded from several goroutines at once keep distinct IDs and
// their own ends.
func TestRecorderConcurrent(t *testing.T) {
	rec := NewRecorder(16) // small, so the buffer grows while in use
	const workers, each = 4, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				id := rec.Begin("x", 0, int64(w))
				rec.End(id, Acct{Queries: int32(w + 1)})
			}
		}()
	}
	wg.Wait()
	spans := rec.Spans()
	if len(spans) != workers*each {
		t.Fatalf("recorded %d spans, want %d", len(spans), workers*each)
	}
	for i, s := range spans {
		if s.ID != int32(i+1) || s.End < s.Start || s.Queries != int32(s.Req+1) {
			t.Fatalf("span %d = %+v", i, s)
		}
	}
	var nilRec *Recorder
	nilRec.End(nilRec.Begin("x", 0, 0), Acct{})
}

// The summarizer turns spans into per-layer self times.
func TestSummarizeServeSelfTime(t *testing.T) {
	tr := &Trace{Spans: []Span{
		{ID: 1, Name: spanRequest, Start: 0, End: 100, Acct: Acct{Late: 2, Wait: 3}},
		{ID: 2, Parent: 1, Name: spanHTTPAnswer, Start: 10, End: 90},
		{ID: 3, Parent: 2, Name: spanBatch, Start: 20, End: 80},
		{ID: 4, Parent: 3, Name: spanAnswer, Start: 20, End: 70, Acct: Acct{Queries: 1, Cands: 4, Probe2: 1}},
	}}
	tr.Spans[3].Stages.Probe2 = 30
	tr.Spans[3].Stages.ColumnMap = 10
	v := summarize(tr)
	if got, want := v["serve.self_ms"], ms(80-60); got != want {
		t.Errorf("serve.self_ms = %g, want %g", got, want)
	}
	if got, want := v["pipeline.untimed_ms"], ms(50-40); got != want {
		t.Errorf("pipeline.untimed_ms = %g, want %g", got, want)
	}
	if v["pipeline.probe2_fired_pct"] != 100 || v["pipeline.candidates_per_query"] != 4 {
		t.Errorf("query accounting: %v", v)
	}
}

// zipfCounts apportions exactly n draws, more to higher ranks.
func TestZipfCounts(t *testing.T) {
	for _, n := range []int{0, 1, 58, 59, 1000, 1337} {
		c := zipfCounts(n, 59, 1.1)
		sum := 0
		for r, x := range c {
			sum += x
			if r > 0 && x > c[r-1] {
				t.Errorf("n=%d: rank %d gets %d, more than rank %d's %d", n, r, x, r-1, c[r-1])
			}
		}
		if sum != n {
			t.Errorf("n=%d: counts sum to %d", n, sum)
		}
	}
	// The top rank of 59 holds 1/H(59, 1.1) of the mass: about 23%.
	if c := zipfCounts(1000, 59, 1.1); c[0] < 200 || c[0] > 260 {
		t.Errorf("top rank gets %d of 1000", c[0])
	}
}

// Schedules are a pure function of the seed.
func TestSchedulesSeeded(t *testing.T) {
	load := serveIngestLoad
	total := 15 * time.Second
	ranks := popularity(2012, 59)
	sched := func(seed int64) []event {
		evs, err := load.schedule(seed, total, ranks, 40)
		if err != nil {
			t.Fatal(err)
		}
		return evs
	}
	a, b, c := sched(1), sched(1), sched(2)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave different open-loop schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same open-loop schedule")
	}

	kinds := map[eventKind]int{}
	pages := map[int]bool{}
	loEnd := time.Duration(load.loShare * float64(total))
	for i, ev := range a {
		kinds[ev.kind]++
		if i > 0 && ev.due < a[i-1].due {
			t.Fatalf("event %d due before event %d", i, i-1)
		}
		if (ev.due < loEnd) != (ev.phase == 0) {
			t.Fatalf("event %d due at %v is in phase %d", i, ev.due, ev.phase)
		}
		switch ev.kind {
		case evBatch:
			if len(ev.queries) != load.batchSize {
				t.Errorf("batch of %d, want %d", len(ev.queries), load.batchSize)
			}
		case evIngest:
			if pages[ev.page] {
				t.Errorf("page %d ingested twice", ev.page)
			}
			pages[ev.page] = true
		}
	}
	requests := int(load.rates[0]*loEnd.Seconds()) + int(load.rates[1]*(total-loEnd).Seconds())
	if kinds[evQuery]+kinds[evBatch] != requests || kinds[evBatch] != requests/load.batchEvery {
		t.Errorf("got %d queries and %d batches, want %d requests, one in %d a batch", kinds[evQuery], kinds[evBatch], requests, load.batchEvery)
	}
	if kinds[evIngest] != int(load.ingestRate*total.Seconds()) {
		t.Errorf("got %d ingests, want %d", kinds[evIngest], int(load.ingestRate*total.Seconds()))
	}
	if _, err := load.schedule(1, total, ranks, 3); err == nil {
		t.Error("a schedule needing more pages than held out was accepted")
	}

	// Every seed sends the same zipfian mix in each phase, in another
	// order; the mix favors the top-ranked query.
	mix := func(evs []event) [2]map[int]int {
		m := [2]map[int]int{{}, {}}
		for _, ev := range evs {
			for _, q := range ev.queries {
				m[ev.phase][q]++
			}
		}
		return m
	}
	counts := mix(a)
	if !reflect.DeepEqual(counts, mix(c)) {
		t.Error("different seeds sent different query mixes")
	}
	for q, n := range counts[0] {
		if n > counts[0][ranks[0]] {
			t.Errorf("query %d drawn %d times, more than the top-ranked query's %d", q, n, counts[0][ranks[0]])
		}
	}

	for _, kind := range []string{"shuffled", "cyclic"} {
		draw := func(seed int64) []int {
			o := closedOrder(kind, seed, 59)
			out := make([]int, 200)
			for i := range out {
				out[i] = o.next()
			}
			return out
		}
		if !reflect.DeepEqual(draw(1), draw(1)) {
			t.Errorf("%s: the same seed gave different orders", kind)
		}
		if reflect.DeepEqual(draw(1), draw(2)) {
			t.Errorf("%s: different seeds gave the same order", kind)
		}
	}
}

// Every pass of a shuffled order is a permutation; a cyclic order
// repeats its first pass.
func TestClosedOrders(t *testing.T) {
	s := newShuffled(7, 59)
	for pass := 0; pass < 3; pass++ {
		seen := map[int]bool{}
		for i := 0; i < 59; i++ {
			seen[s.next()] = true
		}
		if len(seen) != 59 {
			t.Fatalf("pass %d touched %d distinct queries, want 59", pass, len(seen))
		}
	}
	c := closedOrder("cyclic", 7, 59)
	first := make([]int, 59)
	for i := range first {
		first[i] = c.next()
	}
	for i := range first {
		if q := c.next(); q != first[i] {
			t.Fatalf("second pass position %d = %d, want %d", i, q, first[i])
		}
	}
}

// A response counts as failed unless it is a 200 with a well-formed body
// of the expected shape; batch member errors count one by one.
func TestResponseChecks(t *testing.T) {
	single := event{kind: evQuery, queries: []int{0}}
	batch := event{kind: evBatch, queries: []int{0, 1, 2}}
	ingest := event{kind: evIngest}
	cases := []struct {
		ev        event
		status    int
		body      string
		failed    int
		shed      bool
		malformed bool
	}{
		{single, 200, `{"rows":[{"cells":["a"],"support":1}]}`, 0, false, false},
		{single, 200, `{"rows":[]}`, 0, false, false},
		{single, 200, `{"rows":[`, 1, false, true},
		{single, 429, `{"error":"overloaded"}`, 1, true, false},
		{batch, 200, `{"results":[{"rows":[]},{"error":"deadline"},{"rows":[]}]}`, 1, false, false},
		{batch, 200, `{"results":[{"rows":[]}]}`, 3, false, true},
		{batch, 400, `{"error":"bad"}`, 3, false, false},
		{ingest, 200, `{"ingested":2,"generation":3}`, 0, false, false},
		{ingest, 200, `{"ingested":0,"generation":3}`, 1, false, true},
	}
	for i, c := range cases {
		var s sent
		s.check(c.ev, c.status, []byte(c.body))
		if s.failed != c.failed || s.shed != c.shed || (s.malformed != "") != c.malformed {
			t.Errorf("case %d: failed=%d shed=%v malformed=%q, want %d %v %v", i, s.failed, s.shed, s.malformed, c.failed, c.shed, c.malformed)
		}
	}
}

// BENCHMARK.json declares exactly the workloads and metrics this program
// runs and prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEndMetrics) {
		t.Errorf("BENCHMARK.json end_to_end %v,\nprogram prints %v", spec.EndToEnd, endToEndMetrics)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayerMetrics) {
		t.Errorf("BENCHMARK.json per_layer %v,\nprogram prints %v", spec.PerLayer, perLayerMetrics)
	}
}
