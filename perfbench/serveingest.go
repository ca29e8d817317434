package main

import (
	"cmp"
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wwt"
	"wwt/internal/serve"
	"wwt/internal/wtable"
)

// serveIngestLoad is the serving workload's traffic: evenly spaced
// arrivals at 50 requests per second for two thirds of the run, then at
// 100, one request in ten an 8-member batch, a zipfian query mix, and
// one held-out page ingested per second throughout. At 30 s both phases
// get 1000 requests, so both tails are true p99s.
var serveIngestLoad = openLoop{
	rates:      [2]float64{50, 100},
	loShare:    2.0 / 3,
	ingestRate: 1,
	batchEvery: 10,
	batchSize:  8,
	zipfS:      1.1,
}

const (
	// connections is the load generator's HTTP connection count: one per
	// CPU of the reference machine.
	connections = 2
	// maxLateMs bounds the generator's own dispatch lateness (p99): a
	// generator that cannot keep its schedule does not measure the server.
	// The generator shares the two CPUs with the server, so it waits for
	// one whenever a batch holds both; p99 lateness of 35 ms was seen on
	// valid runs. Requests are timed from their due time, so lateness
	// alone does not bias the latencies.
	maxLateMs = 100
	// sloLimit is the latency limit of requests at rate hi.
	sloLimit = 100 * time.Millisecond
	// postSwapRequests is how many backend calls after each generation
	// swap count as post-swap.
	postSwapRequests = 3
	// samplePeriod is how often the live engine's per-generation counters
	// are sampled.
	samplePeriod = 5 * time.Millisecond
)

// Headers the load generator sets on a traced request, so the handler
// and backend wrappers can attach their spans to the request's.
const (
	hdrReq  = "X-Perfbench-Req"
	hdrSpan = "X-Perfbench-Span"
	hdrPage = "X-Perfbench-Page"
)

// reqInfo identifies a traced request and its innermost span so far.
type reqInfo struct {
	req  int64
	span int32
}

type reqKey struct{}

// liveBackend is the server's backend: the LiveEngine, with spans
// recorded around AnswerBatchPlan and IngestTables of traced requests.
// It also keeps what was ingested, for the equivalence check at the end.
type liveBackend struct {
	le  *wwt.LiveEngine
	rec *Recorder

	pages    sync.Map // page URL -> reqInfo of the traced ingest carrying it
	lastGen  atomic.Uint64
	postSwap atomic.Int32

	mu       sync.Mutex
	ingested []ingestedPage
}

type ingestedPage struct {
	gen    uint64
	tables []*wtable.Table
}

var _ serve.LiveBackend = (*liveBackend)(nil)

func (b *liveBackend) CacheStats() wwt.EngineCacheStats { return b.le.CacheStats() }
func (b *liveBackend) PlanStats() wwt.PlanStats         { return b.le.PlanStats() }
func (b *liveBackend) Info() wwt.LiveInfo               { return b.le.Info() }

// afterSwap reports whether this call is among the first few after a
// generation swap.
func (b *liveBackend) afterSwap() bool {
	gen := b.le.Info().Generation
	if b.lastGen.Swap(gen) != gen {
		b.postSwap.Store(postSwapRequests)
	}
	return b.postSwap.Add(-1) >= 0
}

func (b *liveBackend) AnswerBatchPlan(ctx context.Context, queries []wwt.Query, workers int, perQuery time.Duration, bp wwt.BatchPlan) *wwt.BatchResult {
	postSwap := b.afterSwap()
	ri, _ := ctx.Value(reqKey{}).(reqInfo)
	if ri.span == 0 {
		return b.le.AnswerBatchPlan(ctx, queries, workers, perQuery, bp)
	}
	id := b.rec.Begin(spanBatch, ri.span, ri.req)
	start := time.Now()
	br := b.le.AnswerBatchPlan(ctx, queries, workers, perQuery, bp)
	a := Acct{Workers: int32(br.Timings.Workers), PostSwap: postSwap}
	if len(queries) == 1 {
		// A lone member runs from the batch start to its completion.
		if res := br.Results[0]; res != nil {
			s0 := b.rec.At(start)
			cid := b.rec.BeginAt(spanAnswer, id, ri.req, s0)
			b.rec.EndAt(cid, s0+int64(br.Latency[0]), queryAcct(res))
		}
	} else {
		for _, res := range br.Results {
			if res != nil {
				q := queryAcct(res)
				a.Queries++
				a.Stages.Add(q.Stages)
				a.Cands += q.Cands
				a.Probe2 += q.Probe2
			}
		}
	}
	b.rec.End(id, a)
	return br
}

func queryAcct(res *wwt.Result) Acct {
	return Acct{Queries: 1, Stages: res.Timings, Cands: int32(len(res.Tables)), Probe2: b2i(res.UsedProbe2)}
}

func (b *liveBackend) IngestTables(tables []*wtable.Table) (wwt.LiveInfo, error) {
	var ri reqInfo
	if len(tables) > 0 {
		if v, ok := b.pages.Load(pageURL(tables[0].ID)); ok {
			ri = v.(reqInfo)
		}
	}
	var id int32
	if ri.span != 0 {
		id = b.rec.Begin(spanIngest, ri.span, ri.req)
	}
	info, err := b.le.IngestTables(tables)
	b.rec.End(id, Acct{})
	if err == nil {
		b.mu.Lock()
		b.ingested = append(b.ingested, ingestedPage{gen: info.Generation, tables: tables})
		b.mu.Unlock()
	}
	return info, err
}

// pageURL strips the "#k" table suffix from a table ID.
func pageURL(tableID string) string {
	if i := strings.LastIndexByte(tableID, '#'); i >= 0 {
		return tableID[:i]
	}
	return tableID
}

// tracedHandler records a span around every traced request the server
// handles and hands the request's identity to the backend through the
// request context.
type tracedHandler struct {
	next http.Handler
	rec  *Recorder
	b    *liveBackend
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 32)
	if parent == 0 {
		h.next.ServeHTTP(w, r)
		return
	}
	req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
	name := spanHTTPAnswer
	if r.URL.Path == "/v1/ingest" {
		name = spanHTTPIngest
	}
	id := h.rec.Begin(name, int32(parent), req)
	ri := reqInfo{req: req, span: id}
	if page := r.Header.Get(hdrPage); page != "" {
		h.b.pages.Store(page, ri)
		defer h.b.pages.Delete(page)
	}
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	h.next.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), reqKey{}, ri)))
	h.rec.End(id, Acct{Status: int32(sw.status)})
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// runServeIngest serves the live engine over HTTP on loopback and drives
// it open-loop at rate lo then rate hi while ingesting held-out pages.
func runServeIngest(e *env) (*outcome, error) {
	w := e.w
	ref, err := referencePass(w.live.Answer, w.queries, w.corpus.Truth)
	if err != nil {
		return nil, fmt.Errorf("warm pass: %w", err)
	}
	evs, err := serveIngestLoad.schedule(e.seed, e.seconds, popularity(e.corpusSeed, len(w.queries)), len(w.held))
	if err != nil {
		return nil, err
	}
	bodies, err := requestBodies(evs, w)
	if err != nil {
		return nil, err
	}

	backend := &liveBackend{le: w.live, rec: e.rec}
	var handler http.Handler = serve.New(backend, serve.Config{})
	if e.rec != nil {
		handler = &tracedHandler{next: handler, rec: e.rec, b: backend}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	transport := &http.Transport{MaxConnsPerHost: connections, MaxIdleConnsPerHost: connections, DisableCompression: true}
	defer func() {
		transport.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		<-served
	}()

	g := &loadgen{e: e, client: &http.Client{Transport: transport, Timeout: 60 * time.Second},
		base: "http://" + ln.Addr().String(), evs: evs, bodies: bodies}
	for _, p := range w.held {
		g.pages = append(g.pages, p.URL)
	}
	if err := g.warm(w); err != nil {
		return nil, err
	}

	out := &outcome{mappingErr: ref.errPct}
	runtime.GC() // start the timed run from a collected heap
	// Counter snapshots feed only the traced run's per-layer metrics; an
	// untraced run neither samples nor snapshots, so nothing but the
	// server and the generator shares the CPUs while it measures.
	snap := func(string) {}
	stopSampling := func() {}
	if e.rec != nil {
		ctr := newCounters(w)
		stop := make(chan struct{})
		var sampling sync.WaitGroup
		sampling.Add(1)
		go func() {
			defer sampling.Done()
			ctr.sampleEvery(samplePeriod, stop)
		}()
		stopSampling = func() { close(stop); sampling.Wait() }
		snap = func(phase string) { out.snaps = append(out.snaps, ctr.snapshot(phase, g.count.load())) }
	}
	snap("start")
	g.onPhase = func(phase int) {
		if phase == 1 {
			snap("lo")
		}
	}
	runStart := time.Now()
	res, late, backlog := g.run()
	runEnd := time.Now()
	stopSampling()
	snap("end")
	out.rssMB = peakRSSMB()

	if err := g.validate(late, backlog); err != nil {
		return nil, err
	}
	var answered int
	for i, ev := range evs {
		s := res[i]
		out.attempted += int64(max(len(ev.queries), 1))
		out.failed += int64(s.failed)
		if s.malformed != "" {
			out.problems = append(out.problems, "malformed "+s.malformed)
		}
		if ev.kind == evIngest {
			continue
		}
		answered += len(ev.queries) - s.failed
		lat := ms(s.lat)
		if ev.phase == 0 {
			out.lat = append(out.lat, lat)
		} else {
			out.hi = append(out.hi, lat)
			if s.failed > 0 || s.lat > sloLimit {
				out.hiMissed++
			}
		}
		// Tracing overhead compares single-query requests only, so the
		// batches' share cannot differ between the two halves.
		if e.rec != nil && ev.kind == evQuery {
			if i%2 == 0 {
				out.latTraced = append(out.latTraced, lat)
			} else {
				out.latUntraced = append(out.latUntraced, lat)
			}
		}
	}
	out.throughput = float64(answered) / runEnd.Sub(runStart).Seconds()

	// After the timed run: the live engine, with everything ingested and
	// merged, must answer exactly as an in-memory engine over the same
	// tables in the same order.
	w.live.WaitMerges()
	final, err := referencePass(w.live.Answer, w.queries, w.corpus.Truth)
	if err != nil {
		return nil, fmt.Errorf("final pass: %w", err)
	}
	backend.mu.Lock()
	pages := slices.Clone(backend.ingested)
	backend.mu.Unlock()
	slices.SortFunc(pages, func(a, b ingestedPage) int { return cmp.Compare(a.gen, b.gen) })
	tables := slices.Clone(w.tables)
	for _, p := range pages {
		tables = append(tables, p.tables...)
	}
	diff, err := compareWithMemory(tables, w.queries, final.prints)
	if err != nil {
		return nil, err
	}
	if len(diff) > 0 {
		out.problems = append(out.problems, fmt.Sprintf("live answers after ingest differ from wwt.NewEngine on queries %v", diff))
	}
	return out, nil
}
