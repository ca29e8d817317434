package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"

	"wwt"
)

// Acct is the accounting a span carries besides its interval. Query
// accounting (Queries, Stages, Cands, Probe2) sits on the lowest span
// that knows it, so summing it over all spans counts every query once.
type Acct struct {
	Queries int32       `json:"queries,omitempty"`
	Stages  wwt.Timings `json:"stages"`
	Cands   int32       `json:"cands,omitempty"`
	Probe2  int32       `json:"probe2,omitempty"`
	// Workers is the worker count of a batch span.
	Workers int32 `json:"workers,omitempty"`
	// Late is how late the load generator dispatched a request and Wait
	// how long the request then waited for a free connection, in ns.
	Late int64 `json:"late_ns,omitempty"`
	Wait int64 `json:"wait_ns,omitempty"`
	// PostSwap marks a backend span among the first after a generation
	// swap.
	PostSwap bool `json:"post_swap,omitempty"`
	// Status is the HTTP status of a request span.
	Status int32 `json:"status,omitempty"`
}

// Span is one interval the benchmark recorded around a call into the
// program. Times are nanoseconds since the recorder's epoch; Parent is
// the ID of the span that caused this one (0 for a root), and spans of
// one request share Req.
type Span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Acct
}

// Dur returns the span's duration.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Span names. The part before the dot is the layer.
const (
	spanSetup         = "setup"
	spanSetupGen      = "setup.gen"
	spanSetupExtract  = "setup.extract"
	spanSetupIndex    = "setup.index"
	spanSetupOpen     = "setup.open"
	spanAnswer        = "pipeline.answer" // one Engine/LiveEngine.Answer call
	spanRequest       = "loadgen.request" // answer request, due time to response read
	spanRequestIngest = "loadgen.ingest"  // ingest request, due time to response read
	spanHTTPAnswer    = "serve.answer"    // POST /v1/answer handler
	spanHTTPIngest    = "serve.ingest"    // POST /v1/ingest handler
	spanBatch         = "batch.answer"    // backend AnswerBatchPlan
	spanIngest        = "live.ingest"     // backend IngestTables
)

// Recorder keeps spans in memory until the run ends. A nil *Recorder
// records nothing, so untraced code paths pay one nil check.
type Recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

// NewRecorder returns a recorder with room for capacity spans before its
// buffer grows.
func NewRecorder(capacity int) *Recorder {
	return &Recorder{epoch: time.Now(), spans: make([]Span, 0, capacity)}
}

// At converts a wall-clock instant to recorder time.
func (r *Recorder) At(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// Begin opens a span starting now and returns its ID (0 on a nil
// recorder).
func (r *Recorder) Begin(name string, parent int32, req int64) int32 {
	if r == nil {
		return 0
	}
	return r.BeginAt(name, parent, req, r.At(time.Now()))
}

// BeginAt opens a span with an explicit start, such as a request's due
// time.
func (r *Recorder) BeginAt(name string, parent int32, req int64, start int64) int32 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	id := int32(len(r.spans) + 1)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Req: req, Name: name, Start: start})
	r.mu.Unlock()
	return id
}

// End closes span id now and attaches its accounting.
func (r *Recorder) End(id int32, a Acct) {
	if r == nil || id == 0 {
		return
	}
	r.EndAt(id, r.At(time.Now()), a)
}

// EndAt closes span id at an explicit end and attaches its accounting.
func (r *Recorder) EndAt(id int32, end int64, a Acct) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	s := &r.spans[id-1]
	s.End = end
	s.Acct = a
	r.mu.Unlock()
}

// Spans returns the recorded spans. Call it once every span has ended.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.spans)
}

// SelfTimes returns, indexed like spans, each span's duration minus the
// part of its interval that its children's intervals cover. Children are
// clipped to the parent's interval and overlapping children are counted
// once, so concurrent children cannot drive self time negative.
func SelfTimes(spans []Span) []time.Duration {
	byID := make(map[int32]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
	}
	children := make([][][2]int64, len(spans))
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok && s.Parent != 0 {
			children[p] = append(children[p], [2]int64{s.Start, s.End})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.Dur() - time.Duration(coverage(s.Start, s.End, children[i]))
	}
	return out
}

// coverage returns the length of the union of ivs clipped to [lo, hi].
func coverage(lo, hi int64, ivs [][2]int64) int64 {
	slices.SortFunc(ivs, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total int64
	cur := lo // everything before cur is already counted
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// Trace is everything a traced run leaves behind: the spans, the counter
// snapshots taken at phase boundaries, the latency samples split by
// whether the operation was traced (for the tracing overhead), and the
// latencies at the open loop's higher rate.
type Trace struct {
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Spans    []Span     `json:"spans"`
	Snaps    []Snapshot `json:"snapshots"`
	// LatMs are the latencies of the end-to-end latency metric: every
	// Answer call of a closed loop, or every request at the open loop's
	// rate lo. LatTracedMs and LatUntracedMs are those of the operations
	// that did and did not record spans.
	LatMs         []float64 `json:"lat_ms"`
	LatTracedMs   []float64 `json:"lat_traced_ms"`
	LatUntracedMs []float64 `json:"lat_untraced_ms"`
	// HiLatMs are the request latencies at the open loop's rate hi, of
	// which HiMissed failed, were shed or exceeded the latency limit.
	HiLatMs  []float64 `json:"hi_lat_ms"`
	HiMissed int       `json:"hi_missed"`
}

// writeTrace stores t as JSON at path.
func writeTrace(path string, t *Trace) error {
	data, err := json.Marshal(t)
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

// readTrace loads a trace written by writeTrace.
func readTrace(path string) (*Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read trace: %w", err)
	}
	var t Trace
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("decode trace %s: %w", path, err)
	}
	return &t, nil
}
