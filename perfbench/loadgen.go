package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Response bodies, as far as the checks read them. Unmarshal still
// checks that the whole body is well-formed JSON; keeping the rows raw
// spares the generator from allocating every cell while it keeps time.
type memberJSON struct {
	Rows  json.RawMessage `json:"rows"`
	Error string          `json:"error"`
}

// answered reports whether the member carries an array of rows and no
// error.
func (m memberJSON) answered() bool {
	return m.Error == "" && len(m.Rows) > 0 && m.Rows[0] == '['
}

type batchJSON struct {
	Results []memberJSON `json:"results"`
}

type ingestJSON struct {
	Ingested   int    `json:"ingested"`
	Generation uint64 `json:"generation"`
}

// sent is the outcome of one open-loop request.
type sent struct {
	lat       time.Duration // due time to response read
	wait      time.Duration // dispatch to send: waiting for a free connection
	failed    int           // member queries or ingests that failed
	shed      bool
	malformed string // why a 200 response failed its check
}

// check validates a response: a 200 with a well-formed body of the
// expected shape. Member errors count as failed queries.
func (s *sent) check(ev event, status int, body []byte) {
	n := max(len(ev.queries), 1)
	if status != http.StatusOK {
		s.failed, s.shed = n, status == http.StatusTooManyRequests
		return
	}
	switch ev.kind {
	case evQuery:
		var m memberJSON
		if err := json.Unmarshal(body, &m); err != nil || !m.answered() {
			s.failed, s.malformed = 1, fmt.Sprintf("answer response %.80q", body)
		}
	case evBatch:
		var b batchJSON
		if err := json.Unmarshal(body, &b); err != nil || len(b.Results) != n {
			s.failed, s.malformed = n, fmt.Sprintf("batch response %.80q", body)
			return
		}
		for _, m := range b.Results {
			if !m.answered() {
				s.failed++
			}
		}
	case evIngest:
		var in ingestJSON
		if err := json.Unmarshal(body, &in); err != nil || in.Ingested < 1 || in.Generation == 0 {
			s.failed, s.malformed = 1, fmt.Sprintf("ingest response %.80q", body)
		}
	}
}

// requestBodies encodes every event's request body before the run, so
// the generator does no encoding while it keeps time.
func requestBodies(evs []event, w *world) ([][]byte, error) {
	type cols struct {
		Columns []string `json:"columns"`
	}
	bodies := make([][]byte, len(evs))
	for i, ev := range evs {
		var v any
		switch ev.kind {
		case evQuery:
			v = cols{w.queries[ev.queries[0]].Columns}
		case evBatch:
			qs := make([]cols, len(ev.queries))
			for j, qi := range ev.queries {
				qs[j] = cols{w.queries[qi].Columns}
			}
			v = struct {
				Queries []cols `json:"queries"`
			}{qs}
		case evIngest:
			p := w.held[ev.page]
			v = struct {
				HTML string `json:"html"`
				URL  string `json:"url"`
			}{p.HTML, p.URL}
		}
		b, err := json.Marshal(v)
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	return bodies, nil
}

// opCounter counts completed operations for the counter snapshots.
type opCounter struct {
	queries, requests, shed, attempted, failed atomic.Int64
}

func (c *opCounter) load() ops {
	return ops{Queries: c.queries.Load(), Requests: c.requests.Load(), Shed: c.shed.Load(),
		Attempted: c.attempted.Load(), Failed: c.failed.Load()}
}

// loadgen sends the scheduled requests over a fixed number of
// connections. The dispatcher hands each request to a sender when it
// falls due; a request's latency runs from its due time, so a stalled
// server also charges the requests queued behind the stall.
type loadgen struct {
	e       *env
	client  *http.Client
	base    string
	evs     []event
	bodies  [][]byte
	pages   []string // URL of each held-out page
	count   opCounter
	onPhase func(phase int) // called as the first request of a phase is dispatched
}

// run sends every request and returns, index-aligned with the events,
// each one's outcome, how late the dispatcher was, and how many requests
// were outstanding as each was dispatched.
func (g *loadgen) run() (out []sent, late []time.Duration, backlog []int64) {
	n := len(g.evs)
	out, late, backlog = make([]sent, n), make([]time.Duration, n), make([]int64, n)
	dispatched := make([]time.Time, n)
	work := make(chan int, n) // sized to the number of sends: never blocks the dispatcher
	var completed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now().Add(10 * time.Millisecond)
	for c := 0; c < connections; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				out[i] = g.send(i, start.Add(g.evs[i].due), dispatched[i], late[i])
				completed.Add(1)
			}
		}()
	}
	phase := -1
	for i, ev := range g.evs {
		due := start.Add(ev.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if ev.phase != phase {
			phase = ev.phase
			g.onPhase(phase)
		}
		dispatched[i] = time.Now()
		late[i] = dispatched[i].Sub(due)
		backlog[i] = int64(i) - completed.Load()
		work <- i
	}
	close(work)
	wg.Wait()
	return out, late, backlog
}

// send issues request i and checks its response.
func (g *loadgen) send(i int, due, dispatched time.Time, late time.Duration) sent {
	e, ev := g.e, g.evs[i]
	traced := e.rec != nil && (ev.kind == evIngest || i%2 == 0)
	path, spanName := "/v1/answer", spanRequest
	if ev.kind == evIngest {
		path, spanName = "/v1/ingest", spanRequestIngest
	}
	var sid int32
	hr, err := http.NewRequest(http.MethodPost, g.base+path, bytes.NewReader(g.bodies[i]))
	if err != nil {
		panic(err) // a fixed loopback URL: a bug, not input
	}
	hr.Header.Set("Content-Type", "application/json")
	if traced {
		req := e.reqs.Add(1)
		sid = e.rec.BeginAt(spanName, 0, req, e.rec.At(due))
		hr.Header.Set(hdrReq, strconv.FormatInt(req, 10))
		hr.Header.Set(hdrSpan, strconv.FormatInt(int64(sid), 10))
		if ev.kind == evIngest {
			hr.Header.Set(hdrPage, g.pages[ev.page])
		}
	}
	start := time.Now()
	s := sent{wait: start.Sub(dispatched)}
	status := 0
	resp, err := g.client.Do(hr)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		status = resp.StatusCode
	}
	end := time.Now()
	s.lat = end.Sub(due)
	if err != nil {
		s.failed = max(len(ev.queries), 1)
	} else {
		s.check(ev, status, body)
	}
	e.rec.End(sid, Acct{Late: int64(late), Wait: int64(s.wait), Status: int32(status)})

	n := int64(max(len(ev.queries), 1))
	g.count.attempted.Add(n)
	g.count.failed.Add(int64(s.failed))
	g.count.requests.Add(1)
	if s.shed {
		g.count.shed.Add(1)
	}
	if ev.kind != evIngest {
		g.count.queries.Add(n - int64(s.failed))
	}
	return s
}

// warm sends each query once through HTTP, untimed, so the connections
// are open and the server's code paths are warm.
func (g *loadgen) warm(w *world) error {
	for _, q := range w.queries {
		body, _ := json.Marshal(map[string][]string{"columns": q.Columns})
		resp, err := g.client.Post(g.base+"/v1/answer", "application/json", bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("warm-up request: %w", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("warm-up request: status %d", resp.StatusCode)
		}
	}
	return nil
}

// validate rejects a run whose generator could not keep its schedule
// or whose backlog of outstanding requests grew across a phase: its
// latencies would describe the generator, not the server.
func (g *loadgen) validate(late []time.Duration, backlog []int64) error {
	lateMs := make([]float64, len(late))
	for i, l := range late {
		lateMs[i] = ms(l)
	}
	if _, p99, ok := tail(sorted(lateMs)); ok && p99 > maxLateMs {
		return fmt.Errorf("%w: the generator dispatched p99 %.1f ms late (limit %d ms)", errInvalidRun, p99, maxLateMs)
	}
	for phase := 0; phase < 2; phase++ {
		var idx []int
		for i, ev := range g.evs {
			if ev.phase == phase {
				idx = append(idx, i)
			}
		}
		half := len(idx) / 2
		var first, second float64
		for j, i := range idx {
			if j < half {
				first += float64(backlog[i])
			} else {
				second += float64(backlog[i])
			}
		}
		first /= float64(max(half, 1))
		second /= float64(max(len(idx)-half, 1))
		if second > 2*first+4 {
			return fmt.Errorf("%w: phase %d backlog grew from %.1f to %.1f outstanding requests", errInvalidRun, phase, first, second)
		}
	}
	return nil
}

var errInvalidRun = errors.New("invalid run")
