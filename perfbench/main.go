// Command perfbench is the query engine's benchmark. It builds one
// workload's corpus from a seed, runs the workload with tracing off and
// prints every end-to-end metric; with --trace 1 it runs the same
// workload while recording spans around every call into the engine and
// prints every per-layer metric instead. Every run checks its answers
// and exits non-zero when a check fails.
//
//	bash perfbench/run.sh --workload small-fit --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --summarize .bench_build/perfbench/trace-small-fit-1.json
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// perfbench/README.md documents the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"time"
)

// setupReps is how many times a run sets its corpus up; setup_s is the
// median, so one slow set-up does not move it.
const setupReps = 5

// workDirRoot holds every file a run writes, relative to the checkout
// root the benchmark runs from.
const workDirRoot = ".bench_build/perfbench"

// workloadDef is one workload: how its corpus is built and how it runs.
type workloadDef struct {
	name  string
	world worldSpec
	run   func(*env) (*outcome, error)
}

var workloads = []workloadDef{
	{name: "small-fit", world: worldSpec{scale: 0.5}, run: runClosedLoop("shuffled")},
	{name: "large-spill", world: worldSpec{scale: 5, flat: true}, run: runClosedLoop("cyclic")},
	{name: "serve-ingest", world: worldSpec{scale: 2, flat: true, holdOutEvery: 10}, run: runServeIngest},
}

// env is what a workload runs with.
type env struct {
	w          *world
	seed       int64
	corpusSeed int64
	seconds    time.Duration // measured time
	rec        *Recorder     // nil with tracing off
	reqs       atomic.Int64  // request IDs
}

// outcome is what a workload measured.
type outcome struct {
	// lat are the latency samples (ms) of the end-to-end metrics: every
	// Answer call of a closed loop, or every request at rate lo.
	lat []float64
	// hi are the request latencies (ms) at rate hi, of which hiMissed
	// failed, were shed or exceeded sloLimit.
	hi         []float64
	hiMissed   int
	throughput float64 // completed queries per second
	mappingErr float64
	rssMB      float64

	attempted, failed int64
	problems          []string // failed correctness checks

	snaps                  []Snapshot
	latTraced, latUntraced []float64
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: small-fit, large-spill or serve-ingest")
	seed := fs.Int64("seed", 1, "traffic seed: query order, query mix, batch positions and ingest order")
	corpusSeed := fs.Int64("corpus-seed", 2012, "corpus generator seed")
	seconds := fs.Float64("seconds", 30, "measured time of the run")
	traceOn := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics instead of the end-to-end ones")
	summarizeFile := fs.String("summarize", "", "print the per-layer metrics of a trace file written by a traced run, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *summarizeFile != "" {
		t, err := readTrace(*summarizeFile)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		printMetrics(stdout, perLayerMetrics, summarize(t))
		return 0
	}
	def, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}

	workDir := filepath.Join(workDirRoot, fmt.Sprintf("%s-%d", def.name, os.Getpid()))
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(workDir)

	e := &env{seed: *seed, corpusSeed: *corpusSeed, seconds: time.Duration(*seconds * float64(time.Second))}
	if *traceOn == 1 {
		e.rec = NewRecorder(1 << 16)
	}
	w, steps, err := setUp(def.world, e.corpusSeed, workDir, setupReps, e.rec)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: set-up:", err)
		return 1
	}
	defer w.close()
	e.w = w
	out, err := def.run(e)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, p := range out.problems {
		fmt.Fprintln(stderr, "perfbench: correctness check failed:", p)
	}

	res := result{Correct: len(out.problems) == 0, Attempted: out.attempted, Failed: out.failed}
	if e.rec == nil {
		vals, notes := endToEnd(out, steps)
		fmt.Fprintln(stdout, notes)
		printMetrics(stdout, endToEndMetrics, vals)
		res.Metrics = metricValues(endToEndMetrics, vals)
	} else {
		t := &Trace{Workload: def.name, Seed: e.seed, Spans: e.rec.Spans(), Snaps: out.snaps,
			LatMs: out.lat, LatTracedMs: out.latTraced, LatUntracedMs: out.latUntraced, HiLatMs: out.hi, HiMissed: out.hiMissed}
		path := filepath.Join(workDirRoot, fmt.Sprintf("trace-%s-%d.json", def.name, e.seed))
		if err := writeTrace(path, t); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, "trace written to", path)
		vals := summarize(t)
		printMetrics(stdout, perLayerMetrics, vals)
		res.Metrics = metricValues(perLayerMetrics, vals)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func findWorkload(name string) (workloadDef, bool) {
	for _, d := range workloads {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric, its unit and which direction is better.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEndMetrics are what a user of the engine sees; every workload
// reports all of them.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"throughput_qps", "1/s", "higher"},
	{"mapping_err_pct", "%", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayerMetrics come from a traced run. A metric of a layer that a
// workload does not exercise reads 0.
var perLayerMetrics = []metricDef{
	{"pipeline.probe2_ms", "ms", "lower"},
	{"pipeline.untimed_ms", "ms", "lower"},
	{"pipeline.probe2_fired_pct", "%", "lower"},
	{"pipeline.candidates_per_query", "count", "lower"},
	{"core.build_ms", "ms", "lower"},
	{"core.pairsim_hit_pct", "%", "higher"},
	{"core.view_hit_pct", "%", "higher"},
	{"consolidate.ms", "ms", "lower"},
	{"inference.solve_ms", "ms", "lower"},
	{"index.probe1_ms", "ms", "lower"},
	{"index.read_ms", "ms", "lower"},
	{"index.block_skip_pct", "%", "higher"},
	{"index.shards_pruned_per_query", "count", "higher"},
	{"text.norm_hit_pct", "%", "higher"},
	{"plan.cost_error", "ratio", "lower"},
	{"serve.self_ms", "ms", "lower"},
	{"serve.shed_pct", "%", "lower"},
	{"serve.ingest_self_ms", "ms", "lower"},
	{"serve.ingest_p50_ms", "ms", "lower"},
	{"live.ingest_ms", "ms", "lower"},
	{"live.generations", "count", "higher"},
	{"live.merges", "count", "higher"},
	{"live.segments_end", "count", "lower"},
	{"live.post_swap_p50_ms", "ms", "lower"},
	{"batch.wall_ms", "ms", "lower"},
	{"batch.parallel_eff", "ratio", "higher"},
	{"runtime.alloc_kb_per_query", "KB", "lower"},
	{"runtime.gc_per_1k_queries", "count", "lower"},
	{"setup.gen_s", "s", "lower"},
	{"setup.extract_s", "s", "lower"},
	{"setup.index_s", "s", "lower"},
	{"setup.open_s", "s", "lower"},
	{"loadgen.late_p99_ms", "ms", "lower"},
	{"loadgen.p99_ms", "ms", "lower"},
	{"loadgen.hi_p50_ms", "ms", "lower"},
	{"loadgen.hi_p99_ms", "ms", "lower"},
	{"loadgen.hi_slo_met_pct", "%", "higher"},
	{"loadgen.fail_pct", "%", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// endToEnd computes the end-to-end metrics of an untraced run. The notes
// give the sample counts and the percentile the tail metric reports.
func endToEnd(out *outcome, steps []setupSteps) (map[string]float64, string) {
	setup := make([]float64, len(steps))
	for i, s := range steps {
		setup[i] = s.total().Seconds()
	}
	lat := sorted(out.lat)
	p, tailMs, _ := tail(lat)
	notes := fmt.Sprintf("samples: setup %d, latency %d (p%g %.4f ms)", len(setup), len(lat), p, tailMs)
	return map[string]float64{
		"setup_s":         median(setup),
		"latency_p50_ms":  median(lat),
		"throughput_qps":  out.throughput,
		"mapping_err_pct": out.mappingErr,
		"peak_rss_mb":     out.rssMB,
	}, notes
}

// printMetrics writes one human-readable line per metric.
func printMetrics(w io.Writer, defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		fmt.Fprintf(w, "%-32s %14.4f %s\n", d.Name, vals[d.Name], d.Unit)
	}
}

// metricValues pairs every defined metric with its value.
func metricValues(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}

// peakRSSMB returns the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
