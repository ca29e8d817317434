// Command wwt-benchjson converts `go test -bench` text output into the
// repo's benchmark-trajectory JSON: one record per benchmark with name,
// ns/op and (when -benchmem was on) allocs/op and bytes/op. CI runs it
// after the bench lane and uploads BENCH_<commit>.json, so perf across
// commits can be diffed mechanically instead of by eyeballing logs.
//
//	go test -run '^$' -bench . -benchmem ./... | wwt-benchjson -commit "$(git rev-parse --short HEAD)" -o BENCH_abc1234.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// benchLine is one parsed benchmark result.
type benchLine struct {
	Name        string   `json:"name"`
	Iterations  int64    `json:"iterations"`
	NsPerOp     float64  `json:"ns_per_op"`
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	MBPerSec    *float64 `json:"mb_per_sec,omitempty"`

	// Extra carries custom b.ReportMetric units (p99-ns, qps, ...)
	// keyed by unit name, so scheduler/planner benchmarks survive the
	// conversion without the parser learning each new unit.
	Extra map[string]float64 `json:"extra,omitempty"`
}

type trajectory struct {
	Commit string `json:"commit,omitempty"`
	// GoVersion and GoMaxProcs pin the toolchain and parallelism the
	// numbers were measured under: a ns/op shift that coincides with a
	// toolchain or core-count change is a machine delta, not a
	// regression.
	GoVersion  string      `json:"go_version"`
	GoMaxProcs int         `json:"gomaxprocs"`
	Benchmarks []benchLine `json:"benchmarks"`
}

func main() {
	commit := flag.String("commit", "", "commit hash recorded in the output")
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()
	if flag.NArg() > 1 {
		fmt.Fprintln(os.Stderr, "usage: wwt-benchjson [-commit SHA] [-o FILE] [bench-output.txt]")
		os.Exit(2)
	}

	in := io.Reader(os.Stdin)
	if flag.NArg() == 1 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}

	tr := trajectory{
		Commit:     *commit,
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Benchmarks: []benchLine{},
	}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if bl, ok := parseBenchLine(sc.Text()); ok {
			tr.Benchmarks = append(tr.Benchmarks, bl)
		}
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}

	data, err := json.MarshalIndent(tr, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wwt-benchjson: %d benchmarks -> %s\n", len(tr.Benchmarks), *out)
}

// parseBenchLine parses one `go test -bench` result line, e.g.
//
//	BenchmarkFoo/shards=2-8   120   9876543 ns/op   24 B/op   1 allocs/op
//
// Non-benchmark lines (headers, PASS/ok, failures) return ok=false.
func parseBenchLine(line string) (benchLine, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return benchLine{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return benchLine{}, false
	}
	bl := benchLine{Name: trimCPUSuffix(f[0]), Iterations: iters}
	seen := false
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return benchLine{}, false
		}
		switch f[i+1] {
		case "ns/op":
			bl.NsPerOp = v
			seen = true
		case "B/op":
			bl.BytesPerOp = ptr(v)
		case "allocs/op":
			bl.AllocsPerOp = ptr(v)
		case "MB/s":
			bl.MBPerSec = ptr(v)
		default:
			if bl.Extra == nil {
				bl.Extra = make(map[string]float64)
			}
			bl.Extra[f[i+1]] = v
		}
	}
	return bl, seen
}

// trimCPUSuffix drops go test's -GOMAXPROCS name suffix (Benchmark-8 and
// Benchmark-16 are the same benchmark), keeping sub-benchmark paths.
func trimCPUSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

func ptr(v float64) *float64 { return &v }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wwt-benchjson:", err)
	os.Exit(1)
}
