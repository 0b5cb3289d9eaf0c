// Command perfbench is the schemaevo benchmark. It runs one of three
// fixed-work workloads (corpus, ingest, read) through the program's public
// entry points, checks every output, and prints the end-to-end metrics; with
// --trace 1 it prints the per-layer table instead. README.md in this
// directory describes the workloads and every metric.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts attempted and failed operations and keeps the first few
// failure messages for the log. Safe for concurrent use.
type tally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	errs      []string
}

func (t *tally) ok() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	t.attempted++
	t.failed++
	if len(t.errs) < 10 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
	t.mu.Unlock()
}

// check counts one attempted operation, failed when err is non-nil.
func (t *tally) check(err error) {
	if err != nil {
		t.fail("%v", err)
		return
	}
	t.ok()
}

func main() {
	workload := flag.String("workload", "", "workload to run: corpus, ingest or read")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 20, "nominal run length in seconds; sizes the fixed work of the run")
	trace := flag.Int("trace", 0, "0 prints the end-to-end metrics of --workload; 1 prints the per-layer table of all three workloads")
	flag.Parse()
	if *seconds < 1 {
		fatalf("--seconds must be at least 1")
	}
	if *workload != "corpus" && *workload != "ingest" && *workload != "read" {
		fatalf("unknown --workload %q (want corpus, ingest or read)", *workload)
	}
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1")
	}

	var t tally
	metrics := map[string]metric{}
	var err error
	probeBefore := hostProbe()
	ticks0, steal0 := cpuTicks()
	switch {
	case *trace == 1:
		err = runTrace(*seed, *seconds, &t, metrics)
	case *workload == "corpus":
		err = runCorpus(*seed, *seconds, &t, metrics)
	case *workload == "ingest":
		err = runIngest(*seed, *seconds, &t, metrics)
	default:
		err = runRead(*seed, *seconds, &t, metrics)
	}
	if err != nil {
		fatalf("%v", err)
	}
	ticks1, steal1 := cpuTicks()
	probeAfter := hostProbe()

	for _, e := range t.errs {
		fmt.Fprintln(os.Stderr, "perfbench: failed op:", e)
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-36s %16.4f %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	fmt.Printf("%-36s %16d of %d attempted\n", "failed", t.failed, t.attempted)
	fmt.Printf("%-36s before %.3f ms, after %.3f ms; %.1f%% of CPU time stolen by the hypervisor (not metrics)\n",
		"host probe", probeBefore, probeAfter, 100*ratio(float64(steal1-steal0), float64(ticks1-ticks0)))
	line, err := json.Marshal(report{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   metrics,
	})
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintln(os.Stderr, "perfbench: "+strings.TrimSpace(fmt.Sprintf(format, args...)))
	os.Exit(1)
}
