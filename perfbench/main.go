// Command perfbench is llmbench's performance benchmark. It runs one
// named workload through the library's public entry points for a
// fixed number of host seconds, checks the simulated outputs, and
// prints one JSON result line as the last line of standard output:
//
//	perfbench --workload long-decode --seed 11 --seconds 50 --trace 0
//
// --trace 0 reports the end-to-end metrics: host time and memory of
// the workload's timed call. --trace 1 runs a separate traced pass
// that times calls into each layer from outside and reports the
// per-layer metrics. Simulated latencies are outputs to check, never
// speeds. README.md documents the workloads and every metric.
//
// perfbench is normally launched through run.sh, which builds it from
// source inside the checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists the --trace 0 metrics, in print order. The run's peak
// resident memory is printed to stderr only: see README.md for why it
// is not a gated metric.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"alloc_mib", "MiB"},
}

// perLayer lists the --trace 1 metrics, in print order. Every traced
// run prints all of them; a layer the workload does not reach through
// the benchmark's outside-in spans reads 0.
var perLayer = []metricDef{
	{"workload.trace_s", "s"},
	{"engine.build_s", "s"},
	{"engine.engines_built", "count"},
	{"kvcache.self_s", "s"},
	{"kvcache.share", "ratio"},
	{"kvcache.ns_per_probe", "ns"},
	{"kvcache.ns_per_extend", "ns"},
	{"kvcache.probe_calls_per_req", "count/req"},
	{"kvcache.probe_batch_mean", "seqs/probe"},
	{"kvcache.probe_cut_frac", "ratio"},
	{"kvcache.extend_calls_per_req", "count/req"},
	{"kvcache.admit_refused_frac", "ratio"},
	{"sched.observe_ns", "ns"},
	{"sched.summarize_s", "s"},
	{"sched.p99_rel_err", "ratio"},
	{"des.self_s", "s"},
	{"des.share", "ratio"},
	{"servesweep.point_s.p50", "s"},
	{"servesweep.point_s.p85", "s"},
	{"pool.efficiency", "ratio"},
	{"experiments.run_s", "s"},
	{"experiments.cache_hit_frac", "ratio"},
	{"perplexity.eval_s", "s"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},
	{"trace.overhead_frac", "ratio"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's one-line JSON report.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report accumulates one run's operations, failed checks and metric
// values.
type report struct {
	attempted, failed int
	problems          []string
	values            map[string]float64
}

func newReport() *report { return &report{values: map[string]float64{}} }

// ops records n attempted operations of which bad failed.
func (r *report) ops(n, bad int) {
	r.attempted += n
	r.failed += bad
}

// check records one output check; a non-empty problem list fails it.
func (r *report) check(name string, problems []string) {
	r.attempted++
	if len(problems) == 0 {
		return
	}
	r.failed++
	for _, p := range problems {
		r.problems = append(r.problems, name+": "+p)
	}
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", -1, "input seed (-1: the workload's default seed)")
	seconds := flag.Float64("seconds", 50, "host seconds to measure")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the measurement loop to this file and print per-package flat shares to stderr")
	record := flag.Bool("record", false, "rewrite the workload's expected aggregates at its default seed")
	child := flag.String("child", "", "internal: run one paper-all iteration (\"run\" or \"trace\") and report it")
	flag.Parse()

	if *child != "" {
		return runChild(*child, *cpuprofile)
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace %d (want 0 or 1)\n", *trace)
		return 2
	}
	s := w.seed
	if *seed >= 0 {
		s = uint64(*seed)
	}
	if *record {
		if err := recordExpected(w); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		return 0
	}
	exp, err := loadExpected()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}

	rep := newReport()
	var defs []metricDef
	if *trace == 0 {
		defs = endToEnd
		err = w.endToEnd(rep, s, *seconds, *cpuprofile, exp)
	} else {
		defs = perLayer
		err = w.traced(rep, w, s, *seconds, exp)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	res := result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := rep.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s not measured\n", d.name)
			return 2
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// median returns the middle value of xs (the mean of the two middle
// values for even lengths); 0 for an empty slice.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

const mib = 1 << 20
