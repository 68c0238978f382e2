package main

// The four workloads. fleet-day and long-decode serve one pre-generated
// open-loop Poisson trace through llmbench.ServeCluster; capacity-sweep
// runs an 80-point llmbench.ServeSweep grid and folds it with Knees;
// paper-all regenerates every experiment and verifies the 25 paper
// anchors in a fresh process per iteration. README.md records why each
// exists.

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"llmbench"
	"llmbench/internal/workload"
)

// bench is one named benchmark workload.
type bench struct {
	name string
	seed uint64 // default seed, the one expected.json records
	// seedless workloads ignore --seed, so their recorded aggregates
	// apply at every seed.
	seedless bool
	// setup builds an in-process workload's inputs for its timed call.
	setup func(seed uint64) (prepared, error)
	// run replaces the in-process end-to-end loop (paper-all).
	run func(rep *report, w *bench, seconds float64, cpuprofile string, exp map[string]expected) error
	// traced runs the per-layer pass.
	traced func(rep *report, w *bench, seed uint64, seconds float64, exp map[string]expected) error
	// record computes the expected outcome at a seed.
	record func(seed uint64) (expected, error)
}

// prepared is an in-process workload ready for its timed call.
type prepared interface {
	call() error      // the timed call; keeps its result
	outcome() outcome // the last call's checkable result
}

var workloads = map[string]*bench{
	"fleet-day": {
		name: "fleet-day", seed: 17,
		setup:  fleetDay.setup,
		traced: fleetDay.traced,
		record: fleetDay.record,
	},
	"long-decode": {
		name: "long-decode", seed: 11,
		setup:  longDecode.setup,
		traced: longDecode.traced,
		record: longDecode.record,
	},
	"capacity-sweep": {
		name: "capacity-sweep", seed: 42,
		setup:  setupSweep,
		traced: tracedSweep,
		record: recordSweep,
	},
	"paper-all": {
		name: "paper-all", seedless: true,
		run:    runPaperAll,
		traced: tracedPaperAll,
		record: recordPaperAll,
	},
}

func (w *bench) endToEnd(rep *report, seed uint64, seconds float64, cpuprofile string, exp map[string]expected) error {
	if w.run != nil {
		return w.run(rep, w, seconds, cpuprofile, exp)
	}
	return measureInProcess(rep, w, seed, seconds, cpuprofile, exp)
}

// measureInProcess is the end-to-end loop of the in-process
// workloads: until seconds have passed (and at least once), set the
// workload up and time one call on what the set-up built. Each set-up
// starts from a heap returned to the OS, as in a fresh process, and
// sits next to its call, so setup_s samples the same stretch of host
// time as wall_s; each call starts from a collected heap.
func measureInProcess(rep *report, w *bench, seed uint64, seconds float64, cpuprofile string, exp map[string]expected) error {
	prof, err := startProfile(cpuprofile)
	if err != nil {
		return err
	}
	var setups, walls, allocs []float64
	var first outcome
	start := time.Now()
	for len(walls) == 0 || time.Since(start).Seconds() < seconds {
		debug.FreeOSMemory()
		t0 := time.Now()
		p, err := w.setup(seed)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			return fmt.Errorf("%s set-up: %w", w.name, err)
		}
		runtime.GC()
		c := timeCall(p.call)
		walls = append(walls, c.wall)
		allocs = append(allocs, float64(c.allocBytes)/mib)
		out := p.outcome()
		rep.ops(out.Ops, out.Failed)
		if len(walls) == 1 {
			first = out
			checkOutcome(rep, w, seed, out, exp)
		} else {
			rep.check("determinism", sameOutcome(first, out))
		}
	}
	if err := prof.stop(); err != nil {
		return err
	}
	rep.values["wall_s"] = median(walls)
	rep.values["setup_s"] = median(setups)
	rep.values["alloc_mib"] = median(allocs)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: set-ups (s): %.4f; timed calls (s): %.4f; peak RSS %.1f MiB\n",
		w.name, seed, setups, walls, float64(maxRSSKiB())/1024)
	return nil
}

// callStats is one timed call's host cost.
type callStats struct {
	wall       float64 // seconds
	allocBytes uint64
	gcCycles   uint32
	gcPauseS   float64
}

// timeCall times fn and reads the runtime's allocation and GC counters
// around it (outside the timed interval).
func timeCall(fn func() error) callStats {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	_ = fn() // a failed call is reported through its outcome
	wall := time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	return callStats{
		wall:       wall,
		allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		gcCycles:   m1.NumGC - m0.NumGC,
		gcPauseS:   float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e9,
	}
}

// maxRSSKiB is the peak resident set of this process, in KiB.
func maxRSSKiB() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return int64(ru.Maxrss)
}

// --- fleet-day and long-decode -------------------------------------------

// fleetSystem is the replica every serving workload runs.
var fleetSystem = llmbench.System{Model: "LLaMA-3-8B", Device: "A100", Framework: "vLLM"}

const (
	fleetReplicas = 8
	fleetKVGiB    = 30
)

// fleetSpec is a fixed fleet of fleetReplicas least-loaded replicas
// serving one Poisson trace.
type fleetSpec struct {
	requests  int
	rate      float64 // requests per simulated second
	in, out   int     // mean prompt and generation lengths
	maxBatch  int
	streaming bool // P² streaming stats instead of the exact ledger
}

var (
	fleetDay   = fleetSpec{requests: 1_000_000, rate: 50, in: 256, out: 64, maxBatch: 32, streaming: true}
	longDecode = fleetSpec{requests: 100_000, rate: 24, in: 512, out: 1024, maxBatch: 128}
)

func (f fleetSpec) trace(seed uint64) ([]workload.Request, error) {
	return workload.PoissonTrace(workload.TraceConfig{
		Seed: seed, Requests: f.requests, RatePerSec: f.rate,
		InputMean: f.in, OutputMean: f.out, LengthJitter: 0.3,
	})
}

func (f fleetSpec) config(trace []workload.Request, streaming bool) llmbench.ClusterConfig {
	return llmbench.ClusterConfig{
		System: fleetSystem, Replicas: fleetReplicas, LeastLoaded: true,
		MaxBatch: f.maxBatch, KVBudgetGiB: fleetKVGiB, Trace: trace, Streaming: streaming,
	}
}

type fleetRun struct {
	spec   fleetSpec
	trace  []workload.Request
	tokens float64
	stats  llmbench.ClusterStats
	err    error
}

func (f fleetSpec) setup(seed uint64) (prepared, error) {
	if _, err := llmbench.CachedEngine(fleetSystem); err != nil {
		return nil, err
	}
	tr, err := f.trace(seed)
	if err != nil {
		return nil, err
	}
	return &fleetRun{spec: f, trace: tr, tokens: traceTokens(tr)}, nil
}

func (r *fleetRun) call() error {
	r.stats, r.err = llmbench.ServeCluster(r.spec.config(r.trace, r.spec.streaming))
	return r.err
}

func (r *fleetRun) outcome() outcome {
	return fleetOutcome(r.stats, r.err, len(r.trace), r.tokens)
}

func fleetOutcome(st llmbench.ClusterStats, err error, requests int, tokens float64) outcome {
	o := outcome{Ops: requests}
	if err != nil {
		o.Failed = requests
		o.Problems = []string{err.Error()}
		return o
	}
	o.Failed = requests - st.Completed
	o.Exact = []string{statsLine("fleet", st.Stats), replicaLine("fleet", st.PerReplica, 0)}
	o.Pcts = statsPcts("fleet", st.Stats)
	o.Problems = statsProblems("fleet", st.Stats, requests, tokens)
	return o
}

// record runs the default seed twice when the workload streams: the
// exact aggregates come from the streaming run, the percentiles from
// the exact (ledgered) path.
func (f fleetSpec) record(seed uint64) (expected, error) {
	p, err := f.setup(seed)
	if err != nil {
		return expected{}, err
	}
	r := p.(*fleetRun)
	r.call()
	out := r.outcome()
	if len(out.Problems) > 0 {
		return expected{}, fmt.Errorf("seed %d fails its invariants: %v", seed, out.Problems)
	}
	e := expectationOf(seed, out)
	if f.streaming {
		st, err := llmbench.ServeCluster(f.config(r.trace, false))
		if err != nil {
			return expected{}, err
		}
		for _, q := range statsPcts("fleet", st.Stats) {
			e.Pcts[q.Name] = q.Value
		}
	}
	return e, nil
}
