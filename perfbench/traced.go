package main

// The traced pass (--trace 1) of the serving workloads. It times calls
// into each layer's public functions from outside the program:
// workload.PoissonTrace and the sweep's trace synthesis, the engine
// cache, an internal/cluster.Serve run of the same fleet with every
// allocator decorated (kvtrace.go), and the stats aggregators replayed
// over the run's completion ledger. Kernel, router and pricer time
// cannot be separated from outside, so des.self_s is the decorated
// run's wall time minus the allocator and aggregation time.

import (
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"time"

	"llmbench"
	"llmbench/internal/cluster"
	"llmbench/internal/des"
	"llmbench/internal/dtype"
	"llmbench/internal/engine"
	"llmbench/internal/hw"
	"llmbench/internal/kvcache"
	"llmbench/internal/model"
	"llmbench/internal/sched"
	"llmbench/internal/workload"
)

// countMetrics are the host-independent per-layer counts: a traced run
// checks they repeat exactly from pass to pass.
var countMetrics = []string{
	"engine.engines_built",
	"kvcache.probe_calls_per_req",
	"kvcache.probe_batch_mean",
	"kvcache.probe_cut_frac",
	"kvcache.extend_calls_per_req",
	"kvcache.admit_refused_frac",
	"experiments.cache_hit_frac",
}

// layerPasses repeats pass until seconds have elapsed (at least once)
// and reports each per-layer metric as its median over the passes,
// after checking that the count metrics repeated exactly.
func layerPasses(rep *report, seconds float64, pass func(first bool) (map[string]float64, error)) error {
	var passes []map[string]float64
	start := time.Now()
	for len(passes) == 0 || time.Since(start).Seconds() < seconds {
		v, err := pass(len(passes) == 0)
		if err != nil {
			return err
		}
		passes = append(passes, v)
	}
	var bad []string
	for _, name := range countMetrics {
		for _, v := range passes[1:] {
			if v[name] != passes[0][name] {
				bad = append(bad, fmt.Sprintf("%s: %v then %v", name, passes[0][name], v[name]))
				break
			}
		}
	}
	rep.check("count repeatability", bad)
	for _, d := range perLayer {
		var xs []float64
		for _, v := range passes {
			xs = append(xs, v[d.name])
		}
		rep.values[d.name] = median(xs)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d traced passes\n", len(passes))
	return nil
}

// kvEnv is what the benchmark needs to build the replicas' allocators
// and transfer pricing itself, exactly as llmbench does.
type kvEnv struct {
	eng           *engine.Engine
	bytesPerToken float64
	budget        float64
	link          kvcache.HostLink
	transfer      des.TransferCost
}

func newKVEnv(eng *engine.Engine) (kvEnv, error) {
	m, err := model.Get(fleetSystem.Model)
	if err != nil {
		return kvEnv{}, err
	}
	d, err := hw.Get(fleetSystem.Device)
	if err != nil {
		return kvEnv{}, err
	}
	bpt := m.KVBytesPerToken(dtype.FP16)
	return kvEnv{
		eng:           eng,
		bytesPerToken: bpt,
		budget:        fleetKVGiB * (1 << 30),
		link:          kvcache.HostLink{GBPerS: d.HostLinkGBs, LatencyS: d.HostLinkLatencyUS * 1e-6},
		transfer: des.TransferCost{
			BlockTokens: 16, BytesPerToken: bpt,
			GBPerS: d.InterconnectGBs, LatencyS: d.InterconnectLatencyUS * 1e-6,
		},
	}, nil
}

// newAlloc builds one replica's allocator for a point with the given
// shared-prefix length, decorated when kv is non-nil.
func (e kvEnv) newAlloc(prefixTokens int, kv *kvTrace) (kvcache.Allocator, error) {
	var a kvcache.Allocator
	if prefixTokens >= 16 {
		gpu, err := kvcache.NewPrefixPaged(16, prefixTokens, e.bytesPerToken, e.budget)
		if err != nil {
			return nil, err
		}
		t, err := kvcache.NewTiered(gpu, e.budget, e.link)
		if err != nil {
			return nil, err
		}
		a = t
	} else {
		p, err := kvcache.NewPaged(16, e.bytesPerToken, e.budget)
		if err != nil {
			return nil, err
		}
		a = p
	}
	if kv == nil {
		return a, nil
	}
	return kv.wrap(a)
}

// aggregation times the stats layer over a completion ledger: the
// exact Summarize, and a replay through the streaming aggregator the
// kernel's completion sink feeds.
type aggregation struct {
	summarizeS float64
	observeS   float64
	exact      sched.Stats
	streamed   sched.Stats
}

func aggregate(st cluster.Stats) (aggregation, error) {
	var a aggregation
	var err error
	t0 := time.Now()
	a.exact, err = sched.Summarize(st.Requests, st.MakespanS, st.Preemptions)
	a.summarizeS = time.Since(t0).Seconds()
	if err != nil {
		return a, err
	}
	agg := sched.NewStreamAggregator()
	t0 = time.Now()
	for _, r := range st.Requests {
		agg.Observe(r)
	}
	a.observeS = time.Since(t0).Seconds()
	a.streamed, err = agg.Stats(st.MakespanS, st.Preemptions)
	return a, err
}

func (a aggregation) p99RelErr() float64 {
	return math.Abs(a.streamed.P99Latency-a.exact.P99Latency) / a.exact.P99Latency
}

// kvLayer fills the allocator metrics of a decorated run that served
// requests requests in tracedS host seconds.
func kvLayer(v map[string]float64, kv *kvTrace, requests int, tracedS float64) float64 {
	self := kv.selfSeconds()
	n := float64(requests)
	v["kvcache.self_s"] = self
	v["kvcache.share"] = self / tracedS
	v["kvcache.ns_per_probe"] = kv.probe.meanNs()
	v["kvcache.ns_per_extend"] = kv.extend.meanNs()
	v["kvcache.probe_calls_per_req"] = float64(kv.probe.calls) / n
	v["kvcache.probe_batch_mean"] = ratio(kv.probeSeqs, kv.probe.calls)
	v["kvcache.probe_cut_frac"] = ratio(kv.probeCuts, kv.probe.calls)
	v["kvcache.extend_calls_per_req"] = float64(kv.extend.calls) / n
	v["kvcache.admit_refused_frac"] = ratio(kv.refused, kv.canAlloc.calls)
	return self
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// coldEngine times the workload's first engine-cache lookup, which
// builds the engine in a fresh process.
func coldEngine() (*engine.Engine, float64, error) {
	t0 := time.Now()
	eng, err := llmbench.CachedEngine(fleetSystem)
	return eng, time.Since(t0).Seconds(), err
}

// --- fleet-day and long-decode -------------------------------------------

func (f fleetSpec) traced(rep *report, w *bench, seed uint64, seconds float64, exp map[string]expected) error {
	rep.check("decorator fidelity", wrapFidelity())
	eng, buildS, err := coldEngine()
	if err != nil {
		return err
	}
	env, err := newKVEnv(eng)
	if err != nil {
		return err
	}
	t0 := time.Now()
	tr, err := f.trace(seed)
	traceS := time.Since(t0).Seconds()
	if err != nil {
		return err
	}
	tokens := traceTokens(tr)
	// Warm the engine's step-cost memo so the first untraced and
	// traced calls compare like for like.
	if _, err := llmbench.ServeCluster(f.config(tr, f.streaming)); err != nil {
		return err
	}
	var first outcome
	return layerPasses(rep, seconds, func(firstPass bool) (map[string]float64, error) {
		v := map[string]float64{
			"workload.trace_s":     traceS,
			"engine.build_s":       buildS,
			"engine.engines_built": float64(engine.CachedCount()),
		}
		// The untraced call, exactly as --trace 0 times it.
		var untraced llmbench.ClusterStats
		var uerr error
		runtime.GC()
		u := timeCall(func() error {
			untraced, uerr = llmbench.ServeCluster(f.config(tr, f.streaming))
			return uerr
		})
		out := fleetOutcome(untraced, uerr, len(tr), tokens)
		rep.ops(out.Ops, out.Failed)
		if firstPass {
			first = out
			checkOutcome(rep, w, seed, out, exp)
		} else {
			rep.check("determinism", sameOutcome(first, out))
		}
		v["runtime.gc_cycles"] = float64(u.gcCycles)
		v["runtime.gc_pause_s"] = u.gcPauseS

		// The same fleet through internal/cluster with decorated
		// allocators.
		kv := &kvTrace{}
		replicas := make([]cluster.Replica, fleetReplicas)
		for i := range replicas {
			a, err := env.newAlloc(0, kv)
			if err != nil {
				return nil, err
			}
			replicas[i] = cluster.Replica{Engine: eng, Alloc: a}
		}
		ccfg := cluster.Config{Replicas: replicas, Policy: cluster.LeastLoaded, MaxBatch: f.maxBatch, Streaming: f.streaming}
		var traced cluster.Stats
		runtime.GC()
		tc := timeCall(func() error {
			var err error
			traced, err = cluster.Serve(ccfg, tr)
			return err
		})
		var bad []string
		if !reflect.DeepEqual(traced, untraced) {
			bad = append(bad, fmt.Sprintf("traced run differs: %s vs %s", statsLine("traced", traced.Stats), statsLine("untraced", untraced.Stats)))
		}

		// The completion ledger: the traced run's own on the exact
		// path, a separate undecorated exact run when the workload
		// streams.
		ledger := traced
		if f.streaming {
			if ledger, err = llmbench.ServeCluster(f.config(tr, false)); err != nil {
				return nil, err
			}
		}
		agg, err := aggregate(ledger)
		if err != nil {
			return nil, err
		}
		sinkS := agg.summarizeS
		if f.streaming {
			// The replay stands in for the kernel's sink only if it
			// reproduces the streamed aggregates.
			s := agg.streamed
			s.MaxIterationS, s.CacheHitRate = untraced.MaxIterationS, untraced.CacheHitRate
			if !reflect.DeepEqual(s, untraced.Stats) {
				bad = append(bad, "streaming replay differs from the streamed run")
			}
			sinkS = agg.observeS
		}
		rep.check("traced-run fidelity", bad)
		rep.ops(len(tr), len(tr)-traced.Completed)

		kvS := kvLayer(v, kv, len(tr), tc.wall)
		v["sched.observe_ns"] = agg.observeS * 1e9 / float64(len(ledger.Requests))
		v["sched.summarize_s"] = agg.summarizeS
		v["sched.p99_rel_err"] = agg.p99RelErr()
		v["des.self_s"] = tc.wall - kvS - sinkS
		v["des.share"] = v["des.self_s"] / tc.wall
		v["trace.overhead_frac"] = (tc.wall - u.wall) / u.wall
		return v, nil
	})
}

// --- capacity-sweep ------------------------------------------------------

// sweepCluster runs one sweep point through internal/cluster with
// allocators the benchmark builds (decorated when kv is non-nil),
// mirroring how llmbench.ServeSweep assembles the point.
func sweepCluster(env kvEnv, p llmbench.ServeSweepPoint, trace []workload.Request, kv *kvTrace) (cluster.Stats, int, error) {
	ptoks := int(p.PrefixShare * float64(p.Mix.Input))
	newReplica := func() (cluster.Replica, error) {
		a, err := env.newAlloc(ptoks, kv)
		return cluster.Replica{Engine: env.eng, Alloc: a}, err
	}
	if p.Policy.Autoscale {
		auto, err := cluster.ServeAutoscale(cluster.Config{MaxBatch: p.MaxBatch},
			cluster.Autoscale{
				Factory: newReplica, Min: 1, Max: p.Replicas,
				UpOutstanding: 2 * p.MaxBatch, DownIdleS: 3, CooldownS: 1,
			}, trace)
		return auto.Stats, auto.PeakReplicas, err
	}
	cfg := cluster.Config{Policy: cluster.RoundRobin, MaxBatch: p.MaxBatch}
	switch {
	case p.Policy.Prefix:
		cfg.Policy = cluster.Prefix
	case p.Policy.LeastLoaded:
		cfg.Policy = cluster.LeastLoaded
	}
	if p.Policy.Disagg() {
		cfg.PrefillReplicas = p.Replicas / (p.Policy.PrefillPool + p.Policy.DecodePool) * p.Policy.PrefillPool
		cfg.Transfer = env.transfer
	}
	for i := 0; i < p.Replicas; i++ {
		r, err := newReplica()
		if err != nil {
			return cluster.Stats{}, 0, err
		}
		cfg.Replicas = append(cfg.Replicas, r)
	}
	st, err := cluster.Serve(cfg, trace)
	return st, 0, err
}

// samePoint reports whether a cluster run reproduces a sweep point.
func samePoint(st cluster.Stats, peak int, p llmbench.ServeSweepPoint) bool {
	st.Requests = nil
	return peak == p.PeakReplicas && reflect.DeepEqual(st.Stats, p.Stats) && reflect.DeepEqual(st.PerReplica, p.PerReplica)
}

func tracedSweep(rep *report, w *bench, seed uint64, seconds float64, exp map[string]expected) error {
	rep.check("decorator fidelity", wrapFidelity())
	eng, buildS, err := coldEngine()
	if err != nil {
		return err
	}
	env, err := newKVEnv(eng)
	if err != nil {
		return err
	}
	t0 := time.Now()
	p, err := setupSweep(seed)
	traceS := time.Since(t0).Seconds()
	if err != nil {
		return err
	}
	r := p.(*sweepRun)
	if err := r.call(); err != nil { // warm-up
		return err
	}
	var first outcome
	return layerPasses(rep, seconds, func(firstPass bool) (map[string]float64, error) {
		v := map[string]float64{
			"workload.trace_s":     traceS,
			"engine.build_s":       buildS,
			"engine.engines_built": float64(engine.CachedCount()),
		}
		runtime.GC()
		u := timeCall(r.call)
		out := r.outcome()
		rep.ops(out.Ops, out.Failed)
		if firstPass {
			first = out
			checkOutcome(rep, w, seed, out, exp)
		} else {
			rep.check("determinism", sameOutcome(first, out))
		}
		if r.err != nil {
			return nil, r.err
		}
		v["runtime.gc_cycles"] = float64(u.gcCycles)
		v["runtime.gc_pause_s"] = u.gcPauseS

		// Each point alone, as a one-position ServeSweep.
		var pointS []float64
		var bad []string
		for _, pt := range r.pts {
			cfg, grid := onePosition(seed, pt.Policy, pt.Replicas, tracePos{pt.PrefixShare, pt.Rate})
			t0 := time.Now()
			one, err := llmbench.ServeSweep(cfg, grid)
			pointS = append(pointS, time.Since(t0).Seconds())
			if err != nil || len(one) != 1 || !reflect.DeepEqual(one[0], pt) {
				bad = append(bad, pointLabel(pt)+": one-position sweep differs from the grid's point")
			}
		}
		v["servesweep.point_s.p50"] = quantile(pointS, 0.50)
		v["servesweep.point_s.p85"] = quantile(pointS, 0.85)
		v["pool.efficiency"] = sum(pointS) / (u.wall * sweepParallelism)

		// Each point again through internal/cluster, undecorated and
		// decorated.
		kv := &kvTrace{}
		var plainS, tracedS, summarizeS, observeS, p99Err float64
		completions := 0
		for _, pt := range r.pts {
			tr := r.traces[tracePos{pt.PrefixShare, pt.Rate}]
			runtime.GC()
			t0 := time.Now()
			_, _, err := sweepCluster(env, pt, tr, nil)
			plainS += time.Since(t0).Seconds()
			if err != nil {
				return nil, err
			}
			runtime.GC()
			t0 = time.Now()
			st, peak, err := sweepCluster(env, pt, tr, kv)
			tracedS += time.Since(t0).Seconds()
			if err != nil {
				return nil, err
			}
			if !samePoint(st, peak, pt) {
				bad = append(bad, pointLabel(pt)+": traced run differs from the sweep's point")
			}
			agg, err := aggregate(st)
			if err != nil {
				return nil, err
			}
			summarizeS += agg.summarizeS
			observeS += agg.observeS
			completions += len(st.Requests)
			p99Err = math.Max(p99Err, agg.p99RelErr())
		}
		rep.check("traced-run fidelity", bad)
		kvS := kvLayer(v, kv, len(r.pts)*sweepRequests, tracedS)
		v["sched.observe_ns"] = observeS * 1e9 / float64(completions)
		v["sched.summarize_s"] = summarizeS
		v["sched.p99_rel_err"] = p99Err
		v["des.self_s"] = tracedS - kvS - summarizeS
		v["des.share"] = v["des.self_s"] / tracedS
		v["trace.overhead_frac"] = (tracedS - plainS) / plainS
		return v, nil
	})
}
