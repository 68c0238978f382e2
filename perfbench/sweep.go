package main

import (
	"fmt"

	"llmbench"
	"llmbench/internal/workload"
)

// The capacity-sweep grid: 5 policies × 2 fleet sizes × 2 prefix
// shares × 4 rates = 80 points of sweepRequests requests each.
var (
	sweepPolicies = []string{"rr", "ll", "prefix", "autoscale", "ll:disagg/1:3"}
	sweepReplicas = []int{8, 16}
	sweepShares   = []float64{0, 0.9}
	sweepRates    = []float64{24, 48, 96, 144}
)

const (
	sweepRequests    = 5000
	sweepSLO         = 10.0 // P99 latency limit for Knees, simulated seconds
	sweepParallelism = 2
)

func sweepConfig(seed uint64) llmbench.ServeSweepConfig {
	return llmbench.ServeSweepConfig{
		System: fleetSystem, MaxBatch: 32, KVBudgetGiB: fleetKVGiB,
		Seed: seed, Requests: sweepRequests, InputMean: 1024, OutputMean: 128,
		Sigma: 0.3, LeanStats: true,
	}
}

func parsePolicies() ([]llmbench.ServePolicy, error) {
	var pols []llmbench.ServePolicy
	for _, s := range sweepPolicies {
		p, err := llmbench.ParseServePolicy(s)
		if err != nil {
			return nil, err
		}
		pols = append(pols, p)
	}
	return pols, nil
}

// tracePos is a point's trace-shape position. ServeSweep seeds a
// point's trace with Seed + its position index, share-major.
type tracePos struct{ share, rate float64 }

func (p tracePos) index() int {
	for si, s := range sweepShares {
		for ri, r := range sweepRates {
			if s == p.share && r == p.rate {
				return si*len(sweepRates) + ri
			}
		}
	}
	panic(fmt.Sprintf("perfbench: %v is not a sweep position", p))
}

// onePosition is the configuration and grid that run exactly one point
// of the sweep as its own ServeSweep, with the trace seed the full
// grid gives it.
func onePosition(seed uint64, pol llmbench.ServePolicy, replicas int, pos tracePos) (llmbench.ServeSweepConfig, llmbench.ServeGrid) {
	cfg := sweepConfig(seed + uint64(pos.index()))
	return cfg, llmbench.ServeGrid{
		Policies: []llmbench.ServePolicy{pol}, Replicas: []int{replicas},
		PrefixShares: []float64{pos.share}, Rates: []float64{pos.rate}, Parallelism: 1,
	}
}

type sweepRun struct {
	cfg    llmbench.ServeSweepConfig
	grid   llmbench.ServeGrid
	traces map[tracePos][]workload.Request
	pts    []llmbench.ServeSweepPoint
	knees  []llmbench.KneePoint
	err    error
}

// setupSweep resolves the engine and synthesises the grid's eight
// trace positions, which the output check accounts tokens against.
func setupSweep(seed uint64) (prepared, error) {
	if _, err := llmbench.CachedEngine(fleetSystem); err != nil {
		return nil, err
	}
	pols, err := parsePolicies()
	if err != nil {
		return nil, err
	}
	r := &sweepRun{
		cfg: sweepConfig(seed),
		grid: llmbench.ServeGrid{
			Policies: pols, Replicas: sweepReplicas, PrefixShares: sweepShares,
			Rates: sweepRates, Parallelism: sweepParallelism,
		},
		traces: map[tracePos][]workload.Request{},
	}
	for _, share := range sweepShares {
		for _, rate := range sweepRates {
			pos := tracePos{share, rate}
			cfg, grid := onePosition(seed, pols[0], sweepReplicas[0], pos)
			tr, err := llmbench.ServePointTrace(cfg, grid)
			if err != nil {
				return nil, err
			}
			r.traces[pos] = tr
		}
	}
	return r, nil
}

func (r *sweepRun) call() error {
	r.knees = nil
	r.pts, r.err = llmbench.ServeSweep(r.cfg, r.grid)
	if r.err == nil {
		r.knees, r.err = llmbench.Knees(r.pts, sweepSLO)
	}
	return r.err
}

func pointLabel(p llmbench.ServeSweepPoint) string {
	return fmt.Sprintf("%s/r%d/share%g/rate%g", p.Policy, p.Replicas, p.PrefixShare, p.Rate)
}

func (r *sweepRun) outcome() outcome {
	n := len(sweepPolicies) * len(sweepReplicas) * len(sweepShares) * len(sweepRates)
	o := outcome{Ops: n}
	if r.err != nil {
		o.Failed = n
		o.Problems = []string{r.err.Error()}
		return o
	}
	if len(r.pts) != n {
		o.Failed = n
		o.Problems = []string{fmt.Sprintf("%d points, want %d", len(r.pts), n)}
		return o
	}
	for _, p := range r.pts {
		label := pointLabel(p)
		if p.Err != nil {
			o.Failed++
			o.Problems = append(o.Problems, fmt.Sprintf("%s: %v", label, p.Err))
			continue
		}
		if p.Stats.Completed != sweepRequests {
			o.Failed++
		}
		o.Exact = append(o.Exact, statsLine(label, p.Stats), replicaLine(label, p.PerReplica, p.PeakReplicas))
		o.Pcts = append(o.Pcts, statsPcts(label, p.Stats)...)
		tr := r.traces[tracePos{p.PrefixShare, p.Rate}]
		o.Problems = append(o.Problems, statsProblems(label, p.Stats, len(tr), traceTokens(tr))...)
	}
	if want := n / len(sweepRates); len(r.knees) != want {
		o.Problems = append(o.Problems, fmt.Sprintf("%d knee configurations, want %d", len(r.knees), want))
	}
	for _, k := range r.knees {
		o.Exact = append(o.Exact, fmt.Sprintf("knee %s/r%d/share%g met=%t rate=%g",
			k.Policy, k.Replicas, k.PrefixShare, k.Met, k.Rate))
	}
	return o
}

func recordSweep(seed uint64) (expected, error) {
	p, err := setupSweep(seed)
	if err != nil {
		return expected{}, err
	}
	p.call()
	out := p.outcome()
	if len(out.Problems) > 0 {
		return expected{}, fmt.Errorf("seed %d fails its invariants: %v", seed, out.Problems)
	}
	return expectationOf(seed, out), nil
}
