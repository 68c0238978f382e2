package main

// Output checks. Every timed call yields an outcome: its byte-exact
// aggregates (non-percentile Stats as hex floats, knees, experiment
// digests), its percentiles, and the invariants any seed must satisfy.
// At a workload's default seed the outcome is also compared with the
// aggregates recorded in expected.json: exact lines byte for byte,
// percentiles within 1% of the exact-path (sorted-ledger) values, so a
// correct percentile-sketch replacement still passes.

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"llmbench/internal/cluster"
	"llmbench/internal/sched"
	"llmbench/internal/workload"
)

// outcome is one timed call's checkable result.
type outcome struct {
	Ops      int      `json:"ops"`      // operations attempted
	Failed   int      `json:"failed"`   // operations that failed
	Exact    []string `json:"exact"`    // aggregates that must match byte for byte
	Pcts     []pct    `json:"pcts"`     // percentiles, checked within pctTolerance
	Problems []string `json:"problems"` // invariant violations
}

type pct struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// expected is one workload's recorded outcome at its default seed.
type expected struct {
	Seed  uint64             `json:"seed"`
	Exact []string           `json:"exact"`
	Pcts  map[string]float64 `json:"percentiles"`
}

// pctTolerance is the relative error a percentile may carry against
// the exact path; pctFloor is the absolute slack for values near zero
// (queue-delay medians of lightly loaded fleets), in simulated seconds.
const (
	pctTolerance = 0.01
	pctFloor     = 1e-6
)

//go:embed expected.json
var expectedJSON []byte

// expectedPath is where --record writes, relative to the repository
// root the benchmark runs from.
const expectedPath = "perfbench/expected.json"

func loadExpected() (map[string]expected, error) {
	exp := map[string]expected{}
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return exp, nil
}

// recordExpected replaces w's entry in expected.json on disk with the
// outcome of its default seed; rebuild afterwards to embed the file.
func recordExpected(w *bench) error {
	e, err := w.record(w.seed)
	if err != nil {
		return err
	}
	path := filepath.FromSlash(expectedPath)
	exp := map[string]expected{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &exp); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	exp[w.name] = e
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(exp); err != nil {
		return err
	}
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: recorded %s (seed %d) in %s\n", w.name, e.Seed, expectedPath)
	return nil
}

// expectationOf turns an outcome into the expectation it satisfies.
func expectationOf(seed uint64, out outcome) expected {
	e := expected{Seed: seed, Exact: append([]string(nil), out.Exact...), Pcts: map[string]float64{}}
	for _, p := range out.Pcts {
		e.Pcts[p.Name] = p.Value
	}
	return e
}

// compare lists how out departs from e.
func compare(e expected, out outcome) []string {
	var bad []string
	if len(out.Exact) != len(e.Exact) {
		bad = append(bad, fmt.Sprintf("%d exact aggregates, want %d", len(out.Exact), len(e.Exact)))
	}
	for i := 0; i < len(out.Exact) && i < len(e.Exact); i++ {
		if out.Exact[i] != e.Exact[i] {
			bad = append(bad, fmt.Sprintf("got %q, want %q", out.Exact[i], e.Exact[i]))
		}
	}
	if len(out.Pcts) != len(e.Pcts) {
		bad = append(bad, fmt.Sprintf("%d percentiles, want %d", len(out.Pcts), len(e.Pcts)))
	}
	for _, p := range out.Pcts {
		want, ok := e.Pcts[p.Name]
		if !ok {
			bad = append(bad, fmt.Sprintf("unexpected percentile %s", p.Name))
			continue
		}
		if tol := math.Max(pctTolerance*math.Abs(want), pctFloor); !(math.Abs(p.Value-want) <= tol) {
			bad = append(bad, fmt.Sprintf("%s = %v, want %v ± %v", p.Name, p.Value, want, tol))
		}
	}
	if len(bad) > 5 {
		bad = append(bad[:5], fmt.Sprintf("… and %d more", len(bad)-5))
	}
	return bad
}

// selfTest shows the checker can fail: an exact copy of the outcome
// must pass, and copies with one exact aggregate or one percentile
// perturbed must not.
func selfTest(out outcome) []string {
	var bad []string
	if len(compare(expectationOf(0, out), out)) != 0 {
		bad = append(bad, "checker rejects an exact copy of the outcome")
	}
	if len(out.Exact) > 0 {
		e := expectationOf(0, out)
		line := []byte(e.Exact[0])
		if last := len(line) - 1; line[last] == '0' {
			line[last] = '1'
		} else {
			line[last] = '0'
		}
		e.Exact[0] = string(line)
		if len(compare(e, out)) == 0 {
			bad = append(bad, "checker accepts a perturbed exact aggregate")
		}
	}
	if len(out.Pcts) > 0 {
		e := expectationOf(0, out)
		p := out.Pcts[0]
		for _, q := range out.Pcts {
			if math.Abs(q.Value) > math.Abs(p.Value) {
				p = q
			}
		}
		e.Pcts[p.Name] = p.Value * 1.02
		if len(compare(e, out)) == 0 {
			bad = append(bad, "checker accepts a percentile perturbed by 2%")
		}
	}
	return bad
}

// checkOutcome applies the output checks to the first timed call of a
// run: the invariants, the recorded aggregates where they apply, and
// the checker's self-test.
func checkOutcome(rep *report, w *bench, seed uint64, out outcome, exp map[string]expected) {
	rep.check("invariants", out.Problems)
	if e, ok := exp[w.name]; w.seedless || seed == w.seed {
		var bad []string
		if !ok {
			bad = []string{"no expected aggregates recorded (run with --record)"}
		} else {
			bad = compare(e, out)
		}
		rep.check("expected aggregates", bad)
	}
	rep.check("checker self-test", selfTest(out))
}

// sameOutcome checks that a repeated call reproduced the first one.
func sameOutcome(first, out outcome) []string {
	bad := compare(expectationOf(0, first), out)
	if len(bad) > 0 {
		return append([]string{"repeated call differs"}, bad...)
	}
	return nil
}

// statsLine renders the non-percentile aggregates of s, floats in
// hexadecimal so equal lines mean bit-identical values.
func statsLine(label string, s sched.Stats) string {
	return fmt.Sprintf("%s completed=%d makespan=%x tput=%x lat.mean=%x ttft.mean=%x qd.mean=%x xfer.mean=%x preempt=%d iter.max=%x hit=%x",
		label, s.Completed, s.MakespanS, s.Throughput, s.MeanLatency, s.MeanTTFT, s.MeanQueueDelay,
		s.MeanTransferDelay, s.Preemptions, s.MaxIterationS, s.CacheHitRate)
}

// replicaLine renders each replica's share of a run.
func replicaLine(label string, per []cluster.ReplicaStats, peak int) string {
	line := fmt.Sprintf("%s peak=%d replicas:", label, peak)
	for _, r := range per {
		line += fmt.Sprintf(" %d/%d/%x", r.Completed, r.Transferred, r.BusyS)
	}
	return line
}

func statsPcts(label string, s sched.Stats) []pct {
	return []pct{
		{label + " lat.p50", s.P50Latency},
		{label + " lat.p95", s.P95Latency},
		{label + " lat.p99", s.P99Latency},
		{label + " qd.p50", s.P50QueueDelay},
		{label + " qd.p95", s.P95QueueDelay},
		{label + " qd.p99", s.P99QueueDelay},
	}
}

// statsProblems lists the invariants a serving run must satisfy at any
// seed: every request completes, every aggregate is finite, and the
// reported throughput accounts for exactly the trace's tokens.
func statsProblems(label string, s sched.Stats, requests int, tokens float64) []string {
	var bad []string
	if s.Completed != requests {
		bad = append(bad, fmt.Sprintf("%s: %d of %d requests completed", label, s.Completed, requests))
	}
	for _, v := range []float64{s.MakespanS, s.Throughput, s.MeanLatency, s.P50Latency, s.P95Latency,
		s.P99Latency, s.MeanTTFT, s.MeanQueueDelay, s.P50QueueDelay, s.P95QueueDelay, s.P99QueueDelay,
		s.MeanTransferDelay, s.MaxIterationS, s.CacheHitRate} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			bad = append(bad, fmt.Sprintf("%s: aggregate %v is not a finite non-negative number", label, v))
			break
		}
	}
	if got := s.Throughput * s.MakespanS; math.Abs(got-tokens) > 1e-9*tokens {
		bad = append(bad, fmt.Sprintf("%s: throughput × makespan = %v tokens, trace holds %v", label, got, tokens))
	}
	return bad
}

func traceTokens(reqs []workload.Request) float64 {
	t := 0.0
	for _, r := range reqs {
		t += float64(r.Input + r.Output)
	}
	return t
}
