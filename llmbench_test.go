package llmbench

import (
	"math"
	"strings"
	"testing"
)

func TestRunQuickstart(t *testing.T) {
	res, err := Run(System{Model: "LLaMA-3-8B", Device: "A100", Framework: "vLLM"},
		Workload{Batch: 16, Input: 1024, Output: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= 0 || res.TTFTSeconds <= 0 || res.ITLSeconds <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
}

func TestRunUnknownNames(t *testing.T) {
	cases := []System{
		{Model: "GPT-5", Device: "A100", Framework: "vLLM"},
		{Model: "LLaMA-3-8B", Device: "TPU", Framework: "vLLM"},
		{Model: "LLaMA-3-8B", Device: "A100", Framework: "MLC"},
		{Model: "LLaMA-3-8B", Device: "A100", Framework: "vLLM", Weights: "fp13"},
		{Model: "LLaMA-3-8B", Device: "A100", Framework: "vLLM", KV: "fp13"},
	}
	for i, sys := range cases {
		if _, err := Run(sys, Workload{Batch: 1, Input: 128, Output: 128}); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestCatalogs(t *testing.T) {
	if len(Models()) < 10 {
		t.Error("model catalog too small")
	}
	if len(Devices()) != 7 {
		t.Errorf("device catalog has %d entries, want 7", len(Devices()))
	}
	if len(Frameworks()) != 6 {
		t.Errorf("framework catalog has %d entries, want 6", len(Frameworks()))
	}
}

func TestExperimentsList(t *testing.T) {
	exps := Experiments()
	if len(exps) != 51 {
		t.Errorf("have %d experiments, want 51", len(exps))
	}
	for _, e := range exps {
		if e.ID == "" || e.Title == "" {
			t.Errorf("experiment %+v incomplete", e)
		}
	}
}

func TestRunExperiment(t *testing.T) {
	res, err := RunExperiment("fig2b")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Markdown, "fig2b") || res.CSV == "" {
		t.Error("experiment output incomplete")
	}
	tab, err := RunExperiment("tab1")
	if err != nil {
		t.Fatal(err)
	}
	if tab.CSV != "" {
		t.Error("tables have no CSV")
	}
	if _, err := RunExperiment("fig99"); err == nil {
		t.Error("unknown experiment must error")
	}
}

func TestPerplexityFacade(t *testing.T) {
	ppl, err := Perplexity("LLaMA-2-7B")
	if err != nil {
		t.Fatal(err)
	}
	if ppl < 2.5 || ppl > 5 {
		t.Errorf("perplexity %v outside paper band", ppl)
	}
	if _, err := Perplexity("GPT-5"); err == nil {
		t.Error("unknown model must error")
	}
}

func TestServeFacade(t *testing.T) {
	stats, err := Serve(ServeConfig{
		System:     System{Model: "LLaMA-3-8B", Device: "A100", Framework: "vLLM"},
		Continuous: true, MaxBatch: 16,
		Seed: 3, Requests: 40, RatePerSec: 5, InputMean: 512, OutputMean: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed != 40 {
		t.Errorf("completed %d/40", stats.Completed)
	}
	// A 70B model cannot be served on one A100.
	if _, err := Serve(ServeConfig{
		System:   System{Model: "LLaMA-2-70B", Device: "A100", Framework: "vLLM"},
		MaxBatch: 4, Requests: 4, RatePerSec: 1, InputMean: 128, OutputMean: 64,
	}); err == nil {
		t.Error("serving a 70B on one A100 must fail")
	}
}

// TestInvalidKVBudgetRejected: a negative KVBudgetGiB used to fall
// through the `budget > 0` guard and silently auto-size from device
// memory (and +Inf overflowed the allocator's block count); every
// serving entry point must reject non-finite and negative budgets.
func TestInvalidKVBudgetRejected(t *testing.T) {
	sys := System{Model: "Mistral-7B", Device: "A100", Framework: "vLLM"}
	for _, budget := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := Serve(ServeConfig{
			System: sys, Continuous: true, MaxBatch: 8, KVBudgetGiB: budget,
			Requests: 4, RatePerSec: 1, InputMean: 128, OutputMean: 32,
		}); err == nil || !strings.Contains(err.Error(), "invalid KV budget") {
			t.Errorf("Serve(budget %v): want invalid-budget error, got %v", budget, err)
		}
	}
	if _, err := ServeCluster(ClusterConfig{
		System: sys, Replicas: 2, MaxBatch: 8, KVBudgetGiB: -0.5,
		Requests: 4, RatePerSec: 1, InputMean: 128, OutputMean: 32,
	}); err == nil || !strings.Contains(err.Error(), "invalid KV budget") {
		t.Errorf("ServeCluster: want invalid-budget error, got %v", err)
	}
	if _, err := ServeAutoscale(AutoscaleConfig{
		System: sys, MaxBatch: 8, KVBudgetGiB: -2, MaxReplicas: 2,
		Requests: 4, RatePerSec: 1, InputMean: 128, OutputMean: 32,
	}); err == nil || !strings.Contains(err.Error(), "invalid KV budget") {
		t.Errorf("ServeAutoscale: want invalid-budget error, got %v", err)
	}
	// Positive budgets still pass through unchanged.
	if _, err := Serve(ServeConfig{
		System: sys, Continuous: true, MaxBatch: 8, KVBudgetGiB: 4,
		Requests: 4, RatePerSec: 1, InputMean: 128, OutputMean: 32,
	}); err != nil {
		t.Errorf("explicit positive budget must work: %v", err)
	}
}

func TestServeClusterFacade(t *testing.T) {
	stats, err := ServeCluster(ClusterConfig{
		System:      System{Model: "Mistral-7B", Device: "A100", Framework: "vLLM"},
		Replicas:    2,
		LeastLoaded: true,
		MaxBatch:    16,
		Seed:        5, Requests: 30, RatePerSec: 6, InputMean: 256, OutputMean: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed != 30 || len(stats.PerReplica) != 2 {
		t.Errorf("cluster stats incomplete: %+v", stats.Stats)
	}
	if _, err := ServeCluster(ClusterConfig{Replicas: 0}); err == nil {
		t.Error("zero replicas must fail")
	}
	if _, err := ServeCluster(ClusterConfig{
		System: System{Model: "LLaMA-2-70B", Device: "A100", Framework: "vLLM"}, Replicas: 1,
		MaxBatch: 4, Requests: 4, RatePerSec: 1, InputMean: 64, OutputMean: 16,
	}); err == nil {
		t.Error("a 70B model on one A100 replica must fail")
	}
}

// TestServeClusterPercentilesOrdered pins the facade's percentile
// ordering: latency p50 ≤ p95 ≤ p99 and queue-delay p50 ≤ p99.
func TestServeClusterPercentilesOrdered(t *testing.T) {
	cfg := ClusterConfig{
		System:      System{Model: "Mistral-7B", Device: "A100", Framework: "vLLM"},
		Replicas:    3,
		LeastLoaded: true,
		MaxBatch:    8,
		Seed:        7, Requests: 36, RatePerSec: 8, InputMean: 256, OutputMean: 96,
	}
	stats, err := ServeCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.P50Latency <= 0 || stats.P95Latency < stats.P50Latency ||
		stats.P99Latency < stats.P95Latency {
		t.Errorf("latency percentiles inconsistent: %+v", stats.Stats)
	}
	if stats.P99QueueDelay < stats.P50QueueDelay {
		t.Errorf("queue-delay percentiles inconsistent: %+v", stats.Stats)
	}
}

func TestServeAutoscaleFacade(t *testing.T) {
	stats, err := ServeAutoscale(AutoscaleConfig{
		System: System{Model: "Mistral-7B", Device: "A100", Framework: "vLLM"},
		// MaxBatch 4 puts the fixed scale-up threshold (2×MaxBatch
		// outstanding per replica) at 8, low enough for this burst.
		MaxBatch: 4, MaxReplicas: 4,
		Seed: 9, Requests: 120, RatePerSec: 12, InputMean: 384, OutputMean: 96,
		BurstFactor: 5, BurstLenS: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed != 120 {
		t.Errorf("completed %d/120", stats.Completed)
	}
	if stats.PeakReplicas < 2 || stats.PeakReplicas > 4 {
		t.Errorf("burst load must scale past 1 replica within Max: peak %d", stats.PeakReplicas)
	}
	if len(stats.PerReplica) < stats.PeakReplicas {
		t.Errorf("per-replica stats missing: %d < peak %d", len(stats.PerReplica), stats.PeakReplicas)
	}
	if _, err := ServeAutoscale(AutoscaleConfig{
		System: System{Model: "Mistral-7B", Device: "A100", Framework: "vLLM"},
	}); err == nil {
		t.Error("zero bounds must fail validation")
	}
}

func TestQuantizedSystem(t *testing.T) {
	res, err := Run(System{
		Model: "LLaMA-3-8B", Device: "H100", Framework: "vLLM",
		Weights: "fp8", KV: "fp8",
	}, Workload{Batch: 16, Input: 1024, Output: 1024})
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(System{Model: "LLaMA-3-8B", Device: "H100", Framework: "vLLM"},
		Workload{Batch: 16, Input: 1024, Output: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= base.Throughput {
		t.Error("fp8 must beat fp16 on H100")
	}
}

func TestParallelSystem(t *testing.T) {
	res, err := Run(System{Model: "LLaMA-3-70B", Device: "H100", Framework: "TRT-LLM", TP: 4},
		Workload{Batch: 16, Input: 512, Output: 512})
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= 0 {
		t.Error("TP=4 70B run must succeed")
	}
}
