package llmbench

import (
	"fmt"
	"strings"
	"testing"
)

// fleetFingerprint renders every aggregate a fleet run reports as hex
// floats, so a golden string pins the run to the bit: latency, TTFT,
// queue-delay and throughput aggregates, preemptions, the longest
// iteration, cache-hit and transfer accounting, the ledger length, the
// autoscaler's peak and each replica's share.
func fleetFingerprint(s ServeStats, per []ReplicaStats, peak int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d/%d/%d|%x|%x|%x|%x|%x|%x|%x|%x|%x|%x|%x|peak %d",
		s.Completed, s.Preemptions, len(s.Requests),
		s.P50Latency, s.P99Latency, s.MeanLatency, s.MeanTTFT,
		s.P99QueueDelay, s.MeanQueueDelay, s.Throughput, s.MakespanS,
		s.MaxIterationS, s.CacheHitRate, s.MeanTransferDelay, peak)
	for _, r := range per {
		fmt.Fprintf(&b, "|%d:%d:%x", r.Completed, r.Transferred, r.BusyS)
	}
	return b.String()
}

// checkFleetGolden compares fingerprints against goldens recorded
// before every multi-replica fleet was assembled by one runner.
func checkFleetGolden(t *testing.T, name string, got []string, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: got %d fingerprints, want %d:\n%s", name, len(got), len(want), strings.Join(got, "\n"))
		return
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s[%d] drifted:\ngot  %s\nwant %s", name, i, got[i], want[i])
		}
	}
}

// sweepFingerprints runs a grid and fingerprints every point; a point
// error fails the test.
func sweepFingerprints(t *testing.T, cfg ServeSweepConfig, grid ServeGrid) []string {
	t.Helper()
	pts, err := ServeSweep(cfg, grid)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(pts))
	for i, p := range pts {
		if p.Err != nil {
			t.Fatalf("point %d (%v × %d @ %g): %v", i, p.Policy, p.Replicas, p.Rate, p.Err)
		}
		out[i] = fleetFingerprint(p.Stats, p.PerReplica, p.PeakReplicas)
	}
	return out
}

// TestFleetShapeGoldens pins the fleet shapes TestServeSweepAggregated
// Golden leaves out — autoscaled (continuous and static), disaggregated,
// shared-prefix, chunked-prefill and streaming sweep points, plus the
// root ServeAutoscale, ServeCluster and Serve entry points — to hex-float
// fingerprints recorded before the fleet assembly paths were folded
// into one. Any drift means the fold changed a simulated fleet.
func TestFleetShapeGoldens(t *testing.T) {
	base := ServeSweepConfig{
		System:   System{Model: "Mistral-7B", Device: "A100", Framework: "vLLM"},
		MaxBatch: 4,
		Seed:     11, Requests: 60, InputMean: 256, OutputMean: 64,
	}

	t.Run("autoscale", func(t *testing.T) {
		got := sweepFingerprints(t, base, ServeGrid{
			Rates:    []float64{16},
			Replicas: []int{4},
			Policies: []ServePolicy{{Autoscale: true}, {Static: true, Autoscale: true}},
		})
		checkFleetGolden(t, "autoscale", got, []string{
			"60/0/60|0x1.6506c3148dcb1p+00|0x1.20a9e0453c38cp+01|0x1.76aefe987924fp+00|0x1.435ed4c072b21p-01|0x1.691e1742b897cp+00|0x1.38adeb9e86a57p-01|0x1.d63b6d791f4e2p+11|0x1.540da65da925ap+02|0x1.c8982a659837dp-05|0x0p+00|0x0p+00|peak 3|22:0:0x1.3e1e4c02405a1p+02|22:0:0x1.385c27f3d013dp+02|16:0:0x1.e6335cf73cae2p+01",
			"60/0/60|0x1.161fc380ef866p+01|0x1.b1f83f57fea3fp+01|0x1.1e3b656527ef5p+01|0x1.53edce533ebb7p+00|0x1.2c6ba336e68c9p+01|0x1.3f7a76effde5bp+00|0x1.9835e5b1369ep+11|0x1.87b82ccdaf538p+02|0x0p+00|0x0p+00|0x0p+00|peak 4|18:0:0x1.72e2c9f8fcc8ep+02|18:0:0x1.6bc400b951762p+02|14:0:0x1.2b8bdfa166b88p+02|10:0:0x1.add7fcc8f0836p+01",
		})
	})

	t.Run("disagg", func(t *testing.T) {
		cfg := base
		cfg.MaxBatch = 8
		got := sweepFingerprints(t, cfg, ServeGrid{
			Rates:    []float64{8},
			Replicas: []int{4},
			Policies: []ServePolicy{{LeastLoaded: true, PrefillPool: 1, DecodePool: 3}},
		})
		checkFleetGolden(t, "disagg", got, []string{
			"60/0/60|0x1.97202d92b96fdp-01|0x1.018569cf84088p+00|0x1.9a16020935069p-01|0x1.404e9040b216p-06|0x0p+00|0x0p+00|0x1.2021bd21bf349p+11|0x1.157bf0046d559p+03|0x1.8a47e80f06d2ap-07|0x0p+00|0x1.087e4527a494ap-14|peak 0|0:60:0x1.2c49a73ca6f4fp+00|22:0:0x1.ea2061cd5111bp+02|21:0:0x1.f92fcedadfb79p+02|17:0:0x1.bc6cc603e8e8bp+02",
		})
	})

	t.Run("prefix", func(t *testing.T) {
		cfg := base
		cfg.MaxBatch = 8
		cfg.InputMean = 1024
		got := sweepFingerprints(t, cfg, ServeGrid{
			Rates:        []float64{6},
			Replicas:     []int{2},
			PrefixShares: []float64{0.5},
			Policies:     []ServePolicy{{Prefix: true}},
		})
		checkFleetGolden(t, "prefix", got, []string{
			"60/0/60|0x1.e34678fcacbap-01|0x1.a4beb3f796648p+02|0x1.3f1270bb389a2p+00|0x1.abd3971823c37p-05|0x1.48a0cd336f38p-05|0x1.fe37fac4bc104p-08|0x1.776b5b7235766p+12|0x1.7a33786a41749p+03|0x1.754283d2efd7fp-03|0x1.cd81d27af1fd6p-02|0x0p+00|peak 0|35:0:0x1.52a2a7aa218fdp+03|25:0:0x1.5bc5d97bcf6a7p+03",
		})
	})

	t.Run("chunked", func(t *testing.T) {
		cfg := base
		cfg.MaxBatch = 8
		cfg.InputMean = 1024
		cfg.ChunkedPrefill, cfg.PrefillChunk = true, 128
		got := sweepFingerprints(t, cfg, ServeGrid{
			Rates:    []float64{8},
			Replicas: []int{2},
			Policies: []ServePolicy{{LeastLoaded: true}},
		})
		checkFleetGolden(t, "chunked", got, []string{
			"60/0/60|0x1.ab1a03e56fdfcp+00|0x1.4bced12be2728p+01|0x1.bba0477b98b24p+00|0x1.c6bbe61a219e4p-02|0x1.2b58b5e72560cp-01|0x1.38cb95071392cp-04|0x1.d83ab5cfd92d4p+12|0x1.20d13a4b0c3fdp+03|0x1.964f2f88ffa77p-06|0x0p+00|0x0p+00|peak 0|31:0:0x1.1c365ba489935p+03|29:0:0x1.0f6bccd1320d9p+03",
		})
	})

	t.Run("stream", func(t *testing.T) {
		cfg := base
		cfg.MaxBatch = 8
		cfg.StreamStats = true
		got := sweepFingerprints(t, cfg, ServeGrid{
			Rates:    []float64{12},
			Replicas: []int{2},
			Policies: []ServePolicy{{LeastLoaded: true}, {Autoscale: true}},
		})
		checkFleetGolden(t, "stream", got, []string{
			"60/0/0|0x1.c5b8fdb99c80bp-01|0x1.24d370ec4e3dp+00|0x1.c868a6f5875c9p-01|0x1.b65cb8c3c321ep-06|0x1.73a60fb03cd99p-06|0x1.d838a20c442f1p-08|0x1.9e92278e00f4ep+11|0x1.81b5ab28a922fp+02|0x1.29cda8195d0e7p-05|0x0p+00|0x0p+00|peak 0|32:0:0x1.7b91d79ffae7cp+02|28:0:0x1.720d49085d6afp+02",
			"60/0/0|0x1.df4ee72606da4p-01|0x1.00ebb9c3b63bep+01|0x1.26d8c26be7d6fp+00|0x1.13c3e58f599dcp-02|0x1.f32d43e32d62dp-01|0x1.fa8c49c46b021p-03|0x1.9cbed7c14418dp+11|0x1.836a5ec899a43p+02|0x1.b1f841fdc1906p-05|0x0p+00|0x0p+00|peak 2|38:0:0x1.7d468b3feb68dp+02|22:0:0x1.ebae890edf1bep+01",
		})
	})

	t.Run("ServeAutoscale", func(t *testing.T) {
		// The dashboard's autoscale=1 settings at its default and at a
		// heavier rate.
		var got []string
		for _, rate := range []float64{10, 40} {
			st, err := ServeAutoscale(AutoscaleConfig{
				System:   System{Model: "LLaMA-3-8B", Device: "A100", Framework: "vLLM"},
				MaxBatch: 32, MaxReplicas: 4,
				Seed: 42, Requests: 200, RatePerSec: rate,
				InputMean: 512, OutputMean: 128,
				BurstFactor: 4, BurstLenS: 4,
			})
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, fmt.Sprintf("%s|events %d",
				fleetFingerprint(st.Stats.Stats, st.PerReplica, st.PeakReplicas), len(st.Events)))
		}
		checkFleetGolden(t, "ServeAutoscale", got, []string{
			"200/0/200|0x1.45560641e118ap+02|0x1.6af676f88465cp+03|0x1.4ed1ffc0dbb85p+02|0x1.d11f2751818b3p+00|0x1.2576a6d5ee04ap+02|0x1.8cc49754cd36p+00|0x1.f891617f835c5p+12|0x1.4b79c803c9efdp+04|0x1.ef5eb5c851216p-01|0x0p+00|0x0p+00|peak 3|87:0:0x1.3fbe5cac45149p+04|68:0:0x1.69d963a6ddf47p+03|45:0:0x1.331551ea44f98p+03|events 2",
			"200/0/200|0x1.ad440bc87cdabp+02|0x1.e73d1217d529ep+03|0x1.afc72bcc522bfp+02|0x1.88ed9aaadcab4p+01|0x1.1b7dfba0b037fp+03|0x1.747fac35f33f4p+01|0x1.eec362069d6a1p+12|0x1.58e5f81a76e0bp+04|0x1.7d8987c3f43e2p-01|0x0p+00|0x0p+00|peak 2|109:0:0x1.21860a6666f8cp+04|91:0:0x1.08ec6ab8d9c37p+04|events 1",
		})
	})

	t.Run("ServeCluster", func(t *testing.T) {
		var got []string
		for _, c := range []ClusterConfig{
			{Replicas: 3, Static: true},
			{Replicas: 2, LeastLoaded: true, Streaming: true},
		} {
			c.System = System{Model: "LLaMA-3-8B", Device: "A100", Framework: "vLLM"}
			c.MaxBatch = 16
			c.Seed, c.Requests, c.RatePerSec, c.InputMean, c.OutputMean = 42, 100, 10, 512, 128
			st, err := ServeCluster(c)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, fleetFingerprint(st.Stats, st.PerReplica, 0))
		}
		checkFleetGolden(t, "ServeCluster", got, []string{
			"100/0/100|0x1.a69f33707fbbp+01|0x1.3560fabb58d64p+02|0x1.ac4f46a3d1d29p+01|0x1.50be7abc00c29p+00|0x1.45a0e41f68036p+01|0x1.fed28a07f7186p-01|0x1.26f4e0c12f809p+12|0x1.b914f7f5f3c5cp+03|0x0p+00|0x0p+00|0x0p+00|peak 0|34:0:0x1.a59d5510815dep+03|33:0:0x1.b4b64ef3a807ap+03|33:0:0x1.9d2f4b5bfad5ep+03",
			"100/0/0|0x1.1039430a9cb5fp+01|0x1.61bc595712437p+01|0x1.0ee30f6b24b53p+01|0x1.5d26c08577c8dp-04|0x1.d3344b4f6543dp-02|0x1.75acf068a5cd7p-05|0x1.50b9a8ec59229p+12|0x1.825e51712c69ap+03|0x1.7c72be05912d6p-04|0x0p+00|0x0p+00|peak 0|51:0:0x1.800432656a726p+03|49:0:0x1.7dffa86ee0ab9p+03",
		})
	})

	t.Run("Serve", func(t *testing.T) {
		var got []string
		for _, c := range []ServeConfig{
			{Continuous: true},
			{Continuous: true, Streaming: true},
			{},
		} {
			c.System = System{Model: "LLaMA-3-8B", Device: "A100", Framework: "vLLM"}
			c.MaxBatch, c.KVBudgetGiB = 16, 2
			c.Seed, c.Requests, c.RatePerSec, c.InputMean, c.OutputMean = 42, 60, 6, 512, 128
			st, err := Serve(c)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, fleetFingerprint(st, nil, 0))
		}
		checkFleetGolden(t, "Serve", got, []string{
			"60/0/60|0x1.0f728e36c4509p+01|0x1.78d96a444f8c2p+01|0x1.111b70672398fp+01|0x1.11c490bc94673p-04|0x1.1d15d3698132p-02|0x1.9a81b189c3d9cp-06|0x1.5efc93a2293cep+11|0x1.bbb58eeac9789p+03|0x1.944fe352c401cp-04|0x0p+00|0x0p+00|peak 0",
			"60/0/0|0x1.146b2dcf88ba9p+01|0x1.6d751a96d8bbdp+01|0x1.111b70672398fp+01|0x1.11c490bc94673p-04|0x1.46800bc2b0e0ep-03|0x1.9a81b189c3d9cp-06|0x1.5efc93a2293cep+11|0x1.bbb58eeac9789p+03|0x1.944fe352c401cp-04|0x0p+00|0x0p+00|peak 0",
			"60/0/60|0x1.fa489867bb634p+01|0x1.703580f95673ap+02|0x1.004d67a5de793p+02|0x1.df308dd2b2e25p+00|0x1.611daca8b76e4p+01|0x1.4b9842a0a992bp+00|0x1.26784ed4ea77fp+11|0x1.086f381bc2b1ep+04|0x0p+00|0x0p+00|0x0p+00|peak 0",
		})
	})
}
