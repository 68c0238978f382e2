package cluster

import (
	"testing"

	"llmbench/internal/kvcache"
)

// countingAlloc counts the allocator calls whose number is the
// kernel's per-window work: one MaxExtendSteps probe per window
// opened and one Extend per sequence per window applied.
type countingAlloc struct {
	kvcache.Allocator
	extends, probes *int
}

func (c countingAlloc) Extend(seq kvcache.Seq, tokens int) error {
	*c.extends++
	return c.Allocator.Extend(seq, tokens)
}

func (c countingAlloc) MaxExtendSteps(seqs []kvcache.Seq, limit int) int {
	*c.probes++
	return c.Allocator.MaxExtendSteps(seqs, limit)
}

// TestClusterWorkCounters pins the exact allocator work of a
// fixed-seed 8-replica least-loaded fleet. The counts are
// host-independent, so any change to them is a change in how often
// the kernel opens and applies coalesced windows — deliberate, and
// recorded here, or a regression.
//
// Before decode windows stayed open across arrivals routed to other
// replicas, every arrival cut every replica's window and the same
// fleet made 23251 Extend and 4903 MaxExtendSteps calls.
func TestClusterWorkCounters(t *testing.T) {
	const n = 600
	reqs := longClusterTrace(t, n, 8, 384)
	var extends, probes int
	reps := makeReplicas(t, 8)
	for i := range reps {
		reps[i].Alloc = countingAlloc{Allocator: reps[i].Alloc, extends: &extends, probes: &probes}
	}
	st, err := Serve(Config{Replicas: reps, Policy: LeastLoaded, MaxBatch: 32}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != n {
		t.Fatalf("completed %d/%d", st.Completed, n)
	}
	const wantExtends, wantProbes = 6578, 1121
	if extends != wantExtends || probes != wantProbes {
		t.Errorf("allocator work: %d Extend, %d MaxExtendSteps calls; want %d, %d",
			extends, probes, wantExtends, wantProbes)
	}
}
