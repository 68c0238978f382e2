package cluster

import (
	"testing"

	"llmbench/internal/kvcache"
)

// countingAlloc counts the allocator calls whose number is the
// kernel's per-window work: one AdvanceSteps probe per window opened
// and one Advance per window applied or plain iteration run, plus the
// per-sequence Extend and MaxExtendSteps calls that remain.
type countingAlloc struct {
	kvcache.Allocator
	extends, probes, advances, advanceProbes *int
}

func (c countingAlloc) Extend(seq kvcache.Seq, tokens int) error {
	*c.extends++
	return c.Allocator.Extend(seq, tokens)
}

func (c countingAlloc) MaxExtendSteps(seqs []kvcache.Seq, limit int) int {
	*c.probes++
	return c.Allocator.MaxExtendSteps(seqs, limit)
}

func (c countingAlloc) Advance(k int) error {
	*c.advances++
	return c.Allocator.Advance(k)
}

func (c countingAlloc) AdvanceSteps(limit int) int {
	*c.advanceProbes++
	return c.Allocator.AdvanceSteps(limit)
}

// TestClusterWorkCounters pins the exact allocator work of a
// fixed-seed 8-replica least-loaded fleet. The counts are
// host-independent, so any change to them is a change in how often
// the kernel opens and applies coalesced windows — deliberate, and
// recorded here, or a regression.
//
// Before decode windows stayed open across arrivals routed to other
// replicas, every arrival cut every replica's window and the same
// fleet made 23251 Extend and 4903 MaxExtendSteps calls. Before
// windows and plain iterations advanced the whole batch at once, it
// made 6578 Extend (one per sequence per window applied or iteration
// run) and 1121 MaxExtendSteps calls; now the only Extend left is the
// one token each fresh admission takes before its first batch
// advance.
func TestClusterWorkCounters(t *testing.T) {
	const n = 600
	reqs := longClusterTrace(t, n, 8, 384)
	var extends, probes, advances, advanceProbes int
	reps := makeReplicas(t, 8)
	for i := range reps {
		reps[i].Alloc = countingAlloc{Allocator: reps[i].Alloc,
			extends: &extends, probes: &probes, advances: &advances, advanceProbes: &advanceProbes}
	}
	st, err := Serve(Config{Replicas: reps, Policy: LeastLoaded, MaxBatch: 32}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != n {
		t.Fatalf("completed %d/%d", st.Completed, n)
	}
	const wantExtends, wantProbes, wantAdvances, wantAdvanceProbes = 600, 0, 1734, 1121
	if extends != wantExtends || probes != wantProbes || advances != wantAdvances || advanceProbes != wantAdvanceProbes {
		t.Errorf("allocator work: %d Extend, %d MaxExtendSteps, %d Advance, %d AdvanceSteps calls; want %d, %d, %d, %d",
			extends, probes, advances, advanceProbes, wantExtends, wantProbes, wantAdvances, wantAdvanceProbes)
	}
}
