package des_test

import (
	"testing"

	"llmbench/internal/des"
	"llmbench/internal/kvcache"
)

// TestCoalesceWindowBounds exercises the window-sizing helper
// directly, proving fast-forwards actually form (the equivalence
// tests (des, sched) would pass vacuously if every window collapsed to a
// stepped fallback) and land exactly on each state-change boundary.
func TestCoalesceWindowBounds(t *testing.T) {
	eng := testEngine(t)
	alloc := testAlloc(t, 20)
	ids := make([]kvcache.Seq, 0, 2)
	for _, tokens := range []int{300, 400} {
		seq, err := alloc.Alloc(tokens)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, seq)
	}

	// Unconstrained: the window is the full completion bound.
	w, err := des.CoalesceWindow(eng, alloc, ids, 2, 350, 100, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != 100 {
		t.Fatalf("unconstrained window %d, want 100", len(w))
	}
	for i, c := range w {
		want, err := eng.DecodeStepSeconds(2, 350+i)
		if err != nil {
			t.Fatal(err)
		}
		if c != want {
			t.Fatalf("step %d cost %v, want memoised %v", i, c, want)
		}
	}

	// Arrival cut: the window must stop at the first step whose end
	// reaches the arrival.
	total := 0.0
	cut := 0
	for i, c := range w {
		total += c
		if cut == 0 && total >= w[0]*10.5 {
			cut = i + 1
		}
	}
	arr, err := des.CoalesceWindow(eng, alloc, ids, 2, 350, 100, 0, w[0]*10.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(arr) != cut {
		t.Errorf("arrival-cut window %d, want %d", len(arr), cut)
	}

	// Allocator cut: a pool with room for only a few more blocks bounds
	// the window at exactly MaxExtendSteps.
	tiny := testAlloc(t, 20).(*kvcache.Paged)
	tinyIDs := make([]kvcache.Seq, 0, 2)
	for _, tokens := range []int{300, int(tiny.CapacityBytes()/tiny.BytesPerToken) - 300 - 3*16} {
		seq, err := tiny.Alloc(tokens)
		if err != nil {
			t.Fatal(err)
		}
		tinyIDs = append(tinyIDs, seq)
	}
	headroom := tiny.MaxExtendSteps(tinyIDs, 100)
	if headroom >= 100 || headroom < 2 {
		t.Fatalf("test setup: headroom %d, want a small window ≥ 2", headroom)
	}
	cutw, err := des.CoalesceWindow(eng, tiny, tinyIDs, 2, 350, 100, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cutw) != headroom {
		t.Errorf("allocator-cut window %d, want %d", len(cutw), headroom)
	}

	// Degenerate bounds fall back to stepped (empty window).
	for _, kMax := range []int{0, 1} {
		if w, err := des.CoalesceWindow(eng, alloc, ids, 2, 350, kMax, 0, -1); err != nil || len(w) != 0 {
			t.Errorf("kMax %d: window %d (err %v), want empty", kMax, len(w), err)
		}
	}
}
