package kvcache

// Allocation-regression gate: a warm allocator — slot table grown,
// free stack populated, scratch warmed — must serve a full
// alloc→extend→query→free cycle without allocating. The dense slice
// tables exist precisely so steady-state serving (internal/des) costs
// pure array arithmetic per event; a PR that reintroduces a per-call
// map or slice allocation fails here instead of regressing the
// BENCH.md million-request rows.

import "testing"

func TestPagedWarmCycleAllocs(t *testing.T) {
	p, err := NewPaged(16, 65536, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	var seqs [8]Seq
	cycle := func() {
		for i := range seqs {
			seq, err := p.Alloc(512 + 16*i)
			if err != nil {
				t.Fatal(err)
			}
			seqs[i] = seq
		}
		for step := 0; step < 32; step++ {
			if p.MaxExtendSteps(seqs[:], 64) < 1 {
				t.Fatal("warm pool unexpectedly full")
			}
			for i, seq := range seqs {
				if err := p.Extend(seq, 512+16*i+step+1); err != nil {
					t.Fatal(err)
				}
			}
		}
		_ = p.UsedBytes()
		_ = p.WasteBytes()
		for _, seq := range seqs {
			p.Free(seq)
		}
	}
	cycle() // warm the slot table, free stack, and scratch buffer
	if avg := testing.AllocsPerRun(20, cycle); avg != 0 {
		t.Errorf("warm paged alloc/extend/free cycle allocates %.1f times, want 0", avg)
	}
}

func TestMonolithicWarmCycleAllocs(t *testing.T) {
	m, err := NewMonolithic(2048, 65536, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	var seqs [8]Seq
	cycle := func() {
		for i := range seqs {
			seq, err := m.Alloc(256 + 8*i)
			if err != nil {
				t.Fatal(err)
			}
			seqs[i] = seq
		}
		for step := 0; step < 32; step++ {
			if m.MaxExtendSteps(seqs[:], 64) < 1 {
				t.Fatal("warm pool unexpectedly full")
			}
			for i, seq := range seqs {
				if err := m.Extend(seq, 256+8*i+step+1); err != nil {
					t.Fatal(err)
				}
			}
		}
		_ = m.UsedBytes()
		_ = m.WasteBytes()
		for _, seq := range seqs {
			m.Free(seq)
		}
	}
	cycle()
	if avg := testing.AllocsPerRun(20, cycle); avg != 0 {
		t.Errorf("warm monolithic alloc/extend/free cycle allocates %.1f times, want 0", avg)
	}
}

// TestPrefixPagedWarmCycleAllocs pins MaxExtendSteps' reused headroom
// scratch: the first three sequences stay short of the 256-token
// shared prefix, so every probe also sorts deep headrooms, and still
// nothing allocates once warm.
func TestPrefixPagedWarmCycleAllocs(t *testing.T) {
	p, err := NewPrefixPaged(16, 256, 65536, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	var seqs [8]Seq
	start := func(i int) int { return 96 * i }
	cycle := func() {
		for i := range seqs {
			seq, err := p.Alloc(start(i))
			if err != nil {
				t.Fatal(err)
			}
			seqs[i] = seq
		}
		for step := 0; step < 32; step++ {
			if p.MaxExtendSteps(seqs[:], 64) < 1 {
				t.Fatal("warm pool unexpectedly full")
			}
			for i, seq := range seqs {
				if err := p.Extend(seq, start(i)+step+1); err != nil {
					t.Fatal(err)
				}
			}
		}
		_ = p.UsedBytes()
		_ = p.WasteBytes()
		for _, seq := range seqs {
			p.Free(seq)
		}
	}
	cycle() // warm the slot table, free stack, and headroom scratch
	if avg := testing.AllocsPerRun(20, cycle); avg != 0 {
		t.Errorf("warm prefix alloc/probe/extend/free cycle allocates %.1f times, want 0", avg)
	}
}

// TestAdvanceWarmCycleAllocs gates the batch path the serving kernel
// takes per decode window: AdvanceSteps, Advance, and per-request
// Alloc/Free, with a third of the PrefixPaged sequences short of the
// shared prefix so the short list fills, surfaces and drains too.
func TestAdvanceWarmCycleAllocs(t *testing.T) {
	paged, err := NewPaged(16, 65536, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	prefix, err := NewPrefixPaged(16, 256, 65536, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []Allocator{paged, prefix} {
		var seqs [12]Seq
		cycle := func() {
			for i := range seqs {
				seq, err := a.Alloc(64 * i)
				if err != nil {
					t.Fatal(err)
				}
				seqs[i] = seq
			}
			for window := 0; window < 16; window++ {
				k := a.AdvanceSteps(1 + window)
				if k < 1 {
					t.Fatal("warm pool unexpectedly full")
				}
				if err := a.Advance(k); err != nil {
					t.Fatal(err)
				}
			}
			_ = a.UsedBytes()
			_ = a.WasteBytes()
			for _, seq := range seqs {
				a.Free(seq)
			}
		}
		cycle() // warm the slot table, free stack, short list, and scratch
		if avg := testing.AllocsPerRun(20, cycle); avg != 0 {
			t.Errorf("%T: warm alloc/advance/free cycle allocates %.1f times, want 0", a, avg)
		}
	}
}
