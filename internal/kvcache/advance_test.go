package kvcache

// Differential tests for the batch advance: an allocator driven by
// Advance must stay indistinguishable from a twin driven only by
// per-sequence Extend — same usage, waste and admission verdicts, and
// an AdvanceSteps equal to the reference search over every live
// handle — through random Alloc/Extend/Advance/Free histories on all
// four allocators, including PrefixPaged contexts shorter than the
// shared prefix. An out-of-memory Advance must leave the state as it
// found it.

import (
	"fmt"
	"math/rand"
	"testing"
)

const kindMonolithic = numKinds // the fourth kind; the closed form serves the first three

// newAdvanceAlloc builds an allocator of the given kind over capBlocks
// blocks of block tokens (one byte per token). A Monolithic allocator
// reserves four blocks per sequence.
func newAdvanceAlloc(t testing.TB, kind, block, prefix, capBlocks int) Allocator {
	t.Helper()
	if kind != kindMonolithic {
		return newHeadroomAlloc(t, kind, block, prefix, capBlocks)
	}
	m, err := NewMonolithic(4*block, 1, float64(capBlocks*block))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// refSteps is refMaxExtendSteps extended to Monolithic, whose bound is
// the smallest remaining reservation.
func refSteps(a Allocator, seqs []Seq, limit int) int {
	m, ok := a.(*Monolithic)
	if !ok {
		return refMaxExtendSteps(a, seqs, limit)
	}
	k := limit
	for _, s := range seqs {
		if room := m.ReserveTokens - m.table.tokens[m.table.lookup(s)]; room < k {
			k = room
		}
	}
	return max(k, 0)
}

// allocView is everything the differential compares.
type allocView struct {
	used, waste float64
	canAlloc    [4]bool
	steps       [3]int
}

func viewOf(a Allocator, block int) allocView {
	v := allocView{used: a.UsedBytes(), waste: a.WasteBytes()}
	for i, n := range []int{0, 1, block, 5*block + 3} {
		v.canAlloc[i] = a.CanAlloc(n)
	}
	for i, lim := range []int{1, block + 1, 1 << 20} {
		v.steps[i] = a.AdvanceSteps(lim)
	}
	return v
}

// runAdvanceScenario replays ops — (op, val) byte pairs: alloc,
// extend one, advance all, or free — on an allocator taking batch
// advances and on a twin taking per-sequence Extends only, comparing
// them after every op.
func runAdvanceScenario(t testing.TB, kind, block, prefix, capBlocks int, ops []byte) {
	t.Helper()
	a := newAdvanceAlloc(t, kind, block, prefix, capBlocks)
	twin := newAdvanceAlloc(t, kind, block, prefix, capBlocks)
	var live, twinLive []Seq
	var toks []int
	for i := 0; i+1 < len(ops); i += 2 {
		op, val := int(ops[i]), int(ops[i+1])
		switch op % 4 {
		case 0:
			n := val * (1 + (op>>2)%8) % (8*block + prefix + 1)
			s, err := a.Alloc(n)
			s2, err2 := twin.Alloc(n)
			if (err == nil) != (err2 == nil) {
				t.Fatalf("op %d: Alloc(%d) = %v, twin %v", i/2, n, err, err2)
			}
			if err == nil {
				live, twinLive, toks = append(live, s), append(twinLive, s2), append(toks, n)
			}
		case 1:
			if len(live) == 0 {
				continue
			}
			j, d := val%len(live), op>>2
			err := a.Extend(live[j], toks[j]+d)
			if err2 := twin.Extend(twinLive[j], toks[j]+d); (err == nil) != (err2 == nil) {
				t.Fatalf("op %d: Extend by %d = %v, twin %v", i/2, d, err, err2)
			}
			if err == nil {
				toks[j] += d
			}
		case 2:
			k := val % (3*block + 2)
			fits := refSteps(twin, twinLive, k) >= k
			before := viewOf(a, block)
			err := a.Advance(k)
			if fits != (err == nil) {
				t.Fatalf("op %d: Advance(%d) with %d live = %v, reference fits %t", i/2, k, len(live), err, fits)
			}
			if err != nil {
				if err != ErrOutOfMemory {
					t.Fatalf("op %d: Advance(%d) = %v, want ErrOutOfMemory", i/2, k, err)
				}
				if after := viewOf(a, block); after != before {
					t.Fatalf("op %d: refused Advance(%d) moved state %+v -> %+v", i/2, k, before, after)
				}
				continue
			}
			for j, s := range twinLive {
				if err := twin.Extend(s, toks[j]+k); err != nil {
					t.Fatalf("op %d: twin Extend after a fitting Advance(%d): %v", i/2, k, err)
				}
				toks[j] += k
			}
		case 3:
			if len(live) == 0 {
				continue
			}
			j := val % len(live)
			a.Free(live[j])
			twin.Free(twinLive[j])
			live = append(live[:j], live[j+1:]...)
			twinLive = append(twinLive[:j], twinLive[j+1:]...)
			toks = append(toks[:j], toks[j+1:]...)
		}
		got, want := viewOf(a, block), viewOf(twin, block)
		if got.used != want.used || got.waste != want.waste || got.canAlloc != want.canAlloc {
			t.Fatalf("op %d (%d): advanced %+v, extended twin %+v", i/2, op%4, got, want)
		}
		for j, lim := range []int{1, block + 1, 1 << 20} {
			if ref := refSteps(twin, twinLive, lim); got.steps[j] != ref {
				t.Fatalf("op %d: AdvanceSteps(%d) = %d, reference over %d live handles %d", i/2, lim, got.steps[j], len(live), ref)
			}
			if m := a.MaxExtendSteps(live, lim); m != got.steps[j] {
				t.Fatalf("op %d: MaxExtendSteps(live, %d) = %d, AdvanceSteps %d", i/2, lim, m, got.steps[j])
			}
		}
	}
}

func TestAdvanceMatchesExtend(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, block := range []int{1, 7, 16, 40} {
		for kind := 0; kind <= kindMonolithic; kind++ {
			for trial := 0; trial < 60; trial++ {
				prefix := rng.Intn(12 * block)
				capBlocks := prefix/block + 4 + rng.Intn(200)
				ops := make([]byte, 2*(8+rng.Intn(120)))
				rng.Read(ops)
				runAdvanceScenario(t, kind, block, prefix, capBlocks, ops)
			}
		}
	}
}

// TestAdvanceEdgeCases pins the calls the differential draws rarely:
// empty allocators, zero and negative advances, and short PrefixPaged
// contexts surfacing past the shared prefix in one advance.
func TestAdvanceEdgeCases(t *testing.T) {
	for kind := 0; kind <= kindMonolithic; kind++ {
		a := newAdvanceAlloc(t, kind, 16, 100, 40)
		if err := a.Advance(5); err != nil {
			t.Errorf("%T: Advance on an empty allocator: %v", a, err)
		}
		if got := a.AdvanceSteps(7); got != 7 {
			t.Errorf("%T: AdvanceSteps on an empty allocator = %d, want the limit", a, got)
		}
		if got := a.AdvanceSteps(0); got != 0 {
			t.Errorf("%T: AdvanceSteps(0) = %d", a, got)
		}
		s := mustAlloc(t, a, 10)
		if err := a.Advance(-1); err == nil || err == ErrOutOfMemory {
			t.Errorf("%T: Advance(-1) = %v, want a usage error", a, err)
		}
		if err := a.Advance(0); err != nil {
			t.Errorf("%T: Advance(0): %v", a, err)
		}
		if err := a.Advance(50); err != nil {
			t.Errorf("%T: Advance(50): %v", a, err)
		}
		if err := a.Extend(s, 59); err == nil {
			t.Errorf("%T: Extend below the advanced context must fail", a)
		}
		if err := a.Extend(s, 60); err != nil {
			t.Errorf("%T: Extend at the advanced context: %v", a, err)
		}
	}
	// Every context short of the 96 shared tokens, advanced past them.
	p, err := NewPrefixPaged(16, 100, 1, 40*16)
	if err != nil {
		t.Fatal(err)
	}
	twin, _ := NewPrefixPaged(16, 100, 1, 40*16)
	var seqs []Seq
	for _, n := range []int{0, 5, 40, 79, 80, 95} {
		seqs = append(seqs, mustAlloc(t, p, n))
		mustAlloc(t, twin, n+70)
	}
	if len(p.short) != 6 {
		t.Fatalf("%d short sequences, want 6", len(p.short))
	}
	if err := p.Advance(70); err != nil {
		t.Fatal(err)
	}
	if p.UsedBytes() != twin.UsedBytes() || p.WasteBytes() != twin.WasteBytes() {
		t.Errorf("advanced past the prefix: %v/%v used/waste, fresh twin %v/%v",
			p.UsedBytes(), p.WasteBytes(), twin.UsedBytes(), twin.WasteBytes())
	}
	if len(p.short) != 2 {
		t.Errorf("%d short sequences after the advance, want 2", len(p.short))
	}
	checkSteps(t, p, seqs, 1<<20)
}

func FuzzAdvanceMatchesExtend(f *testing.F) {
	f.Add(uint8(0), uint8(16), uint16(0), uint16(40), []byte{0, 100, 4, 200, 2, 17, 9, 1, 2, 40, 3, 0, 2, 5})
	f.Add(uint8(1), uint8(7), uint16(60), uint16(3), []byte{0, 3, 0, 9, 2, 30, 8, 4, 2, 200, 0, 5, 2, 1})
	f.Add(uint8(2), uint8(40), uint16(300), uint16(20), []byte{0, 2, 0, 250, 2, 90, 3, 0, 2, 119, 0, 5})
	f.Add(uint8(3), uint8(4), uint16(0), uint16(30), []byte{0, 3, 0, 7, 2, 9, 5, 1, 2, 13, 3, 1, 2, 2})
	f.Fuzz(func(t *testing.T, kind, block uint8, prefix, capBlocks uint16, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		b := 1 + int(block)%48
		p := int(prefix) % 512
		runAdvanceScenario(t, int(kind)%(kindMonolithic+1), b, p, p/b+1+int(capBlocks)%512, ops)
	})
}

// BenchmarkAdvance times one window of a batch decoding in lock step:
// an AdvanceSteps probe and an Advance by up to 16 tokens. Its cost
// does not grow with the batch, unlike the MaxExtendSteps pass and
// the per-sequence Extends it replaces (BenchmarkMaxExtendSteps,
// BenchmarkExtend). The batch is freed and re-admitted before the
// pool runs dry.
func BenchmarkAdvance(b *testing.B) {
	for _, batch := range []int{32, 256} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			p, seqs, toks := benchPaged(b, batch, 4096+16)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := p.AdvanceSteps(16)
				if k < 16 {
					b.StopTimer()
					for j, s := range seqs {
						p.Free(s)
						var err error
						if seqs[j], err = p.Alloc(toks[j]); err != nil {
							b.Fatal(err)
						}
					}
					b.StartTimer()
					continue
				}
				if err := p.Advance(k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
