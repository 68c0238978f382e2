package kvcache

// Differential tests for the closed-form MaxExtendSteps: the Paged,
// PrefixPaged and Tiered answers must equal the binary search they
// replaced (refMaxExtendSteps, kept here as the oracle) on every
// allocator state a random or fuzzed alloc/extend/free history can
// reach, including duplicated and stale handles, exhausted pools and
// PrefixPaged contexts shorter than the shared prefix.

import (
	"fmt"
	"math/rand"
	"testing"
)

// refMaxExtendSteps is the binary search Paged and PrefixPaged used to
// run: block demand is monotone in the step count, so the largest
// feasible k ≤ limit is found by bisection over a full demand sum per
// probe.
func refMaxExtendSteps(a Allocator, seqs []Seq, limit int) int {
	var (
		pg     *pages
		blocks func(tokens int) int
	)
	switch p := a.(type) {
	case *Tiered:
		return refMaxExtendSteps(p.gpu, seqs, limit)
	case *Paged:
		pg = &p.pages
		blocks = func(t int) int { return (t + p.BlockTokens - 1) / p.BlockTokens }
	case *PrefixPaged:
		pg = &p.pages
		shared := p.PrefixTokens / p.BlockTokens * p.BlockTokens
		blocks = func(t int) int {
			if t <= shared {
				return 0
			}
			return (t - shared + p.BlockTokens - 1) / p.BlockTokens
		}
	default:
		panic("refMaxExtendSteps: unsupported allocator")
	}
	if limit <= 0 {
		return 0
	}
	var toks []int
	base := 0
	for _, s := range seqs {
		slot := pg.table.lookup(s)
		if slot < 0 {
			return 0
		}
		t := pg.table.tokens[slot] + pg.epoch
		toks = append(toks, t)
		base += blocks(t)
	}
	demand := func(k int) int {
		n := -base
		for _, t := range toks {
			n += blocks(t + k)
		}
		return n
	}
	lo, hi := 0, limit
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if demand(mid) <= pg.freeBlocks {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// Allocator kinds the closed form serves.
const (
	kindPaged = iota
	kindPrefix
	kindTiered
	numKinds
)

// newHeadroomAlloc builds an allocator of the given kind over capBlocks
// blocks of block tokens (one byte per token).
func newHeadroomAlloc(t testing.TB, kind, block, prefix, capBlocks int) Allocator {
	t.Helper()
	capBytes := float64(capBlocks * block)
	var (
		a   Allocator
		err error
	)
	switch kind {
	case kindPaged:
		a, err = NewPaged(block, 1, capBytes)
	case kindPrefix:
		a, err = NewPrefixPaged(block, prefix, 1, capBytes)
	case kindTiered:
		var gpu *PrefixPaged
		if gpu, err = NewPrefixPaged(block, prefix, 1, capBytes); err == nil {
			a, err = NewTiered(gpu, float64(64*block), HostLink{GBPerS: 32, LatencyS: 5e-6})
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// checkSteps compares MaxExtendSteps with the oracle at limit and at
// the fixed limits every query must also get right.
func checkSteps(t testing.TB, a Allocator, seqs []Seq, limit int) {
	t.Helper()
	for _, lim := range []int{limit, -1, 0, 1, 1 << 30} {
		if got, want := a.MaxExtendSteps(seqs, lim), refMaxExtendSteps(a, seqs, lim); got != want {
			t.Fatalf("%T MaxExtendSteps(%d seqs, limit %d) = %d, reference %d", a, len(seqs), lim, got, want)
		}
	}
}

// runHeadroomScenario replays ops — (op, val) byte pairs: alloc,
// extend, free, or query — on a fresh allocator, checking every query
// against the oracle. It ends with the edge queries (every live
// handle, a duplicate, an empty list, a stale handle) and with the
// state's usage equal to that of a fresh twin holding the same
// contexts, which pins Extend's in-block fast path to the slow one.
func runHeadroomScenario(t testing.TB, kind, block, prefix, capBlocks int, ops []byte, limit int) {
	t.Helper()
	a := newHeadroomAlloc(t, kind, block, prefix, capBlocks)
	var live, stale []Seq
	var toks []int
	for i := 0; i+1 < len(ops); i += 2 {
		op, val := int(ops[i]), int(ops[i+1])
		switch op % 4 {
		case 0:
			n := val * (1 + (op>>2)%8)
			if s, err := a.Alloc(n); err == nil {
				live, toks = append(live, s), append(toks, n)
			}
		case 1:
			if len(live) > 0 {
				j := val % len(live)
				if a.Extend(live[j], toks[j]+op>>2) == nil {
					toks[j] += op >> 2
				}
			}
		case 2:
			if len(live) > 0 {
				j := val % len(live)
				a.Free(live[j])
				stale = append(stale, live[j])
				live = append(live[:j], live[j+1:]...)
				toks = append(toks[:j], toks[j+1:]...)
			}
		case 3:
			var seqs []Seq
			for j := 0; j < len(live) && j < (op>>2)%16; j++ {
				seqs = append(seqs, live[(val+j)%len(live)])
			}
			if op&0x80 != 0 && len(seqs) > 0 {
				seqs = append(seqs, seqs[0]) // listed twice, counted twice
			}
			checkSteps(t, a, seqs, limit)
		}
	}
	checkSteps(t, a, live, limit)
	checkSteps(t, a, nil, limit)
	if len(live) > 0 {
		checkSteps(t, a, append(live[:len(live):len(live)], live[len(live)-1]), limit)
	}
	if len(stale) > 0 {
		if got := a.MaxExtendSteps(append(live[:len(live):len(live)], stale[0]), 1<<20); got != 0 {
			t.Fatalf("stale handle: MaxExtendSteps = %d, want 0", got)
		}
	}
	twin := newHeadroomAlloc(t, kind, block, prefix, capBlocks)
	for i, n := range toks {
		if _, err := twin.Alloc(n); err != nil {
			t.Fatalf("twin alloc %d of %d tokens: %v", i, n, err)
		}
	}
	if a.UsedBytes() != twin.UsedBytes() || a.WasteBytes() != twin.WasteBytes() {
		t.Fatalf("extended state uses %v/%v bytes (used/waste), a fresh twin %v/%v",
			a.UsedBytes(), a.WasteBytes(), twin.UsedBytes(), twin.WasteBytes())
	}
}

func TestMaxExtendStepsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, block := range []int{1, 7, 16, 40} {
		for kind := 0; kind < numKinds; kind++ {
			for trial := 0; trial < 150; trial++ {
				prefix := rng.Intn(12 * block)
				capBlocks := prefix/block + 1 + rng.Intn(200)
				ops := make([]byte, 2*(8+rng.Intn(120)))
				rng.Read(ops)
				runHeadroomScenario(t, kind, block, prefix, capBlocks, ops, 1+rng.Intn(4*block+64))
			}
		}
	}
}

// TestMaxExtendStepsEdgeCases pins the cases the closed form treats
// specially, against both the oracle and the step-by-step replay.
func TestMaxExtendStepsEdgeCases(t *testing.T) {
	for _, block := range []int{1, 7, 16, 40} {
		for kind := 0; kind < numKinds; kind++ {
			prefix := 3*block + block/2
			build := func() Allocator { return newHeadroomAlloc(t, kind, block, prefix, 30) }
			// Contexts below, at, and past the shared full blocks.
			tokens := []int{0, 1, block, 3*block - 1, 3 * block, 3*block + 1, 5*block + 2}
			a := build()
			seqs := allocAll(t, a, tokens)
			for _, limit := range []int{1, block, 3*block + 1, 50 * block} {
				want := bruteMaxSteps(t, build, tokens, limit)
				if got := a.MaxExtendSteps(seqs, limit); got != want {
					t.Errorf("%T block %d limit %d: got %d, brute force %d", a, block, limit, got, want)
				}
				checkSteps(t, a, seqs, limit)
			}
			if got := a.MaxExtendSteps(nil, 9); got != 9 {
				t.Errorf("%T empty list: got %d, want the limit", a, got)
			}
			if got := a.MaxExtendSteps(append(seqs, seqs...), 1<<20); got != refMaxExtendSteps(a, append(seqs, seqs...), 1<<20) {
				t.Errorf("%T duplicated list: got %d", a, got)
			}
			for _, limit := range []int{0, -5} {
				if got := a.MaxExtendSteps(seqs, limit); got != 0 {
					t.Errorf("%T limit %d: got %d, want 0", a, limit, got)
				}
			}
			// Exhaust the pool with one-block sequences: F = 0 leaves
			// only in-block headroom.
			one := block
			if kind != kindPaged {
				one = 3*block + 1 // one private block past the shared three
			}
			for a.CanAlloc(one) {
				seqs = append(seqs, mustAlloc(t, a, one))
			}
			checkSteps(t, a, seqs, 1<<20)
			a.Free(seqs[0])
			if got := a.MaxExtendSteps(seqs, 10); got != 0 {
				t.Errorf("%T stale handle: got %d, want 0", a, got)
			}
		}
	}
}

func FuzzMaxExtendSteps(f *testing.F) {
	f.Add(uint8(0), uint8(16), uint16(0), uint16(40), []byte{0, 100, 4, 200, 3, 0, 7, 1, 131, 0}, int16(64))
	f.Add(uint8(1), uint8(7), uint16(60), uint16(3), []byte{0, 3, 0, 9, 8, 4, 0, 200, 5, 1, 195, 0}, int16(500))
	f.Add(uint8(2), uint8(40), uint16(300), uint16(20), []byte{0, 2, 0, 250, 2, 0, 0, 5, 191, 1}, int16(-3))
	f.Add(uint8(1), uint8(1), uint16(9), uint16(0), []byte{0, 1, 0, 7, 255, 0}, int16(0))
	f.Fuzz(func(t *testing.T, kind, block uint8, prefix, capBlocks uint16, ops []byte, limit int16) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		b := 1 + int(block)%48
		p := int(prefix) % 512
		runHeadroomScenario(t, int(kind)%numKinds, b, p, p/b+1+int(capBlocks)%512, ops, int(limit))
	})
}

// benchPaged returns a Paged pool of perSeq tokens per sequence
// holding batch sequences of mixed decode contexts (512–1535 tokens).
func benchPaged(b *testing.B, batch, perSeq int) (*Paged, []Seq, []int) {
	rng := rand.New(rand.NewSource(int64(batch)))
	p, err := NewPaged(16, 1, float64(batch*perSeq))
	if err != nil {
		b.Fatal(err)
	}
	seqs := make([]Seq, batch)
	toks := make([]int, batch)
	for i := range seqs {
		toks[i] = 512 + rng.Intn(1024)
		if seqs[i], err = p.Alloc(toks[i]); err != nil {
			b.Fatal(err)
		}
	}
	return p, seqs, toks
}

func BenchmarkMaxExtendSteps(b *testing.B) {
	for _, batch := range []int{32, 256} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			// About 256 free tokens per sequence: windows are cut
			// well below the limit, as in long-decode.
			p, seqs, _ := benchPaged(b, batch, 1280)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if p.MaxExtendSteps(seqs, 1024) < 1 {
					b.Fatal("pool unexpectedly full")
				}
			}
		})
	}
}

// BenchmarkExtend times one Extend call of a batch decoding in lock
// step; a sequence that reaches 4096 tokens is freed and re-admitted
// at 512 so the pool never runs dry.
func BenchmarkExtend(b *testing.B) {
	for _, batch := range []int{32, 256} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			p, seqs, toks := benchPaged(b, batch, 4096+16)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % batch
				if toks[j] == 4096 {
					p.Free(seqs[j])
					toks[j] = 512
					var err error
					if seqs[j], err = p.Alloc(512); err != nil {
						b.Fatal(err)
					}
				}
				toks[j]++
				if err := p.Extend(seqs[j], toks[j]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
