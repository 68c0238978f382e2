package kvcache

// Prefix sharing: vLLM's paged layout lets sequences that start with
// the same tokens (a shared system prompt) reference the same physical
// KV blocks, multiplying effective cache capacity for chat serving.
// PrefixPaged implements it with per-block reference counts; only full
// blocks of the common prefix are shared (the trailing partial block
// diverges per sequence, so it stays private).

import (
	"errors"
	"fmt"
)

// ErrPrefixTooLarge is returned by NewPrefixPaged when the shared
// prefix's full blocks alone exceed the whole block budget: no
// sequence could ever materialise the prefix, so every Alloc would
// fail — with a bare ErrOutOfMemory that never names the real
// problem. Rejecting at construction names it.
var ErrPrefixTooLarge = errors.New("kvcache: shared prefix exceeds the block budget")

// PrefixPaged is a Paged allocator whose sequences share the physical
// blocks of a common prompt prefix. It satisfies Allocator: every
// sequence allocated through it is assumed to begin with the
// configured shared prefix (the serving pattern where one system
// prompt fronts every request).
type PrefixPaged struct {
	// PrefixTokens is the shared prompt length; its ⌊/BlockTokens⌋
	// full blocks are stored once.
	PrefixTokens int

	prefixBlocks int // full blocks of the shared prefix, while materialised
	prefixRef    int // sequences currently referencing them
	pages            // private blocks past the shared full blocks
}

// NewPrefixPaged creates the allocator. The shared prefix's blocks are
// allocated lazily with the first sequence and released when the last
// reference drops.
func NewPrefixPaged(blockTokens, prefixTokens int, bytesPerToken, capacityBytes float64) (*PrefixPaged, error) {
	if prefixTokens < 0 {
		return nil, errors.New("kvcache: negative prefix length")
	}
	shared := 0
	if blockTokens > 0 {
		shared = prefixTokens / blockTokens * blockTokens
	}
	pg, err := newPages(blockTokens, bytesPerToken, capacityBytes, shared)
	if err != nil {
		return nil, err
	}
	if pb := shared / blockTokens; pb > pg.totalBlocks {
		return nil, fmt.Errorf("%w: prefix of %d tokens needs %d full blocks of %d, but %g bytes hold only %d blocks",
			ErrPrefixTooLarge, prefixTokens, pb, blockTokens, capacityBytes, pg.totalBlocks)
	}
	return &PrefixPaged{PrefixTokens: prefixTokens, pages: pg}, nil
}

func (p *PrefixPaged) sharedFullBlocks() int { return p.PrefixTokens / p.BlockTokens }

// needFor returns the blocks a new sequence of the given length must
// draw from the free list: its private blocks, plus the shared
// prefix's full blocks when this allocation would materialise them.
// Alloc and CanAlloc both price through it, so the admission check
// and the allocation can never disagree.
func (p *PrefixPaged) needFor(tokens int) int {
	need := p.privateBlocks(tokens)
	if p.prefixRef == 0 {
		need += p.sharedFullBlocks() // first reference materialises the prefix
	}
	return need
}

// Alloc implements Allocator. tokens includes the shared prefix.
func (p *PrefixPaged) Alloc(tokens int) (Seq, error) {
	if p.needFor(tokens) > p.freeBlocks {
		return 0, ErrOutOfMemory
	}
	if p.prefixRef == 0 {
		p.prefixBlocks = p.sharedFullBlocks()
		p.freeBlocks -= p.prefixBlocks
	}
	p.prefixRef++
	return p.allocSeq(tokens), nil
}

// Free implements Allocator.
func (p *PrefixPaged) Free(seq Seq) {
	if !p.freeSeq(seq) {
		return
	}
	p.prefixRef--
	if p.prefixRef == 0 {
		p.freeBlocks += p.prefixBlocks
		p.prefixBlocks = 0
	}
}

// CanAlloc implements Allocator.
func (p *PrefixPaged) CanAlloc(tokens int) bool {
	return p.needFor(tokens) <= p.freeBlocks
}

// SharedBytes reports the storage the shared prefix occupies (once).
func (p *PrefixPaged) SharedBytes() float64 {
	return float64(p.prefixBlocks) * float64(p.BlockTokens) * p.BytesPerToken
}

// HotPrefixTokens reports the shared-prefix tokens currently
// materialised on the device: the full-block prefix tokens while any
// sequence references them, zero once the last reference dropped. The
// prefix-aware cluster router reads it to score replicas by expected
// prefix-hit length.
func (p *PrefixPaged) HotPrefixTokens() int {
	if p.prefixRef == 0 {
		return 0
	}
	return p.sharedTokens
}

// RestorablePrefixTokens reports shared-prefix tokens held in a lower
// tier, restorable without recompute. A bare PrefixPaged has no lower
// tier — dropped prefix blocks are gone — so it always reports zero;
// Tiered overrides it.
func (p *PrefixPaged) RestorablePrefixTokens() int { return 0 }
