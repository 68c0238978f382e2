package kvcache

import (
	"errors"
	"fmt"
	"slices"
)

// pages is the block accounting Paged and PrefixPaged share; its
// exported methods implement their Allocator methods but Alloc, Free
// and CanAlloc. Every sequence owns private blocks for its context
// beyond the first shared tokens (0 for Paged; the shared prefix's
// full blocks for PrefixPaged, which owns those blocks itself), so a
// sequence of t tokens holds ⌈(t − shared)/B⌉ private blocks, none
// while t ≤ shared. Block counts are therefore a function of the
// context and are never stored.
//
// Contexts are kept as offsets from a batch epoch: table.tokens holds
// context − epoch, so Advance moves every live sequence by bumping
// the epoch alone. Sequences at or past shared sit in a ring of B
// counters keyed by offset mod B (table.aux holds the bucket); the
// ring answers "how many sequences cross a block boundary within r
// tokens" in O(r) without visiting any sequence. Sequences still short
// of shared — whose headroom may span several blocks — are listed in
// short instead (table.aux holds −1 − their position), and move into
// the ring when a per-sequence Extend or a batch Advance carries them
// past shared.
type pages struct {
	BlockTokens   int
	BytesPerToken float64
	capacity      float64
	totalBlocks   int
	sharedTokens  int // multiple of BlockTokens
	freeBlocks    int
	slackTokens   int // private reserved-but-unwritten tokens across live seqs
	epoch         int // tokens every live sequence has advanced together
	epochMod      int // epoch mod BlockTokens
	table         seqTable
	ring          []int   // ring[j]: ring sequences whose offset ≡ j (mod B)
	short         []int32 // slots of sequences short of sharedTokens
	room          headroom
}

// newPages validates the sizes and carves capacityBytes into blocks;
// sharedTokens of every context (a multiple of blockTokens) are
// covered by blocks the caller owns.
func newPages(blockTokens int, bytesPerToken, capacityBytes float64, sharedTokens int) (pages, error) {
	if blockTokens <= 0 {
		return pages{}, fmt.Errorf("kvcache: block size %d must be positive", blockTokens)
	}
	if bytesPerToken <= 0 || capacityBytes <= 0 {
		return pages{}, errors.New("kvcache: non-positive sizes")
	}
	total := int(capacityBytes / (float64(blockTokens) * bytesPerToken))
	return pages{
		BlockTokens:   blockTokens,
		BytesPerToken: bytesPerToken,
		capacity:      capacityBytes,
		totalBlocks:   total,
		sharedTokens:  sharedTokens,
		freeBlocks:    total,
		ring:          make([]int, blockTokens),
	}, nil
}

// UsedBytes implements Allocator: every block taken from the pool,
// shared ones included.
func (p *pages) UsedBytes() float64 {
	used := p.totalBlocks - p.freeBlocks
	return float64(used) * float64(p.BlockTokens) * p.BytesPerToken
}

// WasteBytes implements Allocator: per-sequence partial-block slack,
// over private storage only (shared blocks are full).
func (p *pages) WasteBytes() float64 {
	return float64(p.slackTokens) * p.BytesPerToken
}

// CapacityBytes implements Allocator.
func (p *pages) CapacityBytes() float64 { return p.capacity }

// Sequences returns the number of live sequences.
func (p *pages) Sequences() int { return p.table.live }

// mod is x mod BlockTokens in [0, BlockTokens), for negative x too.
func (p *pages) mod(x int) int {
	if x %= p.BlockTokens; x < 0 {
		x += p.BlockTokens
	}
	return x
}

// privateBlocks is the private block count of a t-token sequence.
func (p *pages) privateBlocks(t int) int {
	if t <= p.sharedTokens {
		return 0
	}
	return (t - p.sharedTokens + p.BlockTokens - 1) / p.BlockTokens
}

// privateSlack is a t-token sequence's reserved-but-unwritten private
// tokens.
func (p *pages) privateSlack(t int) int {
	if t <= p.sharedTokens {
		return 0
	}
	return p.privateBlocks(t)*p.BlockTokens - (t - p.sharedTokens)
}

// context is a live slot's current token count.
func (p *pages) context(slot int) int { return p.table.tokens[slot] + p.epoch }

// ringHeadroom is the headroom — tokens writable without a new block —
// of a sequence in ring bucket j: (−context) mod B, with no division.
func (p *pages) ringHeadroom(j int) int {
	r := j + p.epochMod // ≡ context (mod B)
	if r >= p.BlockTokens {
		r -= p.BlockTokens
	}
	if r == 0 {
		return 0
	}
	return p.BlockTokens - r
}

// headroomOf is a live slot's headroom: shared − context while the
// sequence is short of the shared tokens (possibly a block or more),
// its last private block's unwritten tokens after.
func (p *pages) headroomOf(slot int) int {
	if j := p.table.aux[slot]; j >= 0 {
		return p.ringHeadroom(j)
	}
	return p.sharedTokens - p.context(slot)
}

// place files a live slot holding t tokens into the ring or the short
// list.
func (p *pages) place(slot, t int) {
	if t >= p.sharedTokens {
		j := p.mod(p.table.tokens[slot])
		p.table.aux[slot] = j
		p.ring[j]++
		return
	}
	p.table.aux[slot] = -1 - len(p.short)
	p.short = append(p.short, int32(slot))
}

// unplace removes a live slot from the ring or the short list.
func (p *pages) unplace(slot int) {
	j := p.table.aux[slot]
	if j >= 0 {
		p.ring[j]--
		return
	}
	pos := -1 - j
	last := p.short[len(p.short)-1]
	p.short[pos] = last
	p.table.aux[last] = j
	p.short = p.short[:len(p.short)-1]
}

// allocSeq registers a new t-token sequence whose private blocks the
// caller has checked fit, and returns its handle.
func (p *pages) allocSeq(t int) Seq {
	p.freeBlocks -= p.privateBlocks(t)
	p.slackTokens += p.privateSlack(t)
	s := p.table.alloc(t-p.epoch, 0)
	p.place(s.slot(), t)
	return s
}

// Extend implements Allocator. Inside the last owned block — the
// common case of a stepped decode — no block moves and no division is
// needed.
func (p *pages) Extend(seq Seq, tokens int) error {
	slot := p.table.lookup(seq)
	if slot < 0 {
		return fmt.Errorf("kvcache: unknown sequence %d", seq)
	}
	cur := p.context(slot)
	if tokens < cur {
		return fmt.Errorf("kvcache: cannot shrink sequence %d (%d -> %d)", seq, cur, tokens)
	}
	if j := p.table.aux[slot]; j >= 0 {
		delta := tokens - cur
		if h := p.ringHeadroom(j); delta <= h {
			p.slackTokens -= delta
			p.table.tokens[slot] += delta
			p.ring[j]--
			if j += delta; j >= p.BlockTokens {
				j -= p.BlockTokens
			}
			p.table.aux[slot] = j
			p.ring[j]++
			return nil
		}
	}
	need := p.privateBlocks(tokens) - p.privateBlocks(cur)
	if need > p.freeBlocks {
		return ErrOutOfMemory
	}
	p.freeBlocks -= need
	p.slackTokens += p.privateSlack(tokens) - p.privateSlack(cur)
	p.unplace(slot)
	p.table.tokens[slot] = tokens - p.epoch
	p.place(slot, tokens)
	return nil
}

// freeSeq releases a sequence's private blocks; it reports whether the
// handle was live.
func (p *pages) freeSeq(seq Seq) bool {
	slot := p.table.lookup(seq)
	if slot < 0 {
		return false
	}
	t := p.context(slot)
	p.freeBlocks += p.privateBlocks(t)
	p.slackTokens -= p.privateSlack(t)
	p.unplace(slot)
	p.table.release(slot)
	return true
}

// ringByHeadroom calls visit(h, count) for headroom h = 0, 1, …, n−1
// with the number of ring sequences of that headroom. Headroom h sits
// in bucket (−h − epoch) mod B, so the walk steps down from the bucket
// of headroom 0.
func (p *pages) ringByHeadroom(n int, visit func(h, count int)) {
	j := 0
	if p.epochMod > 0 {
		j = p.BlockTokens - p.epochMod
	}
	for h := 0; h < n; h++ {
		visit(h, p.ring[j])
		if j--; j < 0 {
			j = p.BlockTokens - 1
		}
	}
}

// Advance implements Allocator in O(BlockTokens + short sequences): a
// ring sequence needs ⌊k/B⌋ blocks plus one more when its headroom is
// below k mod B, and a short sequence needs its private blocks at
// context + k.
func (p *pages) Advance(k int) error {
	if k < 0 {
		return fmt.Errorf("kvcache: cannot advance by %d tokens", k)
	}
	if k == 0 || p.table.live == 0 {
		return nil
	}
	inRing := p.table.live - len(p.short)
	r := k % p.BlockTokens
	need := inRing * (k / p.BlockTokens)
	// Sequences with headroom below r cross one more block boundary.
	p.ringByHeadroom(r, func(_, count int) { need += count })
	written := inRing * k // private tokens written
	for _, slot := range p.short {
		if t := p.context(int(slot)) + k; t > p.sharedTokens {
			need += p.privateBlocks(t)
			written += t - p.sharedTokens
		}
	}
	if need > p.freeBlocks {
		return ErrOutOfMemory
	}
	p.freeBlocks -= need
	p.slackTokens += need*p.BlockTokens - written
	p.epoch += k
	if p.epochMod += r; p.epochMod >= p.BlockTokens {
		p.epochMod -= p.BlockTokens
	}
	// Surface the short sequences the advance carried to the shared
	// tokens: offsets are unchanged, only their filing moves.
	for i := len(p.short) - 1; i >= 0; i-- {
		slot := int(p.short[i])
		if t := p.context(slot); t >= p.sharedTokens {
			p.unplace(slot)
			p.place(slot, t)
		}
	}
	return nil
}

// AdvanceSteps implements Allocator at the cost of Advance: the
// headroom histogram is read off the ring, so only short sequences are
// visited.
func (p *pages) AdvanceSteps(limit int) int {
	if limit <= 0 {
		return 0
	}
	n := p.table.live
	if n == 0 || p.freeBlocks/n*p.BlockTokens >= limit {
		return limit
	}
	hist := p.room.begin(p.BlockTokens)
	p.ringByHeadroom(p.BlockTokens, func(h, count int) { hist[h] = count })
	p.room.n = n - len(p.short)
	for _, slot := range p.short {
		p.room.add(p.sharedTokens - p.context(int(slot)))
	}
	return p.room.solve(p.freeBlocks, limit)
}

// MaxExtendSteps implements Allocator in closed form: one pass over
// seqs reads each sequence's headroom — the unwritten tokens of its
// last block, or for a PrefixPaged context short of the shared prefix
// the tokens left before it, which can span blocks — and headroom
// inverts the block demand directly, with no search and no
// per-sequence division.
func (p *pages) MaxExtendSteps(seqs []Seq, limit int) int {
	if limit <= 0 {
		return 0
	}
	n := len(seqs)
	if n == 0 || p.freeBlocks/n*p.BlockTokens >= limit {
		// ⌊F/n⌋ more blocks each cover limit steps whatever the
		// headrooms are, so only the handles need checking.
		for _, s := range seqs {
			if p.table.lookup(s) < 0 {
				return 0
			}
		}
		return limit
	}
	p.room.begin(p.BlockTokens)
	for _, s := range seqs {
		slot := p.table.lookup(s)
		if slot < 0 {
			return 0
		}
		p.room.add(p.headroomOf(slot))
	}
	return p.room.solve(p.freeBlocks, limit)
}

// --- closed-form window headroom ------------------------------------------

// headroom inverts the block demand of sequences advancing together.
// A sequence with headroom h (tokens it can still write without a new
// block) needs ⌈(k − h)/B⌉ blocks once k > h steps have passed, and
// none before. Writing h = a·B + b and k = q·B + r (0 ≤ b, r < B), n
// sequences together need
//
//	demand(q·B + r) = Σ_{a ≤ q} (q − a) + #{a ≤ q, b < r}
//
// blocks. When every a is 0 (always for Paged) this is q·n + #{b < r},
// so with F free blocks the answer is q·B + b₍R+1₎ for q = ⌊F/n⌋,
// R = F − q·n, and b₍R+1₎ the (R+1)-th smallest b, read off a
// histogram of b. Headrooms of a block or more (PrefixPaged sequences
// still short of the shared prefix) wait in deep until q reaches
// their a. The scratch is reused across calls, so a warm query
// allocates nothing.
type headroom struct {
	b    int
	n    int   // sequences counted, in hist or deep
	hist []int // hist[b]: counted sequences with headroom ≡ b (mod B)
	deep []int // headrooms ≥ B, not yet counted in hist
}

// begin clears the scratch for block size b and returns the histogram.
func (h *headroom) begin(b int) []int {
	if cap(h.hist) < b {
		h.hist = make([]int, b)
	}
	h.b, h.n = b, 0
	h.hist = h.hist[:b]
	clear(h.hist)
	h.deep = h.deep[:0]
	return h.hist
}

// add counts one sequence of headroom room.
func (h *headroom) add(room int) {
	h.n++
	if room < h.b {
		h.hist[room]++
	} else {
		h.deep = append(h.deep, room)
	}
}

// solve returns the largest k ≤ limit whose demand fits free blocks,
// over the n > 0 counted sequences.
func (h *headroom) solve(free, limit int) int {
	b, hist := h.b, h.hist
	m := h.n - len(h.deep) // sequences counted in hist
	q, used := 0, 0        // whole blocks of steps, and demand(q·B)
	slices.Sort(h.deep)
	for i := 0; i < len(h.deep); {
		a := h.deep[i] / b
		if m > 0 && q+(free-used)/m < a {
			break // the pool runs dry before these sequences need a block
		}
		used += m * (a - q)
		q = a
		for ; i < len(h.deep) && h.deep[i] < (a+1)*b; i++ {
			hist[h.deep[i]-a*b]++
			m++
		}
	}
	step := (free - used) / m
	q += step
	rest := free - used - step*m // < m: blocks left for the partial block
	r := 0
	for seen := hist[0]; seen <= rest; seen += hist[r] {
		r++
	}
	if k := q*b + r; k < limit {
		return k
	}
	return limit
}
