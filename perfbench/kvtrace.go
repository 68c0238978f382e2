package main

// The traced run's view into internal/kvcache: a decorator around each
// replica's allocator that counts every call the kernel makes and
// times a deterministic sample of them. A clock read per call tripled
// fleet-day's wall time (about 40M allocator calls), so only one call
// in sampleEvery per method is timed. A clock read costs more than a
// typical Extend, so each sample also times an empty interval just
// before the call and subtracts it: the clock's cost is calibrated in
// place, at the same cache and branch state as the call.

import (
	"fmt"
	"time"

	"llmbench/internal/kvcache"
)

// sampleEvery is the timing sample rate: calls 1, 1+sampleEvery,
// 1+2·sampleEvery, … of each method are timed.
const sampleEvery = 64

// methodStats is one allocator method's call count and timed sample.
type methodStats struct {
	calls   uint64
	sampled uint64
	ns      int64 // Σ (call interval − empty interval) over the samples
}

// timed reports whether the current call (already counted) is sampled.
func (m *methodStats) timed() bool { return m.calls%sampleEvery == 1 }

// start opens a sample: t1 − t0 is an empty interval, the clock's own
// cost, which end subtracts from the call's interval.
func start() (t0, t1 time.Time) {
	t0 = time.Now()
	return t0, time.Now()
}

func (m *methodStats) end(t0, t1 time.Time) {
	t2 := time.Now()
	m.sampled++
	m.ns += int64(t2.Sub(t1) - t1.Sub(t0))
}

// meanNs is the sampled mean duration of one call, clamped at zero.
func (m *methodStats) meanNs() float64 {
	if m.sampled == 0 || m.ns < 0 {
		return 0
	}
	return float64(m.ns) / float64(m.sampled)
}

// kvTrace accumulates the counters of every allocator it wraps. It is
// not safe for concurrent use: traced runs advance replicas serially.
type kvTrace struct {
	probe, extend, alloc, free, canAlloc methodStats

	probeSeqs uint64 // Σ sequences per MaxExtendSteps call
	probeCuts uint64 // probes that returned less than their limit
	refused   uint64 // CanAlloc calls that returned false
}

// selfSeconds is the estimated host time spent inside the allocators:
// each method's call count times its sampled mean.
func (t *kvTrace) selfSeconds() float64 {
	ns := 0.0
	for _, m := range []*methodStats{&t.probe, &t.extend, &t.alloc, &t.free, &t.canAlloc} {
		ns += float64(m.calls) * m.meanNs()
	}
	return ns / 1e9
}

// prefixStater mirrors the allocator view internal/cluster's prefix
// router type-asserts for.
type prefixStater interface {
	HotPrefixTokens() int
	RestorablePrefixTokens() int
}

// wrap decorates a with counters. The decorator exposes exactly the
// optional interfaces a implements — kvcache.PrefillDiscounter and the
// prefix router's view — because the kernel and the router discover
// them by type assertion: a decorator that hid them would silently
// change admission and routing, and one that invented them would
// change a plain allocator's.
func (t *kvTrace) wrap(a kvcache.Allocator) (kvcache.Allocator, error) {
	base := &tracedAlloc{Allocator: a, t: t}
	st, isPrefix := a.(prefixStater)
	disc, isDisc := a.(kvcache.PrefillDiscounter)
	switch {
	case isPrefix && isDisc:
		return &tracedTiered{tracedPrefix{base, st}, disc}, nil
	case isPrefix:
		return &tracedPrefix{base, st}, nil
	case isDisc:
		return nil, fmt.Errorf("perfbench: no decorator for %T (discounter without prefix view)", a)
	}
	return base, nil
}

type tracedAlloc struct {
	kvcache.Allocator
	t *kvTrace
}

func (a *tracedAlloc) MaxExtendSteps(seqs []kvcache.Seq, limit int) int {
	m := &a.t.probe
	m.calls++
	a.t.probeSeqs += uint64(len(seqs))
	var k int
	if m.timed() {
		t0, t1 := start()
		k = a.Allocator.MaxExtendSteps(seqs, limit)
		m.end(t0, t1)
	} else {
		k = a.Allocator.MaxExtendSteps(seqs, limit)
	}
	if k < limit {
		a.t.probeCuts++
	}
	return k
}

func (a *tracedAlloc) Extend(seq kvcache.Seq, tokens int) error {
	m := &a.t.extend
	m.calls++
	if !m.timed() {
		return a.Allocator.Extend(seq, tokens)
	}
	t0, t1 := start()
	err := a.Allocator.Extend(seq, tokens)
	m.end(t0, t1)
	return err
}

func (a *tracedAlloc) Alloc(tokens int) (kvcache.Seq, error) {
	m := &a.t.alloc
	m.calls++
	if !m.timed() {
		return a.Allocator.Alloc(tokens)
	}
	t0, t1 := start()
	s, err := a.Allocator.Alloc(tokens)
	m.end(t0, t1)
	return s, err
}

func (a *tracedAlloc) Free(seq kvcache.Seq) {
	m := &a.t.free
	m.calls++
	if !m.timed() {
		a.Allocator.Free(seq)
		return
	}
	t0, t1 := start()
	a.Allocator.Free(seq)
	m.end(t0, t1)
}

func (a *tracedAlloc) CanAlloc(tokens int) bool {
	m := &a.t.canAlloc
	m.calls++
	var ok bool
	if m.timed() {
		t0, t1 := start()
		ok = a.Allocator.CanAlloc(tokens)
		m.end(t0, t1)
	} else {
		ok = a.Allocator.CanAlloc(tokens)
	}
	if !ok {
		a.t.refused++
	}
	return ok
}

// tracedPrefix adds the prefix router's view (kvcache.PrefixPaged).
type tracedPrefix struct {
	*tracedAlloc
	st prefixStater
}

func (a *tracedPrefix) HotPrefixTokens() int        { return a.st.HotPrefixTokens() }
func (a *tracedPrefix) RestorablePrefixTokens() int { return a.st.RestorablePrefixTokens() }

// tracedTiered adds prefill discounting as well (kvcache.Tiered).
type tracedTiered struct {
	tracedPrefix
	disc kvcache.PrefillDiscounter
}

func (a *tracedTiered) TakePrefillDiscount() (int, float64) { return a.disc.TakePrefillDiscount() }

// wrapFidelity checks that wrapping preserves each allocator kind's
// optional interfaces, neither hiding nor inventing any.
func wrapFidelity() []string {
	t := &kvTrace{}
	const kvBytes, budget = 1 << 17, 1 << 30
	paged, err1 := kvcache.NewPaged(16, kvBytes, budget)
	prefix, err2 := kvcache.NewPrefixPaged(16, 256, kvBytes, budget)
	if err1 != nil || err2 != nil {
		return []string{fmt.Sprint("building allocators: ", err1, err2)}
	}
	tiered, err := kvcache.NewTiered(prefix, budget, kvcache.HostLink{GBPerS: 32, LatencyS: 5e-6})
	if err != nil {
		return []string{"building a tiered allocator: " + err.Error()}
	}
	var bad []string
	for _, a := range []kvcache.Allocator{paged, prefix, tiered} {
		w, err := t.wrap(a)
		if err != nil {
			bad = append(bad, err.Error())
			continue
		}
		_, innerSt := a.(prefixStater)
		_, wrapSt := w.(prefixStater)
		_, innerDisc := a.(kvcache.PrefillDiscounter)
		_, wrapDisc := w.(kvcache.PrefillDiscounter)
		if innerSt != wrapSt || innerDisc != wrapDisc {
			bad = append(bad, fmt.Sprintf("wrapped %T: prefix view %t→%t, discounter %t→%t",
				a, innerSt, wrapSt, innerDisc, wrapDisc))
		}
	}
	return bad
}
