package des

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"

	"llmbench/internal/engine"
	"llmbench/internal/kvcache"
	"llmbench/internal/workload"
)

// Station is one replica simulator: an engine, a private KV
// allocator, a FIFO admission queue, and a running set. The kernel
// owns its event timing; the policy layers only route requests to it
// and read its load.
type Station struct {
	ID     int
	Engine *engine.Engine
	Alloc  kvcache.Allocator

	// disc is Alloc's prefix-cache view when it has one (asserted once
	// at NewStation): after each admission Alloc the station drains the
	// accrued prefill discount — cached prefix tokens that skip prefill
	// compute, plus host-link restore seconds to charge instead. nil
	// for plain allocators, which keeps every discount branch dead and
	// the float trajectory bit-identical to pre-tier kernels.
	disc kvcache.PrefillDiscounter

	// Retired marks a station drained by the autoscaler. The kernel
	// itself ignores the flag — a retired station is empty and the
	// router stops picking it, so it simply never wakes again (and the
	// kernel's awake set stops scanning it at barriers).
	Retired bool

	cfg Config

	// queue is the admission queue; the live entries are
	// queue[qhead:]. Popping advances qhead instead of reslicing, so
	// the backing array's capacity survives a million pops — the
	// allocation that used to dominate enqueue.
	queue []queued
	qhead int

	// run is the running set in admission order. Completions found
	// through the finishing heap leave nil holes (holes counts them)
	// instead of shifting the survivors; compact squeezes them out
	// before the paths that walk the set and when holes outnumber
	// members at admission, so removal stays O(1) amortised.
	run   []*runReq
	holes int

	// epoch counts the decode steps the station's started members have
	// taken together: a started member's generated count is
	// genBase + epoch, so advancing the whole batch is one increment
	// (and one kvcache Advance) rather than a pass over the members.
	// ctxBase is Σ (Input + genBase) over started members, so their
	// context sum is ctxBase + started·epoch; fresh counts running
	// members with generated < 2; finishing is a min-heap of the
	// started members by finish epoch (Output − genBase), so the
	// completions of a step or window are popped, not searched for.
	epoch     int
	ctxBase   int
	fresh     int
	finishing finishHeap

	nextAt   float64 // next window-exhausted event; < 0 when idle
	busy     float64 // time spent executing iterations
	maxIter  float64 // longest single iteration
	lastDone float64 // end of this station's last completed work
	done     int
	preempts int

	// hitToks and promptToks accumulate the prefix-cache hit rate:
	// prompt tokens admitted and the subset served from the cache.
	// Counted only when disc is non-nil, and only for prompt-phase
	// admissions (decode sub-requests were prefilled elsewhere).
	hitToks    int
	promptToks int

	// finished holds completion records not yet handed off;
	// finished[finHead:] is the unflushed suffix when a Sink drains
	// the buffer at barriers (finHead stays 0 on ledgered runs).
	finished []RequestStats
	finHead  int

	err   error
	errAt float64

	// awake marks membership in the kernel's awake set (kernel-owned;
	// guards against double registration).
	awake bool

	// arrCur is the station's monotone cursor into the kernel's
	// sorted arrival array: every arrival before it is ≤ some past
	// event time. Station event times never decrease, so the
	// next-arrival lookup advances the cursor instead of binary
	// searching the full trace at every window event.
	arrCur int

	// win is the open coalesced window, if any (win.kMax > 0); see
	// step.
	win openWindow

	decoding []*runReq // reused chunked-mode partition buffer
	admitted []*runReq // reused admission / static-batch buffer
	free     []*runReq // recycled request records
	slab     []runReq  // bump-allocation backing for fresh records

	// pricer is the station's cached pricing handle: the current
	// (batch, ctxStart) step-vector snapshot, so steady-state window
	// advance reads a station-local slice instead of engine state.
	// Cleared on reset and Release so a recycled shell cannot pin
	// engine memo arrays.
	pricer pricer

	// role is the station's pool assignment (RoleBoth when
	// aggregated); see NewPoolStation.
	role Role
	// xfers parks kv-transfers generated during the current barrier
	// for kernel pickup (collectTransfers) once every due station has
	// advanced — stations never touch shared state mid-barrier.
	xfers       []transfer
	transferred int
	// xferCut is the current barrier's delivery bound: coalesced
	// windows must not fast-forward past it, because a kv-transfer
	// delivery there could change admission. Stamped by the kernel
	// before each barrier; -1 (always, on aggregated fleets) means no
	// cut.
	xferCut float64
}

// queued is a waiting request. req.Arrival is its effective arrival,
// the queue's sort key — the eviction instant for a preempted request
// — while arrival is the trace arrival its stats report; preempted
// counts prior evictions so the lifecycle stats survive a requeue.
type queued struct {
	req       workload.Request
	arrival   float64
	preempted int
	// decode marks a decode-phase sub-request delivered by a
	// kv-transfer event; carry is its lifecycle so far (original
	// arrival, prefill timing, transfer delay), resumed on admission.
	decode bool
	carry  RequestStats
}

// runReq is an admitted request in flight. Records are drawn from the
// station's free list (or slab-allocated in batches) and recycled at
// completion and preemption, so steady-state admission allocates
// nothing; stats is embedded by value for the same reason.
type runReq struct {
	req            workload.Request
	seq            kvcache.Seq // live KV reservation handle
	genBase        int         // generated − station epoch, once started
	pendingPrefill int         // prompt tokens not yet prefilled (chunked mode)
	prefillSkip    int         // prompt tokens served from the prefix cache
	pos            int         // index in the station's run
	heapAt         int         // index in the finishing heap; -1 until started
	stats          RequestStats
}

// openWindow is a coalesced decode window that stays open across
// cuts: k steps of the running set are priced — added to the clock,
// busy and maxIter — but not yet applied to the sequences, out of a
// verified bound kMax (completion and KV headroom), anchored at the
// running set's mean context ctx0. The batch is running(), which
// cannot change while the window is open: only admission or a
// completion changes it, admission closes the window first, and
// completions land only at kMax. The zero value is a closed window.
type openWindow struct{ k, kMax, ctx0 int }

// reqSlabLen is how many records one slab allocation provides while
// the free list warms up.
const reqSlabLen = 64

// getReq takes a recycled (or slab-fresh) record and initialises it
// for an admission at time now.
func (s *Station) getReq(q queued, now float64) *runReq {
	var r *runReq
	if n := len(s.free); n > 0 {
		r = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		if len(s.slab) == 0 {
			s.slab = make([]runReq, reqSlabLen)
		}
		r = &s.slab[0]
		s.slab = s.slab[1:]
	}
	*r = runReq{
		req:    q.req,
		heapAt: -1,
		stats: RequestStats{
			ID: q.req.ID, Input: q.req.Input, Output: q.req.Output,
			Arrival: q.arrival, Started: now, Preempted: q.preempted,
		},
	}
	if q.decode {
		// Decode sub-request: resume the carried lifecycle — original
		// arrival, prefill timing, transfer delay — with the prompt
		// already prefilled on the prefill pool (first token emitted
		// there, so generated starts at 1).
		r.stats = q.carry
		s.start(r, 1)
	}
	return r
}

// putReq recycles a record whose lifecycle ended (completion or
// preemption). The caller must not touch it afterwards.
func (s *Station) putReq(r *runReq) { s.free = append(s.free, r) }

// reset returns a recycled station shell to its just-created state,
// keeping the warmed buffers and free list.
func (s *Station) reset() {
	s.Retired = false
	s.queue = s.queue[:0]
	s.qhead = 0
	s.run = s.run[:0]
	s.holes = 0
	s.epoch, s.ctxBase, s.fresh = 0, 0, 0
	s.finishing = s.finishing[:0]
	s.nextAt = -1
	s.busy, s.maxIter, s.lastDone = 0, 0, 0
	s.done, s.preempts = 0, 0
	s.disc = nil
	s.hitToks, s.promptToks = 0, 0
	s.finished = s.finished[:0]
	s.finHead = 0
	s.err, s.errAt = nil, 0
	s.awake = false
	s.arrCur = 0
	s.pricer = pricer{}
	s.win = openWindow{}
	s.role = RoleBoth
	s.xfers = s.xfers[:0]
	s.transferred = 0
	s.xferCut = -1
}

// queueLen is the number of live queued requests.
func (s *Station) queueLen() int { return len(s.queue) - s.qhead }

// popHead removes and returns the queue's head.
func (s *Station) popHead() queued {
	q := s.queue[s.qhead]
	s.qhead++
	if s.qhead == len(s.queue) {
		s.queue, s.qhead = s.queue[:0], 0
	}
	return q
}

// running is the number of requests in the running set.
func (s *Station) running() int { return len(s.run) - s.holes }

// Outstanding is the station's queued plus running request count —
// the load signal the routing and scaling policies read at arrival
// barriers.
func (s *Station) Outstanding() int { return s.queueLen() + s.running() }

// PendingPrefillTokens is the prompt-token backlog still chunking
// through this station's fused prefill slot (always 0 outside chunked
// mode). Routers use it to tell a materialized prefix cache from one
// still being established: prefix blocks score hot the moment they
// allocate, but until the establishing prompt finishes its slices,
// co-located requests ride iterations inflated by them. A bounded
// scan of the running set — O(MaxBatch), allocation-free — read at
// the arrival barrier like Outstanding.
func (s *Station) PendingPrefillTokens() int {
	pending := 0
	for _, r := range s.run {
		if r != nil {
			pending += r.pendingPrefill
		}
	}
	return pending
}

// Role reports the station's pool assignment.
func (s *Station) Role() Role { return s.role }

// enqueue inserts a request keeping the queue sorted by effective
// arrival time (FIFO among equals). The router delivers arrivals in
// time order, so this is almost always an append — except when a
// preempted request was requeued with an eviction time that lands
// beyond a not-yet-routed arrival: admission order must follow
// effective arrival, not delivery order.
func (s *Station) enqueue(q queued) {
	if s.qhead > 0 && len(s.queue) == cap(s.queue) {
		// Reclaim the popped prefix before append would grow the
		// array: steady state then reuses one backing array forever.
		n := copy(s.queue, s.queue[s.qhead:])
		s.queue, s.qhead = s.queue[:n], 0
	}
	live := s.queue[s.qhead:]
	i := sort.Search(len(live), func(i int) bool { return live[i].req.Arrival > q.req.Arrival })
	s.queue = append(s.queue, queued{})
	live = s.queue[s.qhead:]
	copy(live[i+1:], live[i:])
	live[i] = q
}

// advance runs the station's due events up to (strictly before) the
// barrier. Everything it touches is station-local or immutable, so
// the order the kernel advances due stations in cannot change the
// result.
func (s *Station) advance(barrier float64, arrivals []float64) {
	for s.err == nil && s.nextAt >= 0 && s.nextAt < barrier {
		now := s.nextAt
		// The coalescing cut is the earlier of the next trace arrival
		// and the barrier's kv-transfer delivery bound (xferCut, -1 on
		// aggregated fleets): an event may not price a window across
		// either kind of delivery.
		na := s.nextArrival(arrivals, now)
		if s.xferCut >= 0 && (na < 0 || s.xferCut < na) {
			na = s.xferCut
		}
		end, err := s.step(now, na)
		if err != nil {
			s.err, s.errAt = err, now
			return
		}
		if s.running() == 0 && s.queueLen() == 0 {
			s.nextAt = -1 // idle; an arrival wakes the station
			return
		}
		if end <= now {
			// Work remains but the clock did not move: the event loop
			// would spin. Cannot happen with positive step costs;
			// guard it instead of hanging.
			s.err, s.errAt = fmt.Errorf("des: station %d stalled at t=%g", s.ID, now), now
			return
		}
		s.nextAt = end
	}
}

// nextArrival returns the earliest arrival strictly after now, or -1
// when none remain — the bound that keeps coalesced windows from
// crossing a routing decision. A station's event times are monotone
// (events only move the clock forward, and an idle station wakes at
// the current barrier, never earlier), so the cursor only advances:
// the lookup is amortised O(1) per event instead of a binary search
// over the full trace. A cursor that somehow overshot (which the
// monotonicity invariant rules out) is re-anchored by binary search
// rather than trusted.
func (s *Station) nextArrival(arrivals []float64, now float64) float64 {
	i := s.arrCur
	if i > 0 && arrivals[i-1] > now {
		i = sort.SearchFloat64s(arrivals, now)
	}
	for i < len(arrivals) && arrivals[i] <= now {
		i++
	}
	s.arrCur = i
	if i == len(arrivals) {
		return -1
	}
	return arrivals[i]
}

// step runs one window-exhausted event at time now: admission from
// the queue head, then either a coalesced fast-forward over identical
// decode iterations up to the next cut or a single reference
// iteration. It returns the event's end time (== now when the station
// stays idle).
//
// A coalesced window outlives the cut that ends an event (the next
// trace arrival, which usually routes elsewhere, or xferCut): while
// the queue stays empty, the next event only resumes pricing it
// (continueWindow) and touches no sequence. An event that finds the
// queue non-empty — a request was routed here, or a blocked head
// waits — first applies the priced steps at now, then takes the
// admission path exactly as if every cut had been a window boundary.
func (s *Station) step(now, cut float64) (float64, error) {
	if s.cfg.Static {
		return s.stepStatic(now)
	}
	if s.role == RolePrefill {
		return s.stepPrefill(now)
	}
	if s.win.kMax > 0 {
		if s.queueLen() == 0 {
			return s.continueWindow(now, cut)
		}
		if err := s.closeWindow(now); err != nil {
			return 0, err
		}
	}
	// Admit from the head of the queue while batch slots and KV
	// capacity remain. Admission is FIFO: a blocked head blocks
	// everything behind it.
	s.admitted = s.admitted[:0]
	var restoreS float64
	for s.queueLen() > 0 && s.running()+len(s.admitted) < s.cfg.MaxBatch {
		q := s.queue[s.qhead]
		if q.decode != (s.role == RoleDecode) {
			// A phase routed to the wrong pool: the simulation would
			// silently double-charge or skip the prefill. Router bug.
			return 0, fmt.Errorf("des: station %d (%s) received a %s-phase request %d",
				s.ID, s.role, phaseName(q.decode), q.req.ID)
		}
		if !s.Alloc.CanAlloc(q.req.Input) {
			break
		}
		seq, err := s.Alloc.Alloc(q.req.Input)
		if err != nil {
			break
		}
		s.popHead()
		r := s.getReq(q, now)
		r.seq = seq
		if s.disc != nil {
			skip, rs := s.disc.TakePrefillDiscount()
			r.prefillSkip = skip
			restoreS += rs
			if !q.decode {
				s.hitToks += skip
				s.promptToks += q.req.Input
			}
		}
		s.admitted = append(s.admitted, r)
	}
	admitted := s.admitted
	var step float64
	if len(admitted) > 0 {
		if s.role == RoleDecode {
			// Decode sub-requests arrive prefilled: FirstTok was set on
			// the prefill pool and generated is already 1 (getReq), so
			// admission charges nothing here — except restore seconds,
			// which bring demoted prefix blocks back before decoding.
			if restoreS > 0 {
				step += restoreS
			}
		} else if s.cfg.ChunkedPrefill {
			// Prompts enter the prefill queue; their tokens are
			// processed in slices fused with decode iterations. Cached
			// prefix tokens never enter it (the last prompt token always
			// does — its logits drive the first output); restore seconds
			// stall the batch up front like an admission prefill would.
			for _, a := range admitted {
				a.pendingPrefill = a.req.Input - a.prefillSkip
			}
			if restoreS > 0 {
				if s.running() > 0 && restoreS > s.maxIter {
					s.maxIter = restoreS
				}
				step += restoreS
			}
		} else {
			// Charge one batched prefill for the admitted prompts,
			// stalling the running set (the non-SplitFuse cost). Cached
			// prefix tokens are excluded from the batch; restore seconds
			// for demoted blocks join the stall instead.
			in := 0
			for _, a := range admitted {
				in += a.req.Input - a.prefillSkip
			}
			pf, err := s.Engine.PrefillSeconds(len(admitted), in/len(admitted))
			if err != nil {
				return 0, err
			}
			adm := pf
			if restoreS > 0 {
				adm += restoreS
			}
			if s.running() > 0 && adm > s.maxIter {
				s.maxIter = adm // running requests stalled this long
			}
			step += adm
			for _, a := range admitted {
				a.stats.FirstTok = now + step
				s.start(a, 1) // prefill emits the first token
			}
		}
		s.join(admitted)
	}
	if s.running() == 0 {
		if s.queueLen() > 0 {
			// Nothing is running and the head cannot be admitted: no
			// future completion can free capacity, so it never fits.
			return 0, fmt.Errorf("des: station %d cannot admit request %d (input %d): KV cache too small",
				s.ID, s.queue[s.qhead].req.ID, s.queue[s.qhead].req.Input)
		}
		return now, nil
	}
	// Coalescing fast path: a pure-decode state whose next iterations
	// are identical except for context growth. Every member must be
	// established — generated ≥ 2, so its reservation already equals
	// Input+generated and each step extends it by exactly one token,
	// the trajectory AdvanceSteps prices; no fresh member also means
	// no pending prefill. A fresh request runs its first iteration
	// stepped. The bound comes from the finishing heap's head, the
	// context sum from ctxBase and the headroom from the allocator's
	// ring, so opening a window visits no member, and continueWindow
	// prices it across every cut from there.
	if !s.cfg.Stepped && len(admitted) == 0 && s.fresh == 0 {
		kMax := s.finishing[0].finishEpoch() - s.epoch
		if kMax > 1 {
			if k := s.Alloc.AdvanceSteps(kMax); k < kMax {
				kMax = k
			}
		}
		if kMax >= 2 {
			n := s.running()
			s.win = openWindow{kMax: kMax, ctx0: (s.ctxBase + n*s.epoch) / n}
			return s.continueWindow(now, cut)
		}
	}
	if !s.cfg.Stepped && !s.cfg.ChunkedPrefill && !s.cfg.Preemptive {
		return s.batchIteration(now, step, admitted)
	}
	return s.memberIteration(now, step)
}

// batchIteration runs one reference iteration of the plain policy (no
// chunked prefill, no preemption, not Stepped) after admission has
// charged step seconds: the whole running set decodes one token in
// O(BlockTokens + admitted + completed). Completions free their
// reservations first — the final token does not grow one — then the
// fresh admissions are extended to Input+1 so that one batch
// Advance(1) takes every survivor to Input+generated.
func (s *Station) batchIteration(now, step float64, admitted []*runReq) (float64, error) {
	n := s.running()
	t, err := s.Engine.DecodeStepSeconds(n, (s.ctxBase+n*s.epoch)/n)
	if err != nil {
		return 0, err
	}
	step += t
	if step > s.maxIter {
		s.maxIter = step
	}
	end := now + step
	s.busy += step
	s.finishDue(s.epoch+1, end)
	for _, a := range admitted {
		// A finished admission left the heap (its record is recycled
		// only at the next admission, so the read is safe).
		if a.heapAt >= 0 {
			if err := s.Alloc.Extend(a.seq, a.req.Input+1); err != nil {
				return 0, err
			}
		}
	}
	if err := s.Alloc.Advance(1); err != nil {
		return 0, err
	}
	s.epoch++
	s.fresh = 0
	return end, nil
}

// memberIteration runs one reference iteration member by member: the
// Stepped oracle, and the chunked and preemptive policies, whose
// members advance unevenly (pending prefills, evictions). Admission
// has charged step seconds.
func (s *Station) memberIteration(now, step float64) (float64, error) {
	s.compact()
	// One iteration: a decode step for the generating set, fused with
	// at most one prefill slice in chunked mode. Without chunked
	// prefill the whole running set decodes — no partition needed.
	decoding := s.run
	var prefilling *runReq
	if s.cfg.ChunkedPrefill {
		// The fused slice goes to the pending prompt with the fewest
		// tokens left (ties to admission order): shortest-remaining
		// first, the iteration-level shape of Dynamic-SplitFuse's mixed
		// partial prefills. A short suffix never waits behind a long
		// cold prompt chunking through — without this, every request
		// admitted during a prefix-cache miss's establishment inherits
		// the whole establishment latency instead of one slice.
		s.decoding = s.decoding[:0]
		for _, r := range s.run {
			if r.pendingPrefill > 0 {
				if prefilling == nil || r.pendingPrefill < prefilling.pendingPrefill {
					prefilling = r
				}
			} else {
				s.decoding = append(s.decoding, r)
			}
		}
		decoding = s.decoding
	}
	if len(decoding) > 0 {
		ctxSum := 0
		for _, r := range decoding {
			ctxSum += r.req.Input + s.generated(r)
		}
		t, err := s.Engine.DecodeStepSeconds(len(decoding), ctxSum/len(decoding))
		if err != nil {
			return 0, err
		}
		step += t
	}
	var prefilled *runReq // emits its first token this iteration
	if prefilling != nil {
		chunk := s.cfg.PrefillChunk
		if chunk <= 0 {
			chunk = 512
		}
		if chunk > prefilling.pendingPrefill {
			chunk = prefilling.pendingPrefill
		}
		t, err := s.Engine.PrefillSeconds(1, chunk)
		if err != nil {
			return 0, err
		}
		step += t
		prefilling.pendingPrefill -= chunk
		if prefilling.pendingPrefill == 0 {
			prefilling.stats.FirstTok = now + step
			prefilled = prefilling
		}
	}
	if len(decoding) > 0 && step > s.maxIter {
		s.maxIter = step
	}
	end := now + step
	s.busy += step
	// Every started member decodes one token: the epoch moves, and
	// the member just prefilled starts at generated 1 after it.
	s.epoch++
	next := s.run[:0]
	for _, r := range s.run {
		if r == prefilled || r.heapAt < 0 {
			// Just emitted its first token this iteration (it starts at
			// generated 1 from the new epoch), or still prefilling — no
			// decode advance yet.
			if r == prefilled {
				s.start(r, 1)
			}
			next = s.keep(next, r)
			continue
		}
		g := s.generated(r)
		if s.cfg.Preemptive {
			if err := s.Alloc.Extend(r.seq, r.req.Input+g); err != nil {
				if errors.Is(err, kvcache.ErrOutOfMemory) {
					// Preempt: evict and requeue at the tail of this
					// station's queue (recompute later). The requeued
					// request re-enters the queue at the eviction
					// instant but keeps its trace arrival for its stats.
					s.stop(r)
					s.Alloc.Free(r.seq)
					s.preempts++
					requeued := r.req
					requeued.Arrival = end
					s.queue = append(s.queue, queued{req: requeued, arrival: r.stats.Arrival, preempted: r.stats.Preempted + 1})
					s.putReq(r)
					continue
				}
				return 0, err
			}
		}
		// Without preemption the completion check comes before any
		// Extend — a sequence emitting its final token does not grow
		// its reservation — and the extends follow once every
		// completion has freed its blocks, as batchIteration and
		// closeWindow do.
		if g >= r.req.Output {
			s.stop(r)
			s.finish(r, end)
			continue
		}
		next = s.keep(next, r)
	}
	clear(s.run[len(next):])
	s.run = next
	s.fresh = 0
	for _, r := range s.run {
		if r.heapAt < 0 || s.generated(r) < 2 {
			s.fresh++
		}
		if !s.cfg.Preemptive && r.heapAt >= 0 && r != prefilled {
			if err := s.Alloc.Extend(r.seq, r.req.Input+s.generated(r)); err != nil {
				return 0, err
			}
		}
	}
	return end, nil
}

// continueWindow prices the open window from its next unpriced step
// up to the cut (or its bound), starting at now. The costs are added
// in step order, so the clock, busy and maxIter come out exactly as
// stepped iterations would leave them. Reaching the bound closes the
// window at its end, completions included.
func (s *Station) continueWindow(now, cut float64) (float64, error) {
	costs, err := s.pricer.run(s.Engine, s.running(), s.win.ctx0, s.win.k, s.win.kMax, now, cut)
	if err != nil {
		return 0, err
	}
	end := now
	for _, c := range costs {
		if c > s.maxIter {
			s.maxIter = c
		}
		end += c
		s.busy += c
	}
	s.win.k += len(costs)
	if s.win.k == s.win.kMax {
		if err := s.closeWindow(end); err != nil {
			return 0, err
		}
	}
	return end, nil
}

// closeWindow applies the open window's priced steps to the running
// set at time end and closes it: the epoch moves by k and one batch
// Advance(k) grows every reservation — headroom was verified for the
// whole bound, so it cannot run out of memory, and the allocator lands
// in the same state as k single-token extends — while the completions
// at end are popped off the finishing heap. Completions occur only
// when the window reached its bound; a window closed early by a
// queued request has k < kMax, short of every member's last token.
// Preemptive bookkeeping advances before finishing, exactly as its
// stepped path extends before the completion check; otherwise the
// completing sequences are freed first, since their final token does
// not grow a reservation.
func (s *Station) closeWindow(end float64) error {
	k := s.win.k
	s.win = openWindow{}
	if !s.cfg.Preemptive {
		s.finishDue(s.epoch+k, end)
	}
	if err := s.Alloc.Advance(k); err != nil {
		return err
	}
	s.epoch += k
	if s.cfg.Preemptive {
		s.finishDue(s.epoch, end)
	}
	return nil
}

// generated is a member's output-token count: 0 until it starts.
func (s *Station) generated(r *runReq) int {
	if r.heapAt < 0 {
		return 0
	}
	return r.genBase + s.epoch
}

// start marks a member as having emitted gen tokens: from here on it
// advances with the epoch, counts in ctxBase, and waits in the
// finishing heap.
func (s *Station) start(r *runReq, gen int) {
	r.genBase = gen - s.epoch
	s.ctxBase += r.req.Input + r.genBase
	heap.Push(&s.finishing, r)
}

// stop withdraws a started member from the epoch bookkeeping (its
// completion or eviction).
func (s *Station) stop(r *runReq) {
	s.ctxBase -= r.req.Input + r.genBase
	heap.Remove(&s.finishing, r.heapAt)
}

// finishDue completes, at time end, every member whose finish epoch is
// at most limit, leaving holes in the running set.
func (s *Station) finishDue(limit int, end float64) {
	for len(s.finishing) > 0 && s.finishing[0].finishEpoch() <= limit {
		r := s.finishing[0]
		s.stop(r)
		s.run[r.pos] = nil
		s.holes++
		s.finish(r, end)
	}
	if s.holes == len(s.run) {
		s.run, s.holes = s.run[:0], 0
	}
}

// finishEpoch is the station epoch at which a started member emits
// its last token.
func (r *runReq) finishEpoch() int { return r.req.Output - r.genBase }

// finishHeap orders started members by finish epoch (container/heap),
// keeping each member's index in heapAt.
type finishHeap []*runReq

func (h finishHeap) Len() int           { return len(h) }
func (h finishHeap) Less(i, j int) bool { return h[i].finishEpoch() < h[j].finishEpoch() }
func (h finishHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapAt, h[j].heapAt = i, j
}

func (h *finishHeap) Push(x any) {
	r := x.(*runReq)
	r.heapAt = len(*h)
	*h = append(*h, r)
}

func (h *finishHeap) Pop() any {
	old := *h
	r := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	r.heapAt = -1
	return r
}

// join appends admitted requests to the running set, first squeezing
// out the holes when they outnumber the members.
func (s *Station) join(admitted []*runReq) {
	if s.holes > s.running() {
		s.compact()
	}
	for _, r := range admitted {
		s.run = s.keep(s.run, r)
	}
	s.fresh += len(admitted)
}

// keep appends a member to run, recording its position.
func (s *Station) keep(run []*runReq, r *runReq) []*runReq {
	r.pos = len(run)
	return append(run, r)
}

// compact removes the running set's holes, keeping admission order.
func (s *Station) compact() {
	if s.holes == 0 {
		return
	}
	next := s.run[:0]
	for _, r := range s.run {
		if r != nil {
			next = s.keep(next, r)
		}
	}
	clear(s.run[len(next):])
	s.run, s.holes = next, 0
}

// phaseName names a queued entry's phase for error messages.
func phaseName(decode bool) string {
	if decode {
		return "decode"
	}
	return "prefill"
}

// stepPrefill runs one prefill-pool event: admit up to MaxBatch
// queued prompts, charge one batched prefill, and hand every admitted
// sub-request off to the decode pool via a kv-transfer record. The
// running set is empty between events — the prefilled KV leaves with
// the transfer — so prefill stations never decode, never preempt, and
// their allocator only bounds the prefill batch in flight.
func (s *Station) stepPrefill(now float64) (float64, error) {
	s.admitted = s.admitted[:0]
	var restoreS float64
	for s.queueLen() > 0 && len(s.admitted) < s.cfg.MaxBatch {
		q := s.queue[s.qhead]
		if q.decode {
			return 0, fmt.Errorf("des: station %d (prefill) received a decode-phase request %d", s.ID, q.req.ID)
		}
		if !s.Alloc.CanAlloc(q.req.Input) {
			break
		}
		seq, err := s.Alloc.Alloc(q.req.Input)
		if err != nil {
			break
		}
		s.popHead()
		r := s.getReq(q, now)
		r.seq = seq
		if s.disc != nil {
			skip, rs := s.disc.TakePrefillDiscount()
			r.prefillSkip = skip
			restoreS += rs
			s.hitToks += skip
			s.promptToks += q.req.Input
		}
		s.admitted = append(s.admitted, r)
	}
	if len(s.admitted) == 0 {
		if s.queueLen() > 0 {
			// Nothing in flight survives a prefill event, so a head
			// that does not fit an empty pool never will.
			return 0, fmt.Errorf("des: station %d cannot admit request %d (input %d): KV cache too small",
				s.ID, s.queue[s.qhead].req.ID, s.queue[s.qhead].req.Input)
		}
		return now, nil
	}
	in := 0
	for _, a := range s.admitted {
		in += a.req.Input - a.prefillSkip
	}
	pf, err := s.Engine.PrefillSeconds(len(s.admitted), in/len(s.admitted))
	if err != nil {
		return 0, err
	}
	if restoreS > 0 {
		pf += restoreS // demoted prefix blocks restore before the batch
	}
	end := now + pf
	s.busy += pf
	for _, a := range s.admitted {
		// The batched prefill emits each prompt's first token at the
		// batch's end, exactly as aggregated admission charges it.
		a.stats.FirstTok = end
		s.handoff(a, end)
	}
	return end, nil
}

// handoff retires a prefill sub-request at time end: the local KV
// reservation is released (the blocks travel to the decode pool), the
// transfer is priced on the prompt's block footprint, and a transfer
// record is parked on the station's buffer for kernel pickup at the
// barrier join. The runReq goes straight back on the free list — the
// transfer record carries the lifecycle by value, preserving the
// zero-steady-state-allocation invariant across the pool boundary.
// The outgoing request's Arrival is rewritten to the delivery instant
// so the decode pool's queue sorts by effective arrival; the original
// arrival survives in the carried stats.
func (s *Station) handoff(r *runReq, end float64) {
	s.Alloc.Free(r.seq)
	d := s.cfg.Transfer.Seconds(r.req.Input)
	r.stats.TransferS = d
	req := r.req
	req.Arrival = end + d
	s.xfers = append(s.xfers, transfer{at: end + d, req: req, stats: r.stats})
	s.putReq(r)
	s.transferred++
}

// stepStatic runs one static-batching event. When a batch is in
// flight its run-to-completion window ends exactly now: every member
// completes and frees its reservation. Then the next batch is
// collected from the arrived queue — up to MaxBatch requests, each
// reserving its full input+output context up front; one that does not
// fit stays queued for a later batch without blocking those behind it
// (pre-Orca admission is a scan, not FIFO head-blocking) — and its
// whole padded run is priced as a single event. Completion times,
// first-token times, and the batch-collection instants are
// byte-identical to the hand-rolled loop this replaced (see
// sched.TestStaticKernelMatchesLegacy). Static stations never extend
// a reservation, so they can never preempt, and they record no
// per-iteration stall (a batch run has no iteration granularity).
func (s *Station) stepStatic(now float64) (float64, error) {
	if len(s.run) > 0 {
		for _, r := range s.run {
			s.finish(r, now)
		}
		s.run = s.run[:0]
	}
	s.admitted = s.admitted[:0]
	var restoreS float64
	live := s.queue[s.qhead:]
	rest := s.queue[:0]
	s.qhead = 0
	for _, q := range live {
		if len(s.admitted) < s.cfg.MaxBatch && s.Alloc.CanAlloc(q.req.Input+q.req.Output) {
			if seq, err := s.Alloc.Alloc(q.req.Input + q.req.Output); err == nil {
				r := s.getReq(q, now)
				r.seq = seq
				if s.disc != nil {
					// Static batches run one padded graph, so cached
					// prefix tokens cannot shorten the prefill — the hit
					// is recorded and restore seconds are charged, but
					// the skip is dropped (r.prefillSkip stays zero).
					skip, rs := s.disc.TakePrefillDiscount()
					restoreS += rs
					s.hitToks += skip
					s.promptToks += q.req.Input
				}
				s.admitted = append(s.admitted, r)
				continue
			}
		}
		rest = append(rest, q)
	}
	s.queue = rest
	batch := s.admitted
	if len(batch) == 0 {
		if s.queueLen() > 0 {
			// The allocator is drained between batches, so a request
			// that does not fit an empty pool never will.
			return 0, fmt.Errorf("des: station %d cannot batch request %d (input %d, output %d): KV cache too small",
				s.ID, s.queue[s.qhead].req.ID, s.queue[s.qhead].req.Input, s.queue[s.qhead].req.Output)
		}
		return now, nil
	}
	// The static batch runs until its longest member finishes: one
	// graph, one shape, padded to the longest prompt and generation.
	maxIn, maxOut := 0, 0
	for _, r := range batch {
		if r.req.Input > maxIn {
			maxIn = r.req.Input
		}
		if r.req.Output > maxOut {
			maxOut = r.req.Output
		}
	}
	res, err := s.Engine.Run(workload.Spec{Batch: len(batch), Input: maxIn, Output: maxOut})
	if err != nil {
		return 0, err
	}
	start := now
	if restoreS > 0 {
		start += restoreS // demoted prefix blocks restore before the run
		s.busy += restoreS
	}
	for _, r := range batch {
		r.stats.FirstTok = start + res.TTFTSeconds
	}
	s.run = append(s.run, batch...)
	s.busy += res.E2ESeconds
	return start + res.E2ESeconds, nil
}

// finish records a completion at time end and recycles the record.
func (s *Station) finish(r *runReq, end float64) {
	s.Alloc.Free(r.seq)
	r.stats.Finished = end
	s.finished = append(s.finished, r.stats)
	s.putReq(r)
	s.done++
	if end > s.lastDone {
		s.lastDone = end
	}
}
