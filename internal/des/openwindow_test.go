package des_test

// Open-window suites: a station's coalesced window stays open across
// trace arrivals routed to other stations, so a router reading station
// state mid-window must see exactly what the stepped kernel shows it.
// Both suites route least-loaded on Outstanding(); the other des
// suites route round-robin, which reads no station state.

import (
	"fmt"
	"reflect"
	"testing"

	"llmbench/internal/des"
	"llmbench/internal/dtype"
	"llmbench/internal/kvcache"
	"llmbench/internal/model"
	"llmbench/internal/workload"
)

// leastLoaded returns a router that sends arrival i to station pin[i]
// for the first len(pin) arrivals, then joins the station with the
// fewest outstanding requests (lowest index on ties). Every
// least-loaded pick appends the Outstanding() it read on each station
// to seen.
func leastLoaded(stations []*des.Station, pin []int, seen *[][]int) func(float64) *des.Station {
	calls := 0
	return func(float64) *des.Station {
		defer func() { calls++ }()
		if calls < len(pin) {
			return stations[pin[calls]]
		}
		loads := make([]int, len(stations))
		best := 0
		for i, s := range stations {
			loads[i] = s.Outstanding()
			if loads[i] < loads[best] {
				best = i
			}
		}
		*seen = append(*seen, loads)
		return stations[best]
	}
}

// runLeastLoaded runs reqs on n stations with allocators from
// newAlloc behind leastLoaded. It returns the Result, the run error
// (as a string, so error paths compare too), and the loads the router
// read.
func runLeastLoaded(t testing.TB, cfg des.Config, n int, newAlloc func() kvcache.Allocator, pin []int, reqs []workload.Request) (des.Result, string, [][]int) {
	t.Helper()
	eng := testEngine(t)
	k := des.New(cfg)
	stations := make([]*des.Station, n)
	for i := range stations {
		stations[i] = k.NewStation(eng, newAlloc())
	}
	var seen [][]int
	k.Route = leastLoaded(stations, pin, &seen)
	res, err := k.Run(reqs)
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	return res, msg, seen
}

// TestKernelWindowBoundaryTies places arrivals exactly on the step
// boundaries of station 0's open window — computed from the same
// CoalesceWindow costs the station sums — one mid-window and one at
// the start of the window's last step. Routed elsewhere ("foreign"),
// the arrivals must leave the window open and the router must read
// station 0's pre-completion Outstanding at the last step; routed to
// station 0 ("own"), the first arrival closes the window at the
// boundary. Either way coalesced must equal stepped to the bit,
// router observations included.
func TestKernelWindowBoundaryTies(t *testing.T) {
	const (
		in, out = 256, 64
		mid     = 20 // the mid-window boundary, in steps
		capGiB  = 16
	)
	eng := testEngine(t)
	// Station 0 admits two identical requests at t=0: one event
	// charges their batched prefill plus their first decode step
	// (generated 1 → 2), then the window opens at t2 with kMax =
	// out-2 steps at mean context in+2.
	pf, err := eng.PrefillSeconds(2, in)
	if err != nil {
		t.Fatal(err)
	}
	d0, err := eng.DecodeStepSeconds(2, in+1)
	if err != nil {
		t.Fatal(err)
	}
	t2 := 0 + (pf + d0)
	kMax := out - 2
	ref := testAlloc(t, capGiB)
	seqs := make([]kvcache.Seq, 2)
	for i := range seqs {
		if seqs[i], err = ref.Alloc(in); err != nil {
			t.Fatal(err)
		}
		if err := ref.Extend(seqs[i], in+2); err != nil {
			t.Fatal(err)
		}
	}
	costs, err := des.CoalesceWindow(eng, ref, seqs, 2, in+2, kMax, t2, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(costs) != kMax {
		t.Fatalf("test setup: window of %d steps, want %d", len(costs), kMax)
	}
	// boundary[j] is the start of step j: the station's clock after
	// summing the first j costs in order.
	boundary := make([]float64, kMax+1)
	boundary[0] = t2
	for j, c := range costs {
		boundary[j+1] = boundary[j] + c
	}

	for _, c := range []struct {
		name    string
		pin     []int // stations for the t=0 requests
		foreign bool  // the tie arrivals route away from station 0
	}{
		{name: "foreign", pin: []int{0, 0}, foreign: true},
		{name: "own", pin: []int{0, 0, 1, 1, 1}},
	} {
		var reqs []workload.Request
		for i := range c.pin {
			o := out
			if c.pin[i] == 1 {
				o = 4 * out // keeps station 1 the busier one
			}
			reqs = append(reqs, workload.Request{ID: i, Input: in, Output: o})
		}
		reqs = append(reqs,
			workload.Request{ID: len(reqs), Input: 128, Output: 4 * out, Arrival: boundary[mid]},
			workload.Request{ID: len(reqs) + 1, Input: 128, Output: 4 * out, Arrival: boundary[kMax-1]})
		newAlloc := func() kvcache.Allocator { return testAlloc(t, capGiB) }

		cfg := des.Config{MaxBatch: 8}
		co, coErr, coSeen := runLeastLoaded(t, cfg, 2, newAlloc, c.pin, reqs)
		cfg.Stepped = true
		st, stErr, stSeen := runLeastLoaded(t, cfg, 2, newAlloc, c.pin, reqs)
		if coErr != "" || stErr != "" {
			t.Fatalf("%s: run errors: coalesced %q, stepped %q", c.name, coErr, stErr)
		}
		if !reflect.DeepEqual(co, st) {
			t.Errorf("%s: coalesced Result differs from stepped", c.name)
		}
		if !reflect.DeepEqual(coSeen, stSeen) {
			t.Errorf("%s: router read %v coalesced, %v stepped", c.name, coSeen, stSeen)
		}
		if len(coSeen) != 2 {
			t.Fatalf("%s: router made %d least-loaded picks, want 2", c.name, len(coSeen))
		}
		if !c.foreign {
			if coSeen[0][0] >= coSeen[0][1] {
				t.Errorf("%s: mid-window arrival saw loads %v, want it routed to station 0", c.name, coSeen[0])
			}
			continue
		}
		// Both arrivals went to station 1, so station 0's window ran
		// open across both ties and completed at its bound.
		for i, loads := range coSeen {
			if loads[0] != 2 {
				t.Errorf("%s: arrival %d read station 0 Outstanding %d, want the pre-completion 2", c.name, i, loads[0])
			}
		}
		for _, r := range co.Finished {
			if r.ID < 2 && r.Finished != boundary[kMax] {
				t.Errorf("%s: request %d finished at %v, want the window end %v", c.name, r.ID, r.Finished, boundary[kMax])
			}
		}
	}
}

// budgetAlloc refuses admissions once its fleet has used up a shared
// admission budget (*left). Under tight pools the preemptive policy can thrash forever —
// every eviction is recomputed from scratch and admission refills the
// pool — so the fuzz target bounds a run by admissions, which happen
// at the same instants in every kernel mode: a thrashing run drains
// its running sets and fails with the same error coalesced and
// stepped.
type budgetAlloc struct {
	kvcache.Allocator
	left *int
}

func (b budgetAlloc) CanAlloc(tokens int) bool {
	return *b.left > 0 && b.Allocator.CanAlloc(tokens)
}

func (b budgetAlloc) Alloc(tokens int) (kvcache.Seq, error) {
	*b.left--
	return b.Allocator.Alloc(tokens)
}

// FuzzKernelCoalescedMatchesStepped is the kernel's differential
// property over small random fleets: 1–8 least-loaded stations, KV
// pools tight enough that windows hit their headroom bound and (when
// Preemptive) preempt, must run byte-identically coalesced and
// stepped — Result, error, and every load the router read.
func FuzzKernelCoalescedMatchesStepped(f *testing.F) {
	m := model.MustGet("LLaMA-3-8B")
	perToken := m.KVBytesPerToken(dtype.FP16)
	f.Fuzz(func(t *testing.T, seed uint64, stations, maxBatch uint8, rateDeci, outMean, kvTokens uint16, preemptive bool) {
		n := 1 + int(stations)%8
		reqs, err := workload.PoissonTrace(workload.TraceConfig{
			Seed: seed, Requests: 24, RatePerSec: 0.5 + float64(rateDeci%200)/10,
			InputMean: 128, OutputMean: 8 + int(outMean)%384, LengthJitter: 0.4,
		})
		if err != nil {
			t.Skip(err)
		}
		// The pool always fits the longest request alone; kvTokens is
		// the slack beyond it, so windows run into their headroom.
		longest := 0
		for _, r := range reqs {
			longest = max(longest, r.Input+r.Output)
		}
		capacity := float64(longest+int(kvTokens)%4096) * perToken
		var left int
		newAlloc := func() kvcache.Allocator {
			a, err := kvcache.NewPaged(16, perToken, capacity)
			if err != nil {
				t.Fatal(err)
			}
			return budgetAlloc{Allocator: a, left: &left}
		}
		cfg := des.Config{MaxBatch: 1 + int(maxBatch)%16, Preemptive: preemptive}
		left = 8 * len(reqs)
		co, coErr, coSeen := runLeastLoaded(t, cfg, n, newAlloc, nil, reqs)
		cfg.Stepped = true
		left = 8 * len(reqs)
		st, stErr, stSeen := runLeastLoaded(t, cfg, n, newAlloc, nil, reqs)
		if coErr != stErr {
			t.Fatalf("errors differ: coalesced %q, stepped %q", coErr, stErr)
		}
		if !reflect.DeepEqual(co, st) {
			t.Fatalf("coalesced Result differs from stepped:\n%s", firstDiff(co, st))
		}
		if !reflect.DeepEqual(coSeen, stSeen) {
			t.Fatalf("router read %v coalesced, %v stepped", coSeen, stSeen)
		}
	})
}

// firstDiff describes the first field where two Results part ways.
func firstDiff(a, b des.Result) string {
	for i := 0; i < len(a.Finished) && i < len(b.Finished); i++ {
		if a.Finished[i] != b.Finished[i] {
			return fmt.Sprintf("Finished[%d]: %+v vs %+v", i, a.Finished[i], b.Finished[i])
		}
	}
	a.Finished, b.Finished = nil, nil
	return fmt.Sprintf("%+v\nvs\n%+v", a, b)
}
