package main

// paper-all: every experiment (llmbench.RunExperiments over all ids,
// serially) plus the 25-anchor verification, in a fresh child process
// per iteration, because the engine cache and the experiment result
// cache are process-global and a `llmbench all` user pays them cold.
// The parent starts one child at a time and waits for it; the child
// prints "ready" as soon as it runs, then one JSON report line.

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"llmbench"
	"llmbench/internal/engine"
	"llmbench/internal/experiments"
	"llmbench/internal/perplexity"
)

// paperAnchors is the number of paper anchors VerifyAnchors checks.
const paperAnchors = 25

// childTimeout bounds one child process.
const childTimeout = 150 * time.Second

// childReport is what a child process prints.
type childReport struct {
	WallS      float64            `json:"wall_s"`
	AllocBytes uint64             `json:"alloc_bytes"`
	GCCycles   uint32             `json:"gc_cycles"`
	GCPauseS   float64            `json:"gc_pause_s"`
	Outcome    outcome            `json:"outcome"`
	Layers     map[string]float64 `json:"layers,omitempty"`
}

func experimentIDs() []string {
	var ids []string
	for _, e := range llmbench.Experiments() {
		ids = append(ids, e.ID)
	}
	return ids
}

// paperOutcome digests every experiment's output and lists the anchors.
func paperOutcome(ids []string, res []llmbench.ExperimentResult, runErr error, anchors []llmbench.Anchor, anchorErr error) outcome {
	o := outcome{Ops: len(ids) + paperAnchors}
	h := sha256.New()
	for i, r := range res {
		if r.ID != ids[i] {
			o.Failed++
			continue
		}
		fmt.Fprintf(h, "%s\x00%s\x00%s\x00", r.ID, r.Markdown, r.CSV)
	}
	o.Failed += len(ids) - len(res)
	if runErr != nil {
		o.Problems = append(o.Problems, runErr.Error())
	}
	o.Exact = append(o.Exact, fmt.Sprintf("experiments n=%d sha256=%x", len(ids), h.Sum(nil)))
	if anchorErr != nil {
		o.Problems = append(o.Problems, anchorErr.Error())
	}
	if len(anchors) != paperAnchors {
		o.Problems = append(o.Problems, fmt.Sprintf("%d anchors, want %d", len(anchors), paperAnchors))
	}
	held := 0
	for _, a := range anchors {
		if a.Holds {
			held++
		}
		o.Exact = append(o.Exact, fmt.Sprintf("anchor %s %q paper=%s measured=%s holds=%t", a.Figure, a.Claim, a.Paper, a.Measured, a.Holds))
	}
	o.Failed += paperAnchors - held
	if held != len(anchors) {
		o.Problems = append(o.Problems, fmt.Sprintf("%d of %d anchors outside their band", len(anchors)-held, len(anchors)))
	}
	return o
}

// runChild is the child process: mode "run" is one untraced
// iteration, "trace" one traced iteration.
func runChild(mode, cpuprofile string) int {
	fmt.Println("ready")
	var rep childReport
	var err error
	switch mode {
	case "run":
		rep, err = paperRun(cpuprofile)
	case "trace":
		rep, err = paperTrace()
	default:
		err = fmt.Errorf("unknown child mode %q", mode)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 2
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 2
	}
	fmt.Println(string(line))
	return 0
}

func paperRun(cpuprofile string) (childReport, error) {
	ids := experimentIDs()
	prof, err := startProfile(cpuprofile)
	if err != nil {
		return childReport{}, err
	}
	var res []llmbench.ExperimentResult
	var anchors []llmbench.Anchor
	var runErr, anchorErr error
	c := timeCall(func() error {
		res, runErr = llmbench.RunExperiments(ids, 1)
		anchors, anchorErr = llmbench.VerifyAnchorsParallel(1)
		return nil
	})
	if err := prof.stop(); err != nil {
		return childReport{}, err
	}
	return childReport{
		WallS: c.wall, AllocBytes: c.allocBytes, GCCycles: c.gcCycles, GCPauseS: c.gcPauseS,
		Outcome: paperOutcome(ids, res, runErr, anchors, anchorErr),
	}, nil
}

// paperTrace runs the same work one experiment at a time, timing each
// call, then the anchors, then the layers paper-all rests on:
// perplexity over the scatter models and private engine builds over
// the whole catalog.
func paperTrace() (childReport, error) {
	ids := experimentIDs()
	var res []llmbench.ExperimentResult
	var anchors []llmbench.Anchor
	var runErr, anchorErr error
	var runS float64
	c := timeCall(func() error {
		for _, id := range ids {
			t0 := time.Now()
			r, err := llmbench.RunExperiment(id)
			runS += time.Since(t0).Seconds()
			if err != nil {
				runErr = err
				break
			}
			res = append(res, *r)
		}
		anchors, anchorErr = llmbench.VerifyAnchorsParallel(1)
		return nil
	})
	lookups, misses := experiments.ResultCacheCounts()
	layers := map[string]float64{
		"experiments.run_s":          runS,
		"experiments.cache_hit_frac": float64(lookups-misses) / float64(lookups),
		"engine.engines_built":       float64(engine.CachedCount()),
		"runtime.gc_cycles":          float64(c.gcCycles),
		"runtime.gc_pause_s":         c.gcPauseS,
	}

	t0 := time.Now()
	for _, m := range perplexity.ScatterModels() {
		if _, err := llmbench.Perplexity(m); err != nil {
			return childReport{}, err
		}
	}
	layers["perplexity.eval_s"] = time.Since(t0).Seconds()

	// Unsupported combinations fail fast in validation; they are part
	// of the catalog walk a full reproduction performs.
	t0 = time.Now()
	for _, m := range llmbench.Models() {
		for _, d := range llmbench.Devices() {
			for _, f := range llmbench.Frameworks() {
				_, _ = llmbench.NewEngine(llmbench.System{Model: m, Device: d, Framework: f})
			}
		}
	}
	layers["engine.build_s"] = time.Since(t0).Seconds()

	return childReport{
		WallS: c.wall, AllocBytes: c.allocBytes, GCCycles: c.gcCycles, GCPauseS: c.gcPauseS,
		Outcome: paperOutcome(ids, res, runErr, anchors, anchorErr),
		Layers:  layers,
	}, nil
}

// spawnChild runs one child to completion and returns its report, the
// host seconds from starting it to its "ready" line, and its peak
// resident memory in KiB.
func spawnChild(mode, cpuprofile string) (childReport, float64, int64, error) {
	exe, err := os.Executable()
	if err != nil {
		return childReport{}, 0, 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	args := []string{"--child", mode}
	if cpuprofile != "" {
		args = append(args, "--cpuprofile", cpuprofile)
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return childReport{}, 0, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return childReport{}, 0, 0, err
	}
	br := bufio.NewReader(stdout)
	first, readErr := br.ReadString('\n')
	readyS := time.Since(t0).Seconds()
	rest, err := io.ReadAll(br)
	if readErr == nil {
		readErr = err
	}
	if err := cmd.Wait(); err != nil {
		return childReport{}, 0, 0, fmt.Errorf("paper-all child: %w", err)
	}
	if readErr != nil || first != "ready\n" {
		return childReport{}, 0, 0, fmt.Errorf("paper-all child: no ready line (%v)", readErr)
	}
	lines := strings.Split(strings.TrimSpace(string(rest)), "\n")
	var rep childReport
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return childReport{}, 0, 0, fmt.Errorf("paper-all child report: %w", err)
	}
	var rss int64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = int64(ru.Maxrss)
	}
	return rep, readyS, rss, nil
}

func runPaperAll(rep *report, w *bench, seconds float64, cpuprofile string, exp map[string]expected) error {
	var setups, walls, allocs []float64
	var rssKiB int64
	var first outcome
	start := time.Now()
	for len(walls) == 0 || time.Since(start).Seconds() < seconds {
		prof := ""
		if len(walls) == 0 {
			prof = cpuprofile
		}
		c, readyS, rss, err := spawnChild("run", prof)
		if err != nil {
			return err
		}
		setups = append(setups, readyS)
		walls = append(walls, c.WallS)
		allocs = append(allocs, float64(c.AllocBytes)/mib)
		rssKiB = max(rssKiB, rss)
		rep.ops(c.Outcome.Ops, c.Outcome.Failed)
		if len(walls) == 1 {
			first = c.Outcome
			checkOutcome(rep, w, 0, c.Outcome, exp)
		} else {
			rep.check("determinism", sameOutcome(first, c.Outcome))
		}
	}
	rep.values["wall_s"] = median(walls)
	rep.values["setup_s"] = median(setups)
	rep.values["alloc_mib"] = median(allocs)
	fmt.Fprintf(os.Stderr, "perfbench: paper-all: %d child processes, timed calls (s): %.4f; peak child RSS %.1f MiB\n",
		len(walls), walls, float64(rssKiB)/1024)
	return nil
}

func tracedPaperAll(rep *report, w *bench, _ uint64, seconds float64, exp map[string]expected) error {
	var first outcome
	checked := false
	return layerPasses(rep, seconds, func(firstPass bool) (map[string]float64, error) {
		u, _, _, err := spawnChild("run", "")
		if err != nil {
			return nil, err
		}
		t, _, _, err := spawnChild("trace", "")
		if err != nil {
			return nil, err
		}
		for _, o := range []outcome{u.Outcome, t.Outcome} {
			rep.ops(o.Ops, o.Failed)
			if !checked {
				first, checked = o, true
				checkOutcome(rep, w, 0, o, exp)
			} else {
				rep.check("determinism and traced-run fidelity", sameOutcome(first, o))
			}
		}
		if t.Layers == nil {
			return nil, errors.New("paper-all trace child reported no layers")
		}
		v := t.Layers
		v["trace.overhead_frac"] = (t.WallS - u.WallS) / u.WallS
		return v, nil
	})
}

func recordPaperAll(uint64) (expected, error) {
	c, _, _, err := spawnChild("run", "")
	if err != nil {
		return expected{}, err
	}
	if len(c.Outcome.Problems) > 0 {
		return expected{}, fmt.Errorf("paper-all fails its invariants: %v", c.Outcome.Problems)
	}
	return expectationOf(0, c.Outcome), nil
}
