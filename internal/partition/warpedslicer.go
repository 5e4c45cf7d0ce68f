package partition

import (
	"fmt"

	"crisp/internal/gpu"
	"crisp/internal/obs"
	"crisp/internal/sm"
	"crisp/internal/trace"
)

// wsState is the warped-slicer phase.
type wsState uint8

const (
	wsSampling wsState = iota
	wsSteady
)

// WarpedSlicer implements dynamic intra-SM partitioning (Xu et al.): at
// every kernel launch (and every new drawcall batch) the partition is
// reset; during the sampling phase each SM runs only one of the two tasks
// with a different CTA cap, so the per-task IPC-vs-CTA-count curve can be
// read from per-SM progress counters with no cross-task contention. A
// water-filling pass then picks the CTA split that maximizes combined
// normalized throughput, and the machine switches to fine-grained intra-SM
// sharing at that ratio.
//
// The sampling cost is re-paid on every launch, which is why workloads
// composed of many small kernels (VIO) lose to the static EVEN split in
// paper Fig. 12.
type WarpedSlicer struct {
	g   *gpu.GPU
	cfg wsConfig

	state     wsState
	sampleEnd int64

	// latest kernel resource shapes per task (for envelope math).
	kernelNeed  [2]sm.Resources
	haveKernel  [2]bool
	limits      [2]sm.Resources
	sampleCaps  []int
	resampleCnt int
}

type wsConfig struct {
	sampleCycles int64
}

// NewWarpedSlicer builds the policy attached to g.
func NewWarpedSlicer(g *gpu.GPU) *WarpedSlicer {
	full := sm.Full(g.Config())
	w := &WarpedSlicer{
		g:          g,
		cfg:        wsConfig{sampleCycles: 4096},
		state:      wsSampling,
		sampleCaps: []int{1, 2, 4, 6, 8, 12, 16, 24},
		limits:     [2]sm.Resources{sm.Fraction(full, 1, 2), sm.Fraction(full, 1, 2)},
	}
	g.ResetSMCounters()
	return w
}

// Name implements gpu.Policy.
func (w *WarpedSlicer) Name() string { return "WarpedSlicer" }

// DescribeState implements gpu.StateDescriber: the policy's last decision
// for crash dumps — sampling vs steady, the active envelopes, and how many
// repartitions have run.
func (w *WarpedSlicer) DescribeState() string {
	phase := "steady"
	if w.state == wsSampling {
		phase = "sampling"
	}
	return fmt.Sprintf("%s after %d resamples; envelopes task0={threads:%d regs:%d shared:%d ctas:%d} task1={threads:%d regs:%d shared:%d ctas:%d}",
		phase, w.resampleCnt,
		w.limits[0].Threads, w.limits[0].Regs, w.limits[0].Shared, w.limits[0].CTAs,
		w.limits[1].Threads, w.limits[1].Regs, w.limits[1].Shared, w.limits[1].CTAs)
}

// Resamples reports how many sampling phases have run (one per launch).
func (w *WarpedSlicer) Resamples() int { return w.resampleCnt }

// CurrentLimits reports the active per-task envelopes.
func (w *WarpedSlicer) CurrentLimits() [2]sm.Resources { return w.limits }

// taskOfSamplingSM maps SMs alternately to tasks during sampling so both
// curves are measured in parallel with no contention.
func taskOfSamplingSM(smID int) int { return smID % 2 }

// capOfSamplingSM gives each sampling SM its CTA cap point.
func (w *WarpedSlicer) capOfSamplingSM(smID int) int {
	return w.sampleCaps[(smID/2)%len(w.sampleCaps)]
}

// AllowSM implements gpu.Policy.
func (w *WarpedSlicer) AllowSM(smID, task int) bool {
	if w.state == wsSampling {
		return taskOfSamplingSM(smID) == task
	}
	return task >= 0 && task < 2
}

// Limit implements gpu.Policy.
func (w *WarpedSlicer) Limit(smID, task int) (sm.Resources, bool) {
	if task < 0 || task > 1 {
		return sm.Resources{}, false
	}
	if w.state == wsSampling {
		full := sm.Full(w.g.Config())
		full.CTAs = w.capOfSamplingSM(smID)
		return full, true
	}
	return w.limits[task], true
}

// OnLaunch implements gpu.Policy: every kernel launch or new rendering
// batch resets the dynamic partition and re-samples. The envelope shape
// tracks the component-wise maximum CTA footprint seen for the task:
// rendering streams interleave small vertex kernels with large fragment
// kernels, and an envelope sized only for the most recent launch could
// never place the bigger kernel's CTAs.
func (w *WarpedSlicer) OnLaunch(now int64, k *trace.Kernel, task int) {
	if task >= 0 && task < 2 {
		need := sm.Need(k)
		cur := &w.kernelNeed[task]
		if need.Threads > cur.Threads {
			cur.Threads = need.Threads
		}
		if need.Regs > cur.Regs {
			cur.Regs = need.Regs
		}
		if need.Shared > cur.Shared {
			cur.Shared = need.Shared
		}
		if need.CTAs > cur.CTAs {
			cur.CTAs = need.CTAs
		}
		w.haveKernel[task] = true
	}
	w.state = wsSampling
	w.sampleEnd = now + w.cfg.sampleCycles
	w.resampleCnt++
	if t := w.g.Tracer(); t != nil {
		t.Emit(obs.Event{Cycle: now, Kind: obs.EvRepartition, Stream: -1,
			Task: task, SM: -1, CTA: -1, Name: "resample", Arg: int64(w.resampleCnt)})
	}
	w.g.ResetSMCounters()
}

// Tick implements gpu.Policy: when the sampling window closes, read the
// per-SM progress counters, build the two performance curves, and
// water-fill.
func (w *WarpedSlicer) Tick(now int64) {
	if w.state != wsSampling || now < w.sampleEnd {
		return
	}
	cfg := w.g.Config()
	// perf[task][cap] = instructions retired at that CTA cap.
	perf := [2]map[int]float64{make(map[int]float64), make(map[int]float64)}
	counts := [2]map[int]int{make(map[int]int), make(map[int]int)}
	for smID := 0; smID < cfg.NumSMs; smID++ {
		task := taskOfSamplingSM(smID)
		cap := w.capOfSamplingSM(smID)
		perf[task][cap] += float64(w.g.InstsOnSM(smID, task))
		counts[task][cap]++
	}
	for t := 0; t < 2; t++ {
		for cp, n := range counts[t] {
			if n > 0 {
				perf[t][cp] /= float64(n)
			}
		}
	}
	ca, cb := w.waterFill(perf)
	full := sm.Full(cfg)
	w.limits[0] = envelopeFor(w.kernelNeed[0], ca, full)
	w.limits[1] = envelopeFor(w.kernelNeed[1], cb, full)
	w.state = wsSteady
	if t := w.g.Tracer(); t != nil {
		t.Emit(obs.Event{Cycle: now, Kind: obs.EvRepartition, Stream: -1,
			Task: -1, SM: -1, CTA: -1,
			Name: fmt.Sprintf("split %d:%d CTAs", ca, cb), Arg: int64(ca)<<16 | int64(cb)})
	}
	w.g.ResetSMCounters()
}

// envelopeFor sizes a task's intra-SM envelope to hold ctas CTAs of need.
func envelopeFor(need sm.Resources, ctas int, full sm.Resources) sm.Resources {
	if need.Threads == 0 || ctas <= 0 {
		return sm.Fraction(full, 1, 2)
	}
	env := sm.Resources{
		Threads: need.Threads * ctas,
		Regs:    need.Regs * ctas,
		Shared:  need.Shared * ctas,
		CTAs:    ctas,
	}
	// Clamp to the SM.
	if env.Threads > full.Threads {
		env.Threads = full.Threads
	}
	if env.Regs > full.Regs {
		env.Regs = full.Regs
	}
	if env.Shared > full.Shared {
		env.Shared = full.Shared
	}
	if env.CTAs > full.CTAs {
		env.CTAs = full.CTAs
	}
	return env
}

// waterFill scans candidate CTA splits and keeps the one maximizing the
// sum of normalized per-task performance that fits in one SM.
func (w *WarpedSlicer) waterFill(perf [2]map[int]float64) (int, int) {
	full := sm.Full(w.g.Config())
	maxPerf := [2]float64{}
	for t := 0; t < 2; t++ {
		for _, v := range perf[t] {
			if v > maxPerf[t] {
				maxPerf[t] = v
			}
		}
		if maxPerf[t] == 0 {
			maxPerf[t] = 1
		}
	}
	fits := func(ca, cb int) bool {
		a := envelopeFor(w.kernelNeed[0], ca, full)
		b := envelopeFor(w.kernelNeed[1], cb, full)
		return a.Threads+b.Threads <= full.Threads &&
			a.Regs+b.Regs <= full.Regs &&
			a.Shared+b.Shared <= full.Shared &&
			a.CTAs+b.CTAs <= full.CTAs
	}
	bestA, bestB := 1, 1
	bestScore := -1.0
	for _, ca := range w.sampleCaps {
		pa, okA := perf[0][ca]
		if !okA {
			continue
		}
		for _, cb := range w.sampleCaps {
			pb, okB := perf[1][cb]
			if !okB || !fits(ca, cb) {
				continue
			}
			score := pa/maxPerf[0] + pb/maxPerf[1]
			if score > bestScore {
				bestScore, bestA, bestB = score, ca, cb
			}
		}
	}
	return bestA, bestB
}

var _ gpu.Policy = (*WarpedSlicer)(nil)
var _ gpu.StateSnapshotter = (*WarpedSlicer)(nil)
