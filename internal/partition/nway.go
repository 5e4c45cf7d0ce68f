package partition

import (
	"encoding/json"
	"fmt"
	"sort"

	"crisp/internal/gpu"
	"crisp/internal/mem"
	"crisp/internal/obs"
	"crisp/internal/sm"
	"crisp/internal/snapshot"
	"crisp/internal/trace"
)

// This file holds the remaining mechanisms for n tasks, on top of the
// SMGroups/FGN primitives in ntask.go:
//
//   - MiGN:          SM groups plus an n-way L2 bank (and thus DRAM
//     channel) split.
//   - PriorityEvenN: FGN with lower task ids claiming freed resources
//     first (the default when tenants declare no explicit priorities).
//   - TAPN:          SM groups plus utility-monitor-driven n-way L2 set
//     partitioning with the TLP-aware insensitivity clamp.
//   - WarpedSlicerN: n-way sampling of the IPC-vs-CTA-count curves and a
//     greedy water-fill over the per-task CTA caps (beyond two tasks;
//     the paper's two-task WarpedSlicer is in warpedslicer.go).
//
// Every decision procedure iterates tasks in ascending id with explicit
// tie-breaks (lowest task wins), so the policies are deterministic under
// any host parallelism.

// MiGN is n-way MiG: contiguous SM groups per task plus a contiguous L2
// bank range per task, which also confines each task to the matching DRAM
// channels.
type MiGN struct {
	SMGroups
}

// NewMiGN builds n-way MiG for g. It needs at least one L2 bank per task.
func NewMiGN(g *gpu.GPU, taskOf func(stream int) int, tasks int) (*MiGN, error) {
	cfg := g.Config()
	if tasks < 1 || tasks > cfg.L2Banks {
		return nil, fmt.Errorf("partition: cannot split %d L2 banks into %d MiG slices", cfg.L2Banks, tasks)
	}
	groups, err := NewSMGroups(cfg.NumSMs, tasks)
	if err != nil {
		return nil, err
	}
	p := &MiGN{SMGroups: *groups}
	banks := make(map[int][]int, tasks)
	for b := 0; b < cfg.L2Banks; b++ {
		t := b * tasks / cfg.L2Banks
		banks[t] = append(banks[t], b)
	}
	g.Mem().SetMapper(&mem.BankMapper{TaskOf: taskOf, Banks: banks})
	return p, nil
}

// Name implements gpu.Policy.
func (p *MiGN) Name() string { return policyName("MiG", p.tasks) }

// PriorityEvenN is QoS-aware intra-SM sharing: every task runs on every SM
// within a 1/n envelope, and pending CTAs of lower-numbered tasks (in a
// pair, rendering) claim freed resources first. Tenant-declared priorities
// (gpu.SetTaskPriorities) override this default ordering.
type PriorityEvenN struct {
	FGN
}

// NewPriorityEvenN builds the n-way QoS policy for g.
func NewPriorityEvenN(g *gpu.GPU, tasks int) (*PriorityEvenN, error) {
	f, err := NewFGN(g, tasks)
	if err != nil {
		return nil, err
	}
	return &PriorityEvenN{FGN: *f}, nil
}

// Name implements gpu.Policy.
func (p *PriorityEvenN) Name() string { return policyName("PriorityEven", p.tasks) }

// Priority implements gpu.Prioritizer: lower task ids first.
func (p *PriorityEvenN) Priority(task int) int { return -task }

// TAPN is TAP (Lee & Kim) for n tasks: contiguous SM groups, one utility
// monitor per task, and an n-region L2 set split re-decided at long epochs
// by marginal utility with the TLP-aware clamp (tasks whose access stream
// shows no reuse are squeezed to the minimum so cache-sensitive tasks keep
// the capacity).
type TAPN struct {
	SMGroups
	g      *gpu.GPU
	taskOf func(stream int) int
	mapper *mem.SetMapper
	umons  []*mem.UMON

	setsPerBank int
	minSets     int
	epochs      int
}

// NewTAPN builds n-way TAP for g.
func NewTAPN(g *gpu.GPU, taskOf func(stream int) int, tasks int) (*TAPN, error) {
	cfg := g.Config()
	groups, err := NewSMGroups(cfg.NumSMs, tasks)
	if err != nil {
		return nil, err
	}
	t := &TAPN{
		SMGroups:    *groups,
		g:           g,
		taskOf:      taskOf,
		setsPerBank: g.Mem().SetsPerBank(),
		minSets:     1,
	}
	if t.setsPerBank < tasks*t.minSets {
		return nil, fmt.Errorf("partition: cannot split %d L2 sets into %d TAP regions", t.setsPerBank, tasks)
	}
	t.mapper = &mem.SetMapper{TaskOf: taskOf, Regions: regionsFor(evenSets(t.setsPerBank, tasks))}
	t.umons = make([]*mem.UMON, tasks)
	for i := range t.umons {
		t.umons[i] = mem.NewUMON(cfg.L2Assoc, 4)
	}
	g.Mem().SetMapper(t.mapper)
	g.Mem().SetObserver(t)
	return t, nil
}

// Name implements gpu.Policy.
func (t *TAPN) Name() string { return policyName("TAP", t.tasks) }

// Regions reports the current set split.
func (t *TAPN) Regions() map[int]mem.SetRegion { return t.mapper.Regions }

// ObserveL2 implements mem.Observer.
func (t *TAPN) ObserveL2(stream int, lineAddr uint64, hit bool) {
	task := t.taskOf(stream)
	if task >= 0 && task < t.tasks {
		t.umons[task].Observe(lineAddr)
	}
}

// evenSets splits total sets evenly over n tasks; the remainder goes to
// the lowest task ids so the split is a pure function of (total, n).
func evenSets(total, n int) []int {
	sets := make([]int, n)
	base, rem := total/n, total%n
	for i := range sets {
		sets[i] = base
		if i < rem {
			sets[i]++
		}
	}
	return sets
}

// regionsFor lays the per-task set counts out contiguously in task order.
func regionsFor(sets []int) map[int]mem.SetRegion {
	regions := make(map[int]mem.SetRegion, len(sets))
	start := 0
	for t, n := range sets {
		regions[t] = mem.SetRegion{Start: start, Count: n}
		start += n
	}
	return regions
}

// Tick implements gpu.Policy: decide once after the warmup window, then
// re-evaluate only at long intervals (a set remap is an effective flush).
func (t *TAPN) Tick(now int64) {
	t.epochs++
	if t.epochs > 1 && t.epochs < 32 {
		return
	}
	if t.epochs >= 32 {
		t.epochs = 1
	}
	var total int64
	for _, u := range t.umons {
		total += u.Accesses
	}
	if total < 1024 {
		return
	}
	assoc := len(t.umons[0].WayHits)

	// TLP-aware classification: "active" means a non-negligible share of
	// the L2 access stream, "sensitive" means the shadow tags show real
	// reuse.
	active := make([]bool, t.tasks)
	sensitive := make([]bool, t.tasks)
	activeCount, sensCount := 0, 0
	for i, u := range t.umons {
		active[i] = u.Accesses*50 >= total
		if active[i] {
			activeCount++
			sensitive[i] = u.Utility(assoc) > u.Accesses/16
			if sensitive[i] {
				sensCount++
			}
		}
	}
	if activeCount == 0 {
		return
	}

	// Inactive tasks hold the minimum; actives share the remainder.
	sets := make([]int, t.tasks)
	avail := t.setsPerBank
	for i := range sets {
		if !active[i] {
			sets[i] = t.minSets
			avail -= t.minSets
		}
	}
	if avail < activeCount*t.minSets {
		sets = evenSets(t.setsPerBank, t.tasks)
	} else if sensCount >= 2 {
		t.sensitiveSplit(sets, active, avail, activeCount, assoc)
	} else {
		// At most one task shows capacity sensitivity: these mixes are
		// bandwidth-bound, so match shared-LRU behavior with an even
		// split over the active tasks (the paper's two-task finding).
		share := evenSets(avail, activeCount)
		j := 0
		for i := range sets {
			if active[i] {
				sets[i] = share[j]
				j++
			}
		}
	}

	// Hysteresis: ignore small deltas — a remap is never worth a few sets.
	maxDelta := 0
	for i, n := range sets {
		d := n - t.mapper.Regions[i].Count
		if d < 0 {
			d = -d
		}
		if d > maxDelta {
			maxDelta = d
		}
	}
	if maxDelta >= 8 {
		t.mapper.Regions = regionsFor(sets)
	}
	for _, u := range t.umons {
		u.Reset()
	}
}

// sensitiveSplit fills sets for the ≥2-sensitive case: assoc ways are
// granted greedily by access-rate-normalized marginal utility across the
// active tasks (TAP's hit-rate comparison, not raw hit counts). Two tasks
// then follow the paper's rule: task 0 gets its share of the ways, in
// 1/256 steps, clamped to [1/4, 3/4] of the bank. Beyond two, the
// available sets are split proportionally to (ways+1) with a per-active
// floor of half an even share.
func (t *TAPN) sensitiveSplit(sets []int, active []bool, avail, activeCount, assoc int) {
	ways := make([]int, t.tasks)
	for w := 0; w < assoc; w++ {
		best, bestScore := -1, -1.0
		for i, u := range t.umons {
			if !active[i] {
				continue
			}
			mu := float64(u.MarginalUtility(ways[i]+1)) / float64(max(u.Accesses, 1))
			if mu > bestScore {
				bestScore, best = mu, i
			}
		}
		ways[best]++
	}
	if t.tasks == 2 {
		quarter := t.setsPerBank / 4
		sets[0] = t.setsPerBank * (ways[0] * 256 / assoc) / 256
		sets[0] = min(max(sets[0], quarter), t.setsPerBank-quarter)
		sets[0] = min(max(sets[0], t.minSets), t.setsPerBank-t.minSets)
		sets[1] = t.setsPerBank - sets[0]
		return
	}
	weightSum := 0
	for i := range ways {
		if active[i] {
			weightSum += ways[i] + 1
		}
	}
	assigned := 0
	for i := range sets {
		if active[i] {
			sets[i] = avail * (ways[i] + 1) / weightSum
			assigned += sets[i]
		}
	}
	// Leftover from integer division goes to the most-weighted active
	// (ties: lowest task).
	if rem := avail - assigned; rem > 0 {
		best := -1
		for i := range ways {
			if active[i] && (best < 0 || ways[i] > ways[best]) {
				best = i
			}
		}
		sets[best] += rem
	}
	// Per-active floor: raise the squeezed, take from the largest.
	floor := avail / (2 * activeCount)
	if floor < t.minSets {
		floor = t.minSets
	}
	for i := range sets {
		if !active[i] {
			continue
		}
		for sets[i] < floor {
			donor := -1
			for j := range sets {
				if active[j] && sets[j] > floor && (donor < 0 || sets[j] > sets[donor]) {
					donor = j
				}
			}
			if donor < 0 {
				break
			}
			give := sets[donor] - floor
			if need := floor - sets[i]; give > need {
				give = need
			}
			sets[donor] -= give
			sets[i] += give
		}
	}
}

// tapRegion is one task's set region, keyed for sorting.
type tapRegion struct {
	Task  int
	Start int
	Count int
}

// tapNBlob is TAPN's serialized dynamic state.
type tapNBlob struct {
	Epochs  int
	Regions []tapRegion // sorted by task
	UMons   []snapshot.UMONState
}

// CaptureState implements gpu.StateSnapshotter.
func (t *TAPN) CaptureState() ([]byte, error) {
	b := tapNBlob{Epochs: t.epochs}
	for task, r := range t.mapper.Regions {
		b.Regions = append(b.Regions, tapRegion{Task: task, Start: r.Start, Count: r.Count})
	}
	sort.Slice(b.Regions, func(i, j int) bool { return b.Regions[i].Task < b.Regions[j].Task })
	for _, u := range t.umons {
		b.UMons = append(b.UMons, u.CaptureState())
	}
	return json.Marshal(b)
}

// RestoreState implements gpu.StateSnapshotter.
func (t *TAPN) RestoreState(blob []byte) error {
	var b tapNBlob
	if err := json.Unmarshal(blob, &b); err != nil {
		return policyErr("TAP state blob: %v", err)
	}
	if len(b.Regions) != t.tasks || len(b.UMons) != t.tasks {
		return policyErr("TAP state blob: %d regions / %d umons for %d tasks", len(b.Regions), len(b.UMons), t.tasks)
	}
	regions := make(map[int]mem.SetRegion, len(b.Regions))
	for _, r := range b.Regions {
		if r.Start < 0 || r.Count < 0 || r.Start+r.Count > t.setsPerBank {
			return policyErr("TAP state blob: region task=%d [%d,+%d) outside bank of %d sets", r.Task, r.Start, r.Count, t.setsPerBank)
		}
		regions[r.Task] = mem.SetRegion{Start: r.Start, Count: r.Count}
	}
	if len(regions) != t.tasks {
		return policyErr("TAP state blob: expected %d set regions, got %d", t.tasks, len(regions))
	}
	t.epochs = b.Epochs
	t.mapper.Regions = regions
	for i := range t.umons {
		if err := t.umons[i].RestoreState(b.UMons[i]); err != nil {
			return err
		}
	}
	return nil
}

// WarpedSlicerN is the n-way warped slicer: during sampling, SM smID runs
// only task smID%n at CTA cap sampleCaps[(smID/n)%len(sampleCaps)], so all
// n IPC-vs-CTA-count curves are measured in parallel with no cross-task
// contention; the steady split is then chosen by a greedy water-fill that
// repeatedly raises the cap with the best normalized marginal gain while
// the combined envelopes still fit in one SM.
type WarpedSlicerN struct {
	g     *gpu.GPU
	tasks int
	cfg   wsConfig

	state     wsState
	sampleEnd int64

	kernelNeed  []sm.Resources
	haveKernel  []bool
	limits      []sm.Resources
	sampleCaps  []int
	resampleCnt int
}

// NewWarpedSlicerN builds the n-way policy attached to g.
func NewWarpedSlicerN(g *gpu.GPU, tasks int) (*WarpedSlicerN, error) {
	if tasks < 1 {
		return nil, fmt.Errorf("partition: WarpedSlicerN needs at least one task")
	}
	full := sm.Full(g.Config())
	w := &WarpedSlicerN{
		g:          g,
		tasks:      tasks,
		cfg:        wsConfig{sampleCycles: 4096},
		state:      wsSampling,
		sampleCaps: []int{1, 2, 4, 6, 8, 12, 16, 24},
		kernelNeed: make([]sm.Resources, tasks),
		haveKernel: make([]bool, tasks),
		limits:     make([]sm.Resources, tasks),
	}
	for i := range w.limits {
		w.limits[i] = sm.Fraction(full, 1, tasks)
	}
	g.ResetSMCounters()
	return w, nil
}

// Name implements gpu.Policy.
func (w *WarpedSlicerN) Name() string { return fmt.Sprintf("WarpedSlicerx%d", w.tasks) }

// Resamples reports how many sampling phases have run.
func (w *WarpedSlicerN) Resamples() int { return w.resampleCnt }

// capOfSamplingSMN gives each sampling SM its CTA cap point.
func (w *WarpedSlicerN) capOfSamplingSMN(smID int) int {
	return w.sampleCaps[(smID/w.tasks)%len(w.sampleCaps)]
}

// AllowSM implements gpu.Policy.
func (w *WarpedSlicerN) AllowSM(smID, task int) bool {
	if task < 0 || task >= w.tasks {
		return false
	}
	if w.state == wsSampling {
		return smID%w.tasks == task
	}
	return true
}

// Limit implements gpu.Policy.
func (w *WarpedSlicerN) Limit(smID, task int) (sm.Resources, bool) {
	if task < 0 || task >= w.tasks {
		return sm.Resources{}, false
	}
	if w.state == wsSampling {
		full := sm.Full(w.g.Config())
		full.CTAs = w.capOfSamplingSMN(smID)
		return full, true
	}
	return w.limits[task], true
}

// OnLaunch implements gpu.Policy: every launch resets the partition and
// re-samples, tracking the component-wise maximum CTA footprint per task
// (as WarpedSlicer does).
func (w *WarpedSlicerN) OnLaunch(now int64, k *trace.Kernel, task int) {
	if task >= 0 && task < w.tasks {
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

// envelopeForN sizes a task's intra-SM envelope to hold ctas CTAs of need.
func envelopeForN(need sm.Resources, ctas int, full sm.Resources, tasks int) sm.Resources {
	if need.Threads == 0 || ctas <= 0 {
		return sm.Fraction(full, 1, tasks)
	}
	return envelopeFor(need, ctas, full)
}

// Tick implements gpu.Policy: when the sampling window closes, read the
// curves and water-fill.
func (w *WarpedSlicerN) Tick(now int64) {
	if w.state != wsSampling || now < w.sampleEnd {
		return
	}
	cfg := w.g.Config()
	// perf[task][capIdx] = mean instructions retired at that CTA cap
	// (indices into sampleCaps; -1 count = cap never sampled).
	perf := make([][]float64, w.tasks)
	counts := make([][]int, w.tasks)
	for t := range perf {
		perf[t] = make([]float64, len(w.sampleCaps))
		counts[t] = make([]int, len(w.sampleCaps))
	}
	for smID := 0; smID < cfg.NumSMs; smID++ {
		task := smID % w.tasks
		ci := (smID / w.tasks) % len(w.sampleCaps)
		perf[task][ci] += float64(w.g.InstsOnSM(smID, task))
		counts[task][ci]++
	}
	for t := range perf {
		for ci, n := range counts[t] {
			if n > 0 {
				perf[t][ci] /= float64(n)
			}
		}
	}
	caps := w.waterFillN(perf, counts)
	full := sm.Full(cfg)
	for t := range w.limits {
		w.limits[t] = envelopeForN(w.kernelNeed[t], caps[t], full, w.tasks)
	}
	w.state = wsSteady
	if tr := w.g.Tracer(); tr != nil {
		tr.Emit(obs.Event{Cycle: now, Kind: obs.EvRepartition, Stream: -1,
			Task: -1, SM: -1, CTA: -1,
			Name: fmt.Sprintf("split %v CTAs", caps), Arg: int64(w.resampleCnt)})
	}
	w.g.ResetSMCounters()
}

// waterFillN picks per-task CTA caps greedily: start every task at its
// smallest sampled cap, then repeatedly raise the task whose next cap
// yields the best normalized throughput gain while the combined envelopes
// still fit in one SM (ties: lowest task id). If even the floor does not
// fit, every task falls back to the 1/n static split.
func (w *WarpedSlicerN) waterFillN(perf [][]float64, counts [][]int) []int {
	full := sm.Full(w.g.Config())
	// Per-task list of sampled cap indices (ascending) and the curve max.
	sampled := make([][]int, w.tasks)
	maxPerf := make([]float64, w.tasks)
	for t := range perf {
		for ci, n := range counts[t] {
			if n == 0 {
				continue
			}
			sampled[t] = append(sampled[t], ci)
			if perf[t][ci] > maxPerf[t] {
				maxPerf[t] = perf[t][ci]
			}
		}
		if maxPerf[t] == 0 {
			maxPerf[t] = 1
		}
	}
	caps := make([]int, w.tasks)
	idx := make([]int, w.tasks)
	for t := range caps {
		if len(sampled[t]) == 0 {
			// No SM sampled this task (more tasks than SMs per cap
			// point): hold the smallest cap.
			caps[t] = w.sampleCaps[0]
			idx[t] = -1
			continue
		}
		caps[t] = w.sampleCaps[sampled[t][0]]
	}
	fits := func(caps []int) bool {
		var sum sm.Resources
		for t, c := range caps {
			e := envelopeForN(w.kernelNeed[t], c, full, w.tasks)
			sum.Threads += e.Threads
			sum.Regs += e.Regs
			sum.Shared += e.Shared
			sum.CTAs += e.CTAs
		}
		return sum.Threads <= full.Threads && sum.Regs <= full.Regs &&
			sum.Shared <= full.Shared && sum.CTAs <= full.CTAs
	}
	if !fits(caps) {
		for t := range caps {
			caps[t] = 0 // envelopeForN maps 0 to the 1/n fallback
		}
		return caps
	}
	for {
		best, bestGain := -1, 0.0
		for t := range caps {
			if idx[t] < 0 || idx[t]+1 >= len(sampled[t]) {
				continue
			}
			cur, next := sampled[t][idx[t]], sampled[t][idx[t]+1]
			gain := (perf[t][next] - perf[t][cur]) / maxPerf[t]
			if gain <= bestGain {
				continue
			}
			trial := make([]int, len(caps))
			copy(trial, caps)
			trial[t] = w.sampleCaps[next]
			if fits(trial) {
				best, bestGain = t, gain
			}
		}
		if best < 0 {
			return caps
		}
		idx[best]++
		caps[best] = w.sampleCaps[sampled[best][idx[best]]]
	}
}

// wsNBlob is WarpedSlicerN's serialized dynamic state.
type wsNBlob struct {
	State       uint8
	SampleEnd   int64
	KernelNeed  []sm.Resources
	HaveKernel  []bool
	Limits      []sm.Resources
	ResampleCnt int
}

// CaptureState implements gpu.StateSnapshotter.
func (w *WarpedSlicerN) CaptureState() ([]byte, error) {
	return json.Marshal(wsNBlob{
		State:       uint8(w.state),
		SampleEnd:   w.sampleEnd,
		KernelNeed:  w.kernelNeed,
		HaveKernel:  w.haveKernel,
		Limits:      w.limits,
		ResampleCnt: w.resampleCnt,
	})
}

// RestoreState implements gpu.StateSnapshotter.
func (w *WarpedSlicerN) RestoreState(blob []byte) error {
	var b wsNBlob
	if err := json.Unmarshal(blob, &b); err != nil {
		return policyErr("WarpedSlicerN state blob: %v", err)
	}
	if b.State > uint8(wsSteady) {
		return policyErr("WarpedSlicerN state blob: unknown phase %d", b.State)
	}
	if len(b.KernelNeed) != w.tasks || len(b.HaveKernel) != w.tasks || len(b.Limits) != w.tasks {
		return policyErr("WarpedSlicerN state blob: sized for %d tasks, policy runs %d", len(b.Limits), w.tasks)
	}
	w.state = wsState(b.State)
	w.sampleEnd = b.SampleEnd
	w.kernelNeed = b.KernelNeed
	w.haveKernel = b.HaveKernel
	w.limits = b.Limits
	w.resampleCnt = b.ResampleCnt
	return nil
}

var _ gpu.Policy = (*MiGN)(nil)
var _ gpu.Policy = (*PriorityEvenN)(nil)
var _ gpu.Prioritizer = (*PriorityEvenN)(nil)
var _ gpu.Policy = (*TAPN)(nil)
var _ mem.Observer = (*TAPN)(nil)
var _ gpu.StateSnapshotter = (*TAPN)(nil)
var _ gpu.Policy = (*WarpedSlicerN)(nil)
var _ gpu.StateSnapshotter = (*WarpedSlicerN)(nil)
