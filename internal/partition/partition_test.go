package partition

import (
	"testing"

	"crisp/internal/config"
	"crisp/internal/gpu"
	"crisp/internal/isa"
	"crisp/internal/sm"
	"crisp/internal/trace"
)

func newGPU(t *testing.T, cfg config.GPU) *gpu.GPU {
	t.Helper()
	g, err := gpu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func taskOfEvenOdd(stream int) int { return stream % 2 }

func TestMPSSplitsSMsEvenly(t *testing.T) {
	p, err := NewSMGroups(14, 2)
	if err != nil {
		t.Fatal(err)
	}
	c0, c1 := 0, 0
	for s := 0; s < 14; s++ {
		if p.AllowSM(s, 0) {
			c0++
		}
		if p.AllowSM(s, 1) {
			c1++
		}
		if p.AllowSM(s, 0) == p.AllowSM(s, 1) {
			t.Errorf("SM %d assigned to both or neither task", s)
		}
	}
	if c0 != 7 || c1 != 7 {
		t.Errorf("split = %d/%d", c0, c1)
	}
	if _, ok := p.Limit(0, 0); ok {
		t.Error("MPS should impose no intra-SM limits")
	}
}

func TestFGEvenLimits(t *testing.T) {
	g := newGPU(t, config.JetsonOrin())
	p, err := NewFGN(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	full := sm.Full(g.Config())
	for task := 0; task < 2; task++ {
		if !p.AllowSM(3, task) {
			t.Errorf("FG should allow task %d on every SM", task)
		}
		lim, ok := p.Limit(0, task)
		if !ok {
			t.Fatal("FG without limits")
		}
		if lim.Threads != full.Threads/2 || lim.Regs != full.Regs/2 {
			t.Errorf("task %d limit = %+v", task, lim)
		}
	}
	if p.AllowSM(0, 2) {
		t.Error("task 2 allowed")
	}
}

func TestMiGInstallsBankMapper(t *testing.T) {
	g := newGPU(t, config.RTX3070())
	if _, err := NewMiGN(g, taskOfEvenOdd, 2); err != nil {
		t.Fatal(err)
	}
	cfg := g.Config()
	line := uint64(cfg.LineSize)
	// Drive traffic from both tasks; composition must land in disjoint
	// banks. We can't see banks directly, but a full sweep by task 0
	// must not evict task 1's lines (different banks).
	g.Mem().Load(0, 0, 1, trace.ClassCompute, 99999*line)
	for i := 0; i < 200000; i++ {
		g.Mem().Load(int64(i+1), 0, 0, trace.ClassCompute, uint64(i)*line)
	}
	comp := g.Mem().L2Composition()
	if comp.ByStream[1] != 1 {
		t.Errorf("MiG bank isolation broken: %v", comp.ByStream)
	}
}

// kernelWith builds a uniform ALU kernel with given CTA shape.
func kernelWith(stream, ctas, warps, regsPerThread, sharedMem int) *trace.Kernel {
	b := trace.NewBuilder("k", trace.KindCompute, stream, warps*32, regsPerThread, sharedMem)
	for c := 0; c < ctas; c++ {
		b.BeginCTA()
		for w := 0; w < warps; w++ {
			b.BeginWarp()
			r := b.NewReg()
			b.ALU(isa.OpMOV, r, trace.FullMask)
			for i := 0; i < 60; i++ {
				nr := b.NewReg()
				b.ALU(isa.OpFADD, nr, trace.FullMask, r, r)
				r = nr
			}
		}
	}
	return b.Finish()
}

func TestWarpedSlicerLifecycle(t *testing.T) {
	g := newGPU(t, config.JetsonOrin())
	ws := NewWarpedSlicer(g)
	kA := kernelWith(0, 20, 4, 32, 0)
	kB := kernelWith(1, 20, 8, 64, 4096)

	ws.OnLaunch(0, kA, 0)
	ws.OnLaunch(0, kB, 1)
	if ws.Resamples() != 2 {
		t.Errorf("resamples = %d", ws.Resamples())
	}
	// During sampling: SM parity split, CTA caps vary per SM.
	if ws.AllowSM(0, 1) || !ws.AllowSM(0, 0) {
		t.Error("sampling SM assignment wrong (SM 0 should be task 0)")
	}
	if !ws.AllowSM(1, 1) || ws.AllowSM(1, 0) {
		t.Error("sampling SM assignment wrong (SM 1 should be task 1)")
	}
	lim0, ok := ws.Limit(0, 0)
	if !ok || lim0.CTAs != 1 {
		t.Errorf("SM 0 sampling cap = %+v", lim0)
	}
	lim2, _ := ws.Limit(2, 0)
	if lim2.CTAs != 2 {
		t.Errorf("SM 2 sampling cap = %d, want 2", lim2.CTAs)
	}

	// Simulate progress counters and close the window.
	ws.Tick(100000)
	if !ws.AllowSM(0, 1) || !ws.AllowSM(1, 0) {
		t.Error("steady state should allow both tasks everywhere")
	}
	limits := ws.CurrentLimits()
	full := sm.Full(g.Config())
	if limits[0].Threads+limits[1].Threads > full.Threads {
		t.Errorf("steady limits overflow SM threads: %+v", limits)
	}
	if limits[0].Regs+limits[1].Regs > full.Regs {
		t.Errorf("steady limits overflow SM registers: %+v", limits)
	}
	if limits[0].CTAs < 1 || limits[1].CTAs < 1 {
		t.Errorf("steady limits starve a task: %+v", limits)
	}
}

func TestWarpedSlicerEnvelopeRespectsKernelShape(t *testing.T) {
	full := sm.Resources{Threads: 2048, Regs: 65536, Shared: 65536, CTAs: 32}
	need := sm.Resources{Threads: 256, Regs: 256 * 64, Shared: 8192, CTAs: 1}
	env := envelopeFor(need, 4, full)
	if env.Threads != 1024 || env.CTAs != 4 || env.Shared != 32768 {
		t.Errorf("envelope = %+v", env)
	}
	// Clamped to SM capacity.
	env = envelopeFor(need, 100, full)
	if env.Threads > full.Threads || env.Regs > full.Regs {
		t.Errorf("envelope overflow: %+v", env)
	}
	// Unknown kernel defaults to half.
	env = envelopeFor(sm.Resources{}, 4, full)
	if env.Threads != full.Threads/2 {
		t.Errorf("default envelope = %+v", env)
	}
}

// newTAP2 builds two-task TAP on g.
func newTAP2(t *testing.T, g *gpu.GPU) *TAPN {
	t.Helper()
	tap, err := NewTAPN(g, taskOfEvenOdd, 2)
	if err != nil {
		t.Fatal(err)
	}
	return tap
}

func TestTAPRepartitionsTowardCacheSensitiveTask(t *testing.T) {
	g := newGPU(t, config.RTX3070())
	tap := newTAP2(t, g)
	sets := g.Mem().SetsPerBank()

	// Task 0: cache-friendly reuse of a small line set (same UMON set).
	for i := 0; i < 20000; i++ {
		tap.ObserveL2(0, uint64(i%4)*256, false)
	}
	// Task 1: barely touches memory (HOLO-like).
	for i := 0; i < 100; i++ {
		tap.ObserveL2(1, uint64(i), false)
	}
	tap.Tick(10000)
	r := tap.Regions()
	if r[0].Count <= r[1].Count {
		t.Errorf("TAP regions = %+v, want task 0 dominant", r)
	}
	if r[1].Count < 1 {
		t.Error("TAP must leave the compute task at least one set")
	}
	if r[0].Count+r[1].Count > sets {
		t.Errorf("regions exceed sets per bank: %+v", r)
	}
}

func TestTAPKeepsSMBehaviorOfMPS(t *testing.T) {
	g := newGPU(t, config.RTX3070())
	tap := newTAP2(t, g)
	n0 := 0
	for s := 0; s < g.Config().NumSMs; s++ {
		if tap.AllowSM(s, 0) {
			n0++
		}
	}
	if n0 != g.Config().NumSMs/2 {
		t.Errorf("TAP SM split = %d", n0)
	}
}

func TestTAPIgnoresTinySample(t *testing.T) {
	g := newGPU(t, config.RTX3070())
	tap := newTAP2(t, g)
	before := tap.Regions()[0].Count
	tap.ObserveL2(0, 1, false)
	tap.Tick(100)
	if tap.Regions()[0].Count != before {
		t.Error("TAP repartitioned on statistically empty sample")
	}
}

// TestTAPTwoTaskSensitiveSplit pins the paper's two-task rule for the
// case where both tasks are cache-sensitive: task 0 gets its share of the
// ways in 1/256 steps, clamped to [1/4, 3/4] of the bank. In the first
// case the n-way proportional (ways+1) split would give task 0 79 sets,
// not 80.
func TestTAPTwoTaskSensitiveSplit(t *testing.T) {
	for _, tc := range []struct {
		name         string
		hits0, hits1 []int64 // hits at the leading LRU stack depths
		want0        int
	}{
		{name: "proportional", hits0: repeat(100, 10), hits1: repeat(120, 6), want0: 80},
		{name: "clamped", hits0: repeat(500, 16), hits1: repeat(1000, 1), want0: 96},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := newGPU(t, config.RTX3070())
			tap := newTAP2(t, g)
			sets := g.Mem().SetsPerBank()
			if sets != 128 || len(tap.umons[0].WayHits) != 16 {
				t.Fatalf("test assumes 128 sets and 16 ways, have %d and %d", sets, len(tap.umons[0].WayHits))
			}
			for task, hits := range [][]int64{tc.hits0, tc.hits1} {
				u := tap.umons[task]
				u.Accesses = 10000
				copy(u.WayHits, hits)
			}
			tap.Tick(10000)
			r := tap.Regions()
			if r[0].Count != tc.want0 || r[1].Count != sets-tc.want0 || r[1].Start != tc.want0 {
				t.Errorf("regions = %+v, want task 0 = %d sets", r, tc.want0)
			}
		})
	}
}

func repeat(v int64, n int) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// TestOddSplitFavorsTaskZero pins the remainder rule of the contiguous
// splits: with an odd SM count, task 0 gets the extra SM under MPS, MiG
// and TAP alike.
func TestOddSplitFavorsTaskZero(t *testing.T) {
	cfg := config.JetsonOrin()
	cfg.NumSMs = 7
	mps, err := NewSMGroups(cfg.NumSMs, 2)
	if err != nil {
		t.Fatal(err)
	}
	mig, err := NewMiGN(newGPU(t, cfg), taskOfEvenOdd, 2)
	if err != nil {
		t.Fatal(err)
	}
	tap := newTAP2(t, newGPU(t, cfg))
	for _, p := range []gpu.Policy{mps, mig, tap} {
		for s := 0; s < cfg.NumSMs; s++ {
			want := 0
			if s >= 4 {
				want = 1
			}
			if !p.AllowSM(s, want) || p.AllowSM(s, 1-want) {
				t.Errorf("%s: SM %d should belong to task %d only", p.Name(), s, want)
			}
		}
	}
}

// TestPoliciesHaveNames pins the two-task policy names: they are part of
// every state digest and checkpoint, so they must stay the paper's names.
func TestPoliciesHaveNames(t *testing.T) {
	g := newGPU(t, config.JetsonOrin())
	must := func(p gpu.Policy, err error) gpu.Policy {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for want, p := range map[string]gpu.Policy{
		"MPS":          must(NewSMGroups(14, 2)),
		"MiG":          must(NewMiGN(g, taskOfEvenOdd, 2)),
		"EVEN":         must(NewFGN(g, 2)),
		"PriorityEven": must(NewPriorityEvenN(g, 2)),
		"TAP":          must(NewTAPN(g, taskOfEvenOdd, 2)),
		"WarpedSlicer": NewWarpedSlicer(g),
		"MPSx3":        must(NewSMGroups(14, 3)),
		"TAPx4":        must(NewTAPN(g, taskOfEvenOdd, 4)),
	} {
		if got := p.Name(); got != want {
			t.Errorf("policy name = %q, want %q", got, want)
		}
	}
}
