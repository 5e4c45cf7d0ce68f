package sm

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"crisp/internal/config"
	"crisp/internal/isa"
	"crisp/internal/mem"
	"crisp/internal/obs"
	"crisp/internal/trace"
)

type issueCounter struct {
	total   int64
	byOp    map[isa.Opcode]int64
	byTask  map[int]int64
	stalls  [obs.NumStallCauses]int64
	stalled int64
}

func newCounter() *issueCounter {
	return &issueCounter{byOp: make(map[isa.Opcode]int64), byTask: make(map[int]int64)}
}

func (c *issueCounter) OnIssue(smID, stream, task int, op isa.Opcode, lanes int) {
	c.total++
	c.byOp[op]++
	c.byTask[task]++
}

func (c *issueCounter) OnStall(smID, stream, task int, cause obs.StallCause) {
	c.stalls[cause]++
	c.stalled++
}

func (c *issueCounter) OnStallN(smID, stream, task int, cause obs.StallCause, n int64) {
	c.stalls[cause] += n
	c.stalled += n
}

func testCore(t *testing.T) (*Core, *issueCounter, *config.GPU) {
	t.Helper()
	cfg := config.JetsonOrin()
	ms, err := mem.NewSystem(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	cnt := newCounter()
	return NewCore(0, &cfg, ms, cnt), cnt, &cfg
}

// chainKernel: one warp, n dependent FADDs (each reads the previous).
func chainKernel(n int) *trace.Kernel {
	b := trace.NewBuilder("chain", trace.KindCompute, 0, 32, 16, 0)
	b.BeginCTA()
	b.BeginWarp()
	r := b.NewReg()
	b.ALU(isa.OpMOV, r, trace.FullMask)
	for i := 0; i < n; i++ {
		nr := b.NewReg()
		b.ALU(isa.OpFADD, nr, trace.FullMask, r, r)
		r = nr
	}
	return b.Finish()
}

// independentKernel: one warp, n independent FADDs.
func independentKernel(n int) *trace.Kernel {
	b := trace.NewBuilder("indep", trace.KindCompute, 0, 32, 16, 0)
	b.BeginCTA()
	b.BeginWarp()
	for i := 0; i < n; i++ {
		b.ALU(isa.OpFADD, b.NewReg(), trace.FullMask)
	}
	return b.Finish()
}

// runCore drives the core until idle, returning the final cycle.
func runCore(t *testing.T, c *Core) int64 {
	t.Helper()
	now := int64(0)
	for i := 0; c.Busy(); i++ {
		if i > 1_000_000 {
			t.Fatal("core did not drain")
		}
		next := c.Step(now)
		if next <= now {
			next = now + 1
		}
		now = next
	}
	return now
}

func TestResourceArithmetic(t *testing.T) {
	cfg := config.JetsonOrin()
	full := Full(&cfg)
	if full.Threads != 64*32 || full.Regs != 65536 {
		t.Errorf("Full = %+v", full)
	}
	half := Fraction(full, 1, 2)
	if half.Threads != full.Threads/2 || half.CTAs != full.CTAs/2 {
		t.Errorf("Fraction = %+v", half)
	}
	if z := Fraction(full, 1, 0); z.Threads != 0 {
		t.Error("Fraction with zero denominator should be empty")
	}
	k := &trace.Kernel{ThreadsPerCTA: 256, RegsPerThread: 40, SharedMem: 1024}
	need := Need(k)
	if need.Threads != 256 || need.Regs != 256*40 || need.Shared != 1024 || need.CTAs != 1 {
		t.Errorf("Need = %+v", need)
	}
}

func TestDependentChainSlowerThanIndependent(t *testing.T) {
	c1, _, _ := testCore(t)
	k1 := chainKernel(100)
	c1.IssueCTA(0, k1, 0, 0, nil)
	dep := runCore(t, c1)

	c2, _, _ := testCore(t)
	k2 := independentKernel(100)
	c2.IssueCTA(0, k2, 0, 0, nil)
	ind := runCore(t, c2)

	if dep <= ind {
		t.Errorf("dependent chain %d cycles should exceed independent %d", dep, ind)
	}
	// Dependent chain: ≈ latency(FADD)=4 per op.
	if dep < 350 {
		t.Errorf("dependent chain finished in %d cycles, expected ≈400", dep)
	}
	// Independent stream: ≈ 1 op/cycle.
	if ind > 220 {
		t.Errorf("independent stream took %d cycles, expected ≈100", ind)
	}
}

func TestAllInstructionsIssued(t *testing.T) {
	c, cnt, _ := testCore(t)
	k := chainKernel(50)
	c.IssueCTA(0, k, 0, 0, nil)
	runCore(t, c)
	want := int64(k.InstCount())
	if cnt.total != want {
		t.Errorf("issued %d, want %d", cnt.total, want)
	}
}

func TestCTACompletionFreesResources(t *testing.T) {
	c, _, cfg := testCore(t)
	k := chainKernel(10)
	done := 0
	c.IssueCTA(0, k, 0, 0, func(now int64) { done++ })
	if c.Usage(0).Threads != 32 {
		t.Errorf("usage = %+v", c.Usage(0))
	}
	runCore(t, c)
	if done != 1 {
		t.Errorf("onComplete ran %d times", done)
	}
	if c.Usage(0).Threads != 0 || c.TotalResidentWarps() != 0 {
		t.Error("resources not freed at CTA commit")
	}
	_ = cfg
}

func TestCanAcceptHonorsTaskLimits(t *testing.T) {
	c, _, cfg := testCore(t)
	k := &trace.Kernel{Name: "big", ThreadsPerCTA: 512, RegsPerThread: 64, CTAs: make([]trace.CTA, 1)}
	// Limit task 0 to a quarter SM: 512 threads need 512 ≤ 512 ok, but
	// registers 512*64=32768 > 65536/4.
	c.LimitFor = func(task int) Resources {
		if task == 0 {
			return Fraction(Full(cfg), 1, 4)
		}
		return Full(cfg)
	}
	if c.CanAccept(k, 0) {
		t.Error("CTA exceeding task limit accepted")
	}
	if !c.CanAccept(k, 1) {
		t.Error("CTA within other task's limit rejected")
	}
}

func TestCanAcceptHonorsPhysicalCapacity(t *testing.T) {
	c, _, _ := testCore(t)
	k := chainKernel(5) // 32 threads/CTA
	n := 0
	for c.CanAccept(k, 0) {
		c.IssueCTA(0, k, 0, 0, nil)
		n++
		if n > 100 {
			t.Fatal("no capacity bound")
		}
	}
	// 64 warps/SM at 1 warp per CTA, but CTA slots cap at 32.
	if n != 32 {
		t.Errorf("accepted %d CTAs, want 32 (CTA-slot limit)", n)
	}
}

func TestMemoryLoadStallsWarp(t *testing.T) {
	b := trace.NewBuilder("ld", trace.KindCompute, 0, 32, 16, 0)
	b.BeginCTA()
	b.BeginWarp()
	addrs := make([]uint64, 32)
	for i := range addrs {
		addrs[i] = uint64(i * 4)
	}
	r := b.NewReg()
	b.Mem(isa.OpLDG, r, trace.FullMask, addrs, trace.ClassCompute)
	b.ALU(isa.OpFADD, b.NewReg(), trace.FullMask, r, r) // depends on load
	k := b.Finish()

	c, _, cfg := testCore(t)
	c.IssueCTA(0, k, 0, 0, nil)
	total := runCore(t, c)
	// DRAM round trip: must exceed L2+DRAM latency.
	if total < int64(cfg.L2Latency) {
		t.Errorf("load-dependent kernel finished in %d cycles, too fast", total)
	}
}

func TestBarrierSynchronizesWarps(t *testing.T) {
	// Two warps: warp 0 does long work then BAR; warp 1 hits BAR
	// immediately then one op. Warp 1's post-barrier op cannot retire
	// before warp 0 arrives.
	b := trace.NewBuilder("bar", trace.KindCompute, 0, 64, 16, 0)
	b.BeginCTA()
	b.BeginWarp()
	r := b.NewReg()
	b.ALU(isa.OpMOV, r, trace.FullMask)
	for i := 0; i < 50; i++ {
		nr := b.NewReg()
		b.ALU(isa.OpFADD, nr, trace.FullMask, r, r)
		r = nr
	}
	b.Barrier()
	b.BeginWarp()
	b.Barrier()
	b.ALU(isa.OpFADD, b.NewReg(), trace.FullMask)
	k := b.Finish()

	c, _, _ := testCore(t)
	c.IssueCTA(0, k, 0, 0, nil)
	total := runCore(t, c)
	// Warp 0's chain takes ≈200 cycles; the barrier forces the total past it.
	if total < 180 {
		t.Errorf("barrier did not hold warp 1: %d cycles", total)
	}
}

func TestSFUThroughputLowerThanFP(t *testing.T) {
	mk := func(op isa.Opcode) *trace.Kernel {
		b := trace.NewBuilder("tp", trace.KindCompute, 0, 32, 16, 0)
		b.BeginCTA()
		b.BeginWarp()
		for i := 0; i < 64; i++ {
			b.ALU(op, b.NewReg(), trace.FullMask)
		}
		return b.Finish()
	}
	c1, _, _ := testCore(t)
	c1.IssueCTA(0, mk(isa.OpFADD), 0, 0, nil)
	fp := runCore(t, c1)
	c2, _, _ := testCore(t)
	c2.IssueCTA(0, mk(isa.OpMUFUSIN), 0, 0, nil)
	sfu := runCore(t, c2)
	if sfu <= 2*fp {
		t.Errorf("SFU stream %d cycles should be ≫ FP stream %d", sfu, fp)
	}
}

func TestWarpsSpreadAcrossSchedulers(t *testing.T) {
	b := trace.NewBuilder("multi", trace.KindCompute, 0, 128, 16, 0)
	b.BeginCTA()
	for w := 0; w < 4; w++ {
		b.BeginWarp()
		for i := 0; i < 32; i++ {
			b.ALU(isa.OpFADD, b.NewReg(), trace.FullMask)
		}
	}
	k := b.Finish()
	c, _, _ := testCore(t)
	c.IssueCTA(0, k, 0, 0, nil)
	// 4 warps on 4 schedulers run in parallel: ≈ as fast as one warp.
	total := runCore(t, c)
	if total > 100 {
		t.Errorf("4 warps on 4 schedulers took %d cycles, expected ≈40", total)
	}
}

func TestResidentWarpCountsByTask(t *testing.T) {
	c, _, _ := testCore(t)
	k := chainKernel(5)
	c.IssueCTA(0, k, 0, 3, nil)
	c.IssueCTA(0, k, 0, 3, nil)
	c.IssueCTA(0, k, 0, 5, nil)
	if c.ResidentWarps(3) != 2 || c.ResidentWarps(5) != 1 {
		t.Errorf("resident = %d/%d", c.ResidentWarps(3), c.ResidentWarps(5))
	}
	if c.TotalResidentWarps() != 3 {
		t.Errorf("total = %d", c.TotalResidentWarps())
	}
}

func TestCoalesceUniqueLines(t *testing.T) {
	addrs := []uint64{0, 4, 8, 128, 132, 256, 0}
	lines := coalesce(addrs, 128)
	if len(lines) != 3 {
		t.Errorf("coalesce = %v, want 3 lines", lines)
	}
	if lines[0] != 0 || lines[1] != 1 || lines[2] != 2 {
		t.Errorf("coalesce order = %v", lines)
	}
}

func TestTexCarriesFilterLatency(t *testing.T) {
	mk := func(op isa.Opcode) *trace.Kernel {
		b := trace.NewBuilder("tex", trace.KindFragment, 0, 32, 16, 0)
		b.BeginCTA()
		b.BeginWarp()
		addrs := make([]uint64, 32)
		for i := range addrs {
			addrs[i] = uint64(i * 4)
		}
		r := b.NewReg()
		cls := trace.ClassCompute
		if op == isa.OpTEX {
			cls = trace.ClassTexture
		}
		b.Mem(op, r, trace.FullMask, addrs, cls)
		b.ALU(isa.OpFADD, b.NewReg(), trace.FullMask, r, r)
		return b.Finish()
	}
	c1, _, _ := testCore(t)
	c1.IssueCTA(0, mk(isa.OpLDG), 0, 0, nil)
	ldg := runCore(t, c1)
	c2, _, _ := testCore(t)
	c2.IssueCTA(0, mk(isa.OpTEX), 0, 0, nil)
	tex := runCore(t, c2)
	if tex <= ldg {
		t.Errorf("TEX total %d should exceed LDG %d by the filter latency", tex, ldg)
	}
}

func TestDynamicLimitShrinkDrainsGracefully(t *testing.T) {
	// Issue CTAs under a generous limit, then shrink the limit: already
	// resident CTAs keep running; new CTAs are refused until usage
	// drains below the new envelope (the paper's dynamic-repartition
	// semantics: "the CTA scheduler stops issuing ... waits until CTAs
	// commit").
	c, _, cfg := testCore(t)
	k := chainKernel(40) // 32 threads, 1 warp per CTA
	limit := Full(cfg)
	c.LimitFor = func(task int) Resources { return limit }
	for i := 0; i < 8; i++ {
		if !c.CanAccept(k, 0) {
			t.Fatalf("CTA %d refused under full limit", i)
		}
		c.IssueCTA(0, k, 0, 0, nil)
	}
	// Shrink to a 4-CTA envelope: no new CTA fits while 8 are resident.
	limit = Resources{Threads: 4 * 32, Regs: 4 * 32 * 16, Shared: 1 << 20, CTAs: 4}
	if c.CanAccept(k, 0) {
		t.Fatal("CTA accepted beyond shrunken limit")
	}
	runCore(t, c)
	// After draining, the new envelope admits CTAs again.
	if !c.CanAccept(k, 0) {
		t.Fatal("CTA refused on empty SM under valid limit")
	}
}

func TestLRRRotatesFairly(t *testing.T) {
	// Two warps of independent work: LRR alternates them; GTO drains one
	// first. Both must complete either way, in similar total time.
	mk := func() *trace.Kernel {
		b := trace.NewBuilder("two", trace.KindCompute, 0, 256, 16, 0)
		b.BeginCTA()
		for w := 0; w < 8; w++ {
			b.BeginWarp()
			for i := 0; i < 40; i++ {
				b.ALU(isa.OpFADD, b.NewReg(), trace.FullMask)
			}
		}
		return b.Finish()
	}
	gto, _, _ := testCore(t)
	gto.IssueCTA(0, mk(), 0, 0, nil)
	tg := runCore(t, gto)

	lrr, _, _ := testCore(t)
	lrr.Sched = SchedLRR
	lrr.IssueCTA(0, mk(), 0, 0, nil)
	tl := runCore(t, lrr)

	if tl <= 0 || tg <= 0 {
		t.Fatal("no progress")
	}
	ratio := float64(tl) / float64(tg)
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("LRR/GTO makespan ratio = %.2f, want same ballpark", ratio)
	}
}

func TestLRRLatencyHiding(t *testing.T) {
	// Dependent chains: GTO camps on one warp and eats the full
	// dependency latency; LRR interleaves the two chains and hides it.
	mk := func() *trace.Kernel {
		b := trace.NewBuilder("chains", trace.KindCompute, 0, 64, 16, 0)
		b.BeginCTA()
		for w := 0; w < 2; w++ {
			b.BeginWarp()
			r := b.NewReg()
			b.ALU(isa.OpMOV, r, trace.FullMask)
			for i := 0; i < 60; i++ {
				nr := b.NewReg()
				b.ALU(isa.OpFADD, nr, trace.FullMask, r, r)
				r = nr
			}
		}
		return b.Finish()
	}
	// Pin both warps on one scheduler by using warp ids 0 and 4? Warps
	// land on schedulers round-robin (0→sched0, 1→sched1), so use a core
	// with... instead compare totals: with 2 warps on 2 schedulers both
	// run in parallel for either policy; this test just checks LRR is
	// not slower than GTO for independent chains.
	gto, _, _ := testCore(t)
	gto.IssueCTA(0, mk(), 0, 0, nil)
	tg := runCore(t, gto)
	lrr, _, _ := testCore(t)
	lrr.Sched = SchedLRR
	lrr.IssueCTA(0, mk(), 0, 0, nil)
	tl := runCore(t, lrr)
	if tl > tg*11/10 {
		t.Errorf("LRR %d much slower than GTO %d on independent chains", tl, tg)
	}
}

func TestSharedBankConflicts(t *testing.T) {
	mk := func(stride uint64) *trace.Kernel {
		b := trace.NewBuilder("lds", trace.KindCompute, 0, 32, 16, 0)
		b.BeginCTA()
		b.BeginWarp()
		offsets := make([]uint64, 32)
		for i := range offsets {
			offsets[i] = uint64(i) * stride * 4
		}
		for n := 0; n < 32; n++ {
			r := b.NewReg()
			b.SharedAddr(isa.OpLDS, r, trace.FullMask, offsets)
		}
		return b.Finish()
	}
	run := func(stride uint64) int64 {
		c, _, _ := testCore(t)
		c.IssueCTA(0, mk(stride), 0, 0, nil)
		return runCore(t, c)
	}
	clean := run(1)  // stride-1 words: all banks distinct
	broad := run(0)  // same word: broadcast
	worst := run(32) // stride-32 words: every lane hits bank 0
	if broad > clean+8 {
		t.Errorf("broadcast (%d) should match conflict-free (%d)", broad, clean)
	}
	if worst < 8*clean {
		t.Errorf("32-way conflict (%d cycles) should dwarf conflict-free (%d)", worst, clean)
	}
}

// sharedConflictDegreeRef is the original append-based bank-conflict
// degree, kept as the oracle for the allocation-free version: one slice of
// distinct words per bank, degree = longest slice.
func sharedConflictDegreeRef(in *trace.Inst) int {
	if len(in.Addrs) == 0 {
		return 1
	}
	const banks = 32
	var words [banks][]uint64
	degree := 1
	for _, off := range in.Addrs {
		word := off / 4
		b := word % banks
		dup := false
		for _, wd := range words[b] {
			if wd == word {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		words[b] = append(words[b], word)
		if len(words[b]) > degree {
			degree = len(words[b])
		}
	}
	return degree
}

func TestSharedConflictDegree(t *testing.T) {
	lanes := func(n int, f func(i int) uint64) []uint64 {
		offs := make([]uint64, n)
		for i := range offs {
			offs[i] = f(i)
		}
		return offs
	}
	type degreeCase struct {
		name string
		mask uint32
		offs []uint64
		want int // 0: check against the oracle only
	}
	cases := []degreeCase{
		{"no offsets", trace.FullMask, nil, 1},
		{"sequential", trace.FullMask, lanes(32, func(i int) uint64 { return uint64(i) * 4 }), 1},
		{"broadcast", trace.FullMask, lanes(32, func(int) uint64 { return 64 }), 1},
		{"32-way same bank", trace.FullMask, lanes(32, func(i int) uint64 { return uint64(i) * 32 * 4 }), 32},
		// 16 distinct words on the even banks, two lanes each: broadcast per word.
		{"duplicated words", trace.FullMask, lanes(32, func(i int) uint64 { return uint64(i%16) * 4 * 2 }), 1},
		// Lanes 0-7 and 16-23 active, hitting bank 3 with 4 distinct words.
		{"partial mask", 0x00FF00FF, lanes(16, func(i int) uint64 { return uint64(3+(i%4)*32) * 4 }), 4},
	}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 200; i++ {
		mask := rng.Uint32()
		if i%4 == 0 {
			mask = trace.FullMask
		}
		// Small word ranges force duplicates and conflicts; large ones
		// spread lanes across banks.
		span := uint64(1) << (2 + rng.Intn(10))
		offs := lanes(bits.OnesCount32(mask), func(int) uint64 { return uint64(rng.Int63n(int64(span))) })
		cases = append(cases, degreeCase{fmt.Sprintf("random %d", i), mask, offs, 0})
	}
	for _, tc := range cases {
		in := &trace.Inst{Op: isa.OpLDS, Mask: tc.mask, Addrs: tc.offs}
		got, ref := sharedConflictDegree(in), sharedConflictDegreeRef(in)
		if got != ref {
			t.Errorf("%s: degree = %d, oracle %d (offsets %v)", tc.name, got, ref, tc.offs)
		}
		if tc.want != 0 && got != tc.want {
			t.Errorf("%s: degree = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestIssuePathAllocs pins the zero-allocation issue path: once the
// memory tables and the issue log are warm, issuing shared and global
// loads and stores allocates nothing, in direct mode (the serial engine)
// and buffered mode (the two-phase engine's IssueLog).
func TestIssuePathAllocs(t *testing.T) {
	const issues = 2000 // per measured run; the warm-up run issues as many again
	for _, op := range []isa.Opcode{isa.OpLDS, isa.OpSTS, isa.OpLDG, isa.OpSTG} {
		for _, buffered := range []bool{false, true} {
			name := fmt.Sprintf("%v/buffered=%v", op, buffered)
			c, cnt, _ := testCore(t)
			c.SetBuffered(buffered)
			c.IssueCTA(0, memOpKernel(op, 2*issues+16), 0, 0, nil)
			now := int64(0)
			issueOne := func() {
				for before := cnt.total; cnt.total == before; {
					if !c.Busy() {
						t.Fatalf("%s: kernel drained early", name)
					}
					next := c.Step(now)
					if buffered {
						c.CommitStep(now)
					}
					if next <= now {
						next = now + 1
					}
					now = next
				}
			}
			allocs := testing.AllocsPerRun(1, func() {
				for i := 0; i < issues; i++ {
					issueOne()
				}
			})
			if allocs != 0 {
				t.Errorf("%s: %v allocations per %d issued instructions, want 0", name, allocs, issues)
			}
		}
	}
}

// memOpKernel is one warp issuing n instructions of a single memory
// opcode. Shared accesses carry 4-way bank-conflicted offsets. Loads
// touch 32 new lines every instruction, so they keep missing and churn
// the MSHR fill tables through gc and rehash. Stores never wait on their
// data, so a stream of new store lines would back up the DRAM queue and
// grow the L2 fill table without bound; they cycle over a 256 KB set that
// stays L2-resident once the warm-up run has filled it.
func memOpKernel(op isa.Opcode, n int) *trace.Kernel {
	b := trace.NewBuilder("memop", trace.KindCompute, 0, 32, 16, 0)
	b.BeginCTA()
	b.BeginWarp()
	regs := []isa.Reg{b.NewReg(), b.NewReg(), b.NewReg(), b.NewReg()}
	shared := make([]uint64, 32)
	for i := range shared {
		shared[i] = uint64(i%8) * 8 * 4
	}
	for j := 0; j < n; j++ {
		dst := regs[j%len(regs)]
		switch op {
		case isa.OpLDS:
			b.SharedAddr(op, dst, trace.FullMask, shared)
		case isa.OpSTS:
			b.SharedAddr(op, isa.RegNone, trace.FullMask, shared)
		default:
			line := j * 32
			if op == isa.OpSTG {
				dst = isa.RegNone
				line = (j % 64) * 32
			}
			addrs := make([]uint64, 32)
			for i := range addrs {
				addrs[i] = uint64(line+i) * 128
			}
			b.Mem(op, dst, trace.FullMask, addrs, trace.ClassCompute)
		}
	}
	return b.Finish()
}
