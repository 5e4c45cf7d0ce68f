package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"crisp"
	"crisp/internal/compute"
	"crisp/internal/core"
	"crisp/internal/render"
)

// layers accumulates one iteration's per-layer metrics by name.
type layers map[string]float64

// simulate runs job and digests its result under spans "sim" and
// "digest", adding the sim-layer counts to l when tracing. The returned op
// names the cell for the reference check.
func simulate(ctx context.Context, tr *tracer, parent int, req, cell string, job *core.Job, l layers) op {
	var before, after runtime.MemStats
	if tr.on {
		runtime.ReadMemStats(&before)
	}
	sim := tr.begin("sim", req, parent)
	res, err := job.RunContext(ctx)
	tr.end(sim)
	if tr.on {
		runtime.ReadMemStats(&after)
	}
	if err != nil {
		return op{Cell: cell, Err: fmt.Sprintf("%s: %v", cell, err)}
	}
	sp := tr.begin("digest", req, parent)
	d, err := res.StatsDigest()
	tr.end(sp)
	if err != nil {
		return op{Cell: cell, Err: fmt.Sprintf("%s: digest: %v", cell, err)}
	}
	if tr.on {
		addSimCounts(l, res)
		l["sim.alloc_bytes"] += float64(after.TotalAlloc - before.TotalAlloc)
		l["sim.mallocs"] += float64(after.Mallocs - before.Mallocs)
		l["sim.busy_s."+string(job.Policy)] += tr.seconds(sim)
	}
	return op{Cell: cell, Cycles: res.Cycles, Digest: fmt.Sprintf("%016x", d)}
}

// addSimCounts adds a result's exact simulated counts to l.
func addSimCounts(l layers, res *core.Result) {
	l["sim.cycles"] += float64(res.Cycles)
	l["engine.steps_executed"] += float64(res.StepsExecuted)
	l["engine.steps_skipped"] += float64(res.StepsSkipped)
	l["sm.sched_slots"] += float64(res.SchedSlots)
	l["sm.empty_slots"] += float64(res.EmptySlots)
	for _, st := range res.PerStream {
		l["sim.warp_insts"] += float64(st.WarpInsts)
		l["sm.stall_scoreboard"] += float64(st.Stalls[crisp.StallScoreboard])
		l["sm.stall_mem_pending"] += float64(st.Stalls[crisp.StallMemPending])
		l["sm.stall_pipe_busy"] += float64(st.Stalls[crisp.StallPipeBusy])
		l["sm.stall_barrier"] += float64(st.Stalls[crisp.StallBarrier])
		l["mem.l1_accesses"] += float64(st.L1Accesses)
		l["mem.l1_misses"] += float64(st.L1Misses)
		l["mem.l2_accesses"] += float64(st.L2Accesses)
		l["mem.l2_misses"] += float64(st.L2Misses)
		l["mem.dram_mb"] += float64(st.DRAMReads+st.DRAMWrites) / 1e6
	}
}

// finishSim turns the summed sim counts of an iteration into the reported
// ratios and drops the intermediate sums. sim.busy_s must be set.
func finishSim(l layers) {
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	kinst := l["sim.warp_insts"] / 1e3
	l["sim.kips"] = ratio(kinst, l["sim.busy_s"])
	l["sim.ns_per_cycle"] = ratio(l["sim.busy_s"]*1e9, l["sim.cycles"])
	l["sim.alloc_mb"] = l["sim.alloc_bytes"] / 1e6
	l["sim.allocs_per_kinst"] = ratio(l["sim.mallocs"], kinst)
	visited := l["engine.steps_executed"] + l["engine.steps_skipped"]
	l["engine.skip_ratio"] = ratio(l["engine.steps_skipped"], visited)
	l["mem.l1_hit_ratio"] = ratio(l["mem.l1_accesses"]-l["mem.l1_misses"], l["mem.l1_accesses"])
	l["mem.l2_hit_ratio"] = ratio(l["mem.l2_accesses"]-l["mem.l2_misses"], l["mem.l2_accesses"])
	for _, k := range []string{"sim.alloc_bytes", "sim.mallocs", "mem.l1_accesses", "mem.l1_misses", "mem.l2_accesses", "mem.l2_misses"} {
		delete(l, k)
	}
}

// renderScene and buildCompute call the public front ends under spans and
// count the calls and generated work.
func renderScene(tr *tracer, parent int, req, name string, opts render.Options, l layers) (*render.Result, error) {
	sp := tr.begin("render", req, parent)
	fr, err := crisp.RenderScene(name, opts)
	tr.end(sp)
	if err == nil && tr.on {
		l["render.calls"]++
		for _, st := range fr.Streams {
			for _, k := range st.Kernels {
				l["render.warp_insts"] += float64(k.InstCount())
			}
		}
	}
	return fr, err
}

func buildCompute(tr *tracer, parent int, req, name string, l layers) (*compute.Workload, error) {
	sp := tr.begin("compute", req, parent)
	w, err := crisp.BuildCompute(name)
	tr.end(sp)
	if tr.on {
		l["compute.calls"]++
	}
	return w, err
}

// frame4k is the heaviest single distinct job: RTX3070, SPH rendered at
// 640×360 plus NN, under EVEN, at the default engine setting.
type frame4k struct {
	cfg  crisp.GPUConfig
	opts render.Options
}

const frameCell = "frame-4k RTX3070 SPH+NN EVEN 640x360"

func newFrame4k() (*frame4k, error) {
	cfg, err := crisp.GPUByName("RTX3070")
	if err != nil {
		return nil, err
	}
	opts := crisp.DefaultRenderOptions()
	opts.W, opts.H = 640, 360
	return &frame4k{cfg: cfg, opts: opts}, nil
}

func (f *frame4k) run(ctx context.Context, tr *tracer, _ int64) *iterResult {
	out := &iterResult{Layers: layers{}}
	const req = "frame-4k"
	t0 := time.Now()
	root := tr.begin("job", req, 0)
	o := func() op {
		fr, err := renderScene(tr, root, req, "SPH", f.opts, out.Layers)
		if err != nil {
			return op{Cell: frameCell, Err: "render: " + err.Error()}
		}
		w, err := buildCompute(tr, root, req, "NN", out.Layers)
		if err != nil {
			return op{Cell: frameCell, Err: "compute: " + err.Error()}
		}
		job := &core.Job{GPU: f.cfg, Graphics: fr, Compute: w, Policy: core.PolicyEven,
			SceneName: "SPH", ComputeName: "NN", RenderOpts: f.opts}
		return simulate(ctx, tr, root, req, frameCell, job, out.Layers)
	}()
	tr.end(root)
	out.ReqMS = []float64{ms(time.Since(t0))}
	out.Ops = []op{o}
	return out
}

// tenantMix runs the n-way-fair preset under each N-way policy in turn.
type tenantMix struct {
	cfg crisp.GPUConfig
	mix crisp.MixSpec
}

var mixPolicies = []core.PolicyKind{core.PolicyMPS, core.PolicyMiG, core.PolicyEven,
	core.PolicyWarpedSlicer, core.PolicyTAP, core.PolicyPriority}

func newTenantMix() (*tenantMix, error) {
	cfg, err := crisp.GPUByName("JetsonOrin")
	if err != nil {
		return nil, err
	}
	mix, err := crisp.MixPreset("n-way-fair")
	if err != nil {
		return nil, err
	}
	return &tenantMix{cfg: cfg, mix: mix}, nil
}

func (m *tenantMix) run(ctx context.Context, tr *tracer, _ int64) *iterResult {
	out := &iterResult{Layers: layers{}}
	for _, pol := range mixPolicies {
		req := "mix/" + string(pol)
		cell := "tenant-mix JetsonOrin n-way-fair " + string(pol)
		t0 := time.Now()
		root := tr.begin("mix", req, 0)
		lower := tr.begin("lower", req, root)
		env := core.MixEnv{
			Render: func(name string, opts render.Options) (*render.Result, error) {
				return renderScene(tr, lower, req, name, opts, out.Layers)
			},
			Compute: func(name string) (*compute.Workload, error) {
				return buildCompute(tr, lower, req, name, out.Layers)
			},
		}
		job, err := core.BuildMixJobEnv(m.cfg, m.mix, pol, crisp.DefaultRenderOptions(), env)
		tr.end(lower)
		o := op{Cell: cell}
		if err != nil {
			o.Err = fmt.Sprintf("%s: lowering: %v", cell, err)
		} else {
			o = simulate(ctx, tr, root, req, cell, job, out.Layers)
		}
		tr.end(root)
		out.ReqMS = append(out.ReqMS, ms(time.Since(t0)))
		out.Ops = append(out.Ops, o)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
