package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sync"
	"testing"

	"crisp/internal/compute"
	"crisp/internal/config"
	"crisp/internal/render"
	"crisp/internal/scenario"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.json from the current simulator")

const (
	goldenPath = "testdata/golden.json"
	// goldenDigestEvery arms the state-digest auditor for every golden
	// cell; the recorded state digest is the series' final entry.
	goldenDigestEvery = 50_000
)

// goldenCell is one pinned run: makespan, stats digest, and the final
// architectural-state digest (which also covers the policy's name and
// serialized state). Digests are fixed-width hex so the file diffs cleanly.
type goldenCell struct {
	Cycles      int64  `json:"cycles"`
	StatsDigest string `json:"stats_digest"`
	StateDigest string `json:"state_digest"`
}

// goldenShape is one workload shape of the corpus, run under several
// policies.
type goldenShape struct {
	name     string
	policies []PolicyKind
	job      func(policy PolicyKind) (*Job, error)
}

// goldenShapes lists the corpus: Orin pairs covering every mechanism's
// interesting cases, the single-sided pair shapes, a three-task job, one
// RTX3070 pair, and scenario presets. Each scene renders once, and the
// shapes' job builders are safe for concurrent use.
func goldenShapes(t *testing.T) []goldenShape {
	var mu sync.Mutex
	frames := map[string]*render.Result{}
	renderOnce := func(scene string, opts render.Options) (*render.Result, error) {
		mu.Lock()
		defer mu.Unlock()
		if f, ok := frames[scene]; ok {
			return f, nil
		}
		f, err := RenderScene(scene, opts)
		if err != nil {
			return nil, err
		}
		frames[scene] = f
		return f, nil
	}
	pairJob := func(cfg config.GPU, scene string, computes ...string) func(PolicyKind) (*Job, error) {
		return func(policy PolicyKind) (*Job, error) {
			j := &Job{GPU: cfg, Policy: policy}
			if scene != "" {
				f, err := renderOnce(scene, tinyOpts())
				if err != nil {
					return nil, err
				}
				j.Graphics = f
			}
			for i, name := range computes {
				w, err := compute.ByName(name, ComputeStreamBase)
				if err != nil {
					return nil, err
				}
				if i == 0 {
					j.Compute = w
				} else {
					j.Computes = append(j.Computes, w)
				}
			}
			return j, nil
		}
	}
	all := PolicyKinds()
	nonSerial := all[1:]
	orin, rtx := config.JetsonOrin(), config.RTX3070()

	var shapes []goldenShape
	for _, p := range [][2]string{
		{"SPL", "VIO"}, {"PT", "NN"}, {"SPH", "HOLO"}, {"IT", "VIO"},
		{"PT", "VIO"}, {"SPL", "NN"}, {"SPL", "ATW"},
	} {
		shapes = append(shapes, goldenShape{
			name: fmt.Sprintf("%s/%s+%s", orin.Name, p[0], p[1]), policies: all,
			job: pairJob(orin, p[0], p[1]),
		})
	}
	shapes = append(shapes,
		goldenShape{name: orin.Name + "/SPL", policies: all, job: pairJob(orin, "SPL")},
		goldenShape{name: orin.Name + "/NN", policies: all, job: pairJob(orin, "", "NN")},
		goldenShape{name: orin.Name + "/PL+VIO+HOLO", policies: all, job: pairJob(orin, "PL", "VIO", "HOLO")},
		goldenShape{name: rtx.Name + "/SPH+NN", policies: all, job: pairJob(rtx, "SPH", "NN")},
	)
	for _, preset := range []string{"n-way-fair", "vr-frame-deadline", "background-batch"} {
		mix, err := scenario.Preset(preset)
		if err != nil {
			t.Fatal(err)
		}
		shapes = append(shapes, goldenShape{
			name: orin.Name + "/" + preset, policies: nonSerial,
			job: func(policy PolicyKind) (*Job, error) {
				return BuildMixJobEnv(orin, mix, policy, tinyOpts(), MixEnv{Render: renderOnce})
			},
		})
	}
	return shapes
}

// TestGoldenCorpus pins absolute simulator outputs: every cell's cycles,
// stats digest, and final state digest must match testdata/golden.json
// exactly. Unlike the parity suites, which compare the simulator against
// itself, this catches a change that shifts results identically in every
// engine mode. Regenerate only deliberately, with
//
//	go test ./internal/core -run TestGoldenCorpus -update-golden
//
// and justify the regeneration in the change description.
func TestGoldenCorpus(t *testing.T) {
	var mu sync.Mutex
	got := map[string]goldenCell{}
	// Cells are independent runs, so they run as parallel subtests (up to
	// GOMAXPROCS at once); each result is a pure function of its cell.
	t.Run("cells", func(t *testing.T) {
		for _, s := range goldenShapes(t) {
			for _, pol := range s.policies {
				name := s.name + "/" + string(pol)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					c, err := runGoldenCell(s.job, pol)
					if err != nil {
						t.Fatal(err)
					}
					mu.Lock()
					got[name] = c
					mu.Unlock()
				})
			}
		}
	})
	if t.Failed() {
		return
	}

	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d cells to %s", len(got), goldenPath)
		return
	}

	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate with -update-golden)", err)
	}
	var want map[string]goldenCell
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	for name, w := range want {
		g, ok := got[name]
		switch {
		case !ok:
			t.Errorf("%s: in the corpus but not run", name)
		case g != w:
			t.Errorf("%s: got %+v, golden %+v", name, g, w)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: run but missing from the corpus", name)
		}
	}
}

// runGoldenCell runs one cell with the state-digest auditor armed.
func runGoldenCell(build func(PolicyKind) (*Job, error), pol PolicyKind) (goldenCell, error) {
	j, err := build(pol)
	if err != nil {
		return goldenCell{}, err
	}
	j.DigestEvery = goldenDigestEvery
	res, err := j.Run()
	if err != nil {
		return goldenCell{}, err
	}
	sd, err := res.StatsDigest()
	if err != nil {
		return goldenCell{}, err
	}
	if len(res.Digests) == 0 {
		return goldenCell{}, fmt.Errorf("no state digests")
	}
	return goldenCell{
		Cycles:      res.Cycles,
		StatsDigest: fmt.Sprintf("%016x", sd),
		StateDigest: fmt.Sprintf("%016x", res.Digests[len(res.Digests)-1].Digest),
	}, nil
}
