// Command perfbench is CRISP's end-to-end and per-layer benchmark. It runs
// one workload as a closed loop of fresh worker processes for a fixed time,
// checks every simulated output against perfbench/reference.json, and
// prints one JSON result line. See README.md in this directory.
//
//	bash perfbench/run.sh --workload frame-4k --seed 1 --seconds 40 --trace 0
//	bash perfbench/run.sh --record-reference
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workload is one benchmark workload's per-process state: built during
// set-up, run once, closed before the process exits.
type workload interface {
	run(ctx context.Context, tr *tracer, seed int64) *iterResult
	close() error
}

// workloadNames lists the workloads in the order BENCHMARK.json does.
var workloadNames = []string{"frame-4k", "crispd-session", "tenant-mix"}

// setUp builds a workload's state; this is what setup_s times, together
// with starting the process.
func setUp(name string) (workload, error) {
	switch name {
	case "frame-4k":
		return newFrame4k()
	case "tenant-mix":
		return newTenantMix()
	case "crispd-session":
		return newCrispdSession()
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

func (*frame4k) close() error   { return nil }
func (*tenantMix) close() error { return nil }

// iterResult is what one worker process reports for its iteration.
type iterResult struct {
	// ReqMS is each client request's latency: issued until its result is
	// in hand.
	ReqMS []float64 `json:"req_ms"`
	Ops   []op      `json:"ops"`
	// Series holds workload-specific timings (crispd-session phases).
	Series map[string][]float64 `json:"series,omitempty"`
	// Layers and Spans are filled only when the iteration is traced.
	Layers layers `json:"layers,omitempty"`
	Spans  []span `json:"spans,omitempty"`
}

const readyLine = "perfbench: ready"

func main() {
	workloadFlag := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "workload seed (orders crispd-session's cold jobs and cache hits)")
	seconds := flag.Int("seconds", 40, "measure for this many seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	recordRef := flag.Bool("record-reference", false, "rerun every workload once and rewrite "+referencePath)
	childFlag := flag.String("child", "", "internal: run one iteration of this workload in this process")
	iter := flag.Int("iter", 0, "internal: iteration number of a -child run")
	setupOnly := flag.Bool("setup-only", false, "internal: a -child run that sets up, tears down and exits")
	flag.Parse()

	var err error
	switch {
	case *childFlag != "" && *setupOnly:
		err = setupChild(*childFlag)
	case *childFlag != "":
		err = child(*childFlag, *seed, *iter, *traceFlag == 1)
	case *recordRef:
		err = recordReference()
	default:
		err = bench(*workloadFlag, *seed, *seconds, *traceFlag == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// child runs one iteration of a workload in this process: set up, say
// ready, run, tear down, and print the iterResult as one JSON line.
func child(name string, seed int64, iter int, traced bool) error {
	w, err := setUp(name)
	if err != nil {
		return err
	}
	fmt.Println(readyLine)
	tr := newTracer(traced)
	res := w.run(context.Background(), tr, iterSeed(seed, iter))
	if err := w.close(); err != nil {
		res.Ops = append(res.Ops, op{Err: "teardown: " + err.Error()})
	}
	if traced {
		res.Spans = tr.spans
		applySelfTimes(res.Layers, tr.spans)
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// setupChild only sets a workload up and tears it down again: extra
// set-up samples for setup_s.
func setupChild(name string) error {
	w, err := setUp(name)
	if err != nil {
		return err
	}
	fmt.Println(readyLine)
	return w.close()
}

// iterSeed gives every iteration of a run its own seed, fixed by the
// run's seed.
func iterSeed(seed int64, iter int) int64 { return seed*1_000_003 + int64(iter) }

// applySelfTimes sets each layer's busy time from the self times of the
// spans around its calls, then derives the sim ratios.
func applySelfTimes(l layers, spans []span) {
	self := selfByName(spans)
	l["render.busy_s"] = self["render"]
	l["compute.busy_s"] = self["compute"]
	l["scenario.lower_s"] = self["lower"]
	l["sim.busy_s"] = self["sim"]
	l["digest.busy_s"] = self["digest"]
	var sum float64
	for _, v := range self {
		sum += v
	}
	l["trace.self_sum_s"] = sum
	finishSim(l)
}

// sample is one worker process as the parent saw it.
type sample struct {
	setupS, wallS, cpuS, rssMB float64
	traced                     bool
	res                        *iterResult // nil for a -setup-only worker
}

// spawn runs one worker process with args. Set-up time runs from starting
// the process until it prints readyLine; wall time until it exits. A worker
// that runs an iteration then prints its iterResult as JSON.
func spawn(ctx context.Context, exe string, args ...string) (*sample, error) {
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	cmd.WaitDelay = 5 * time.Second
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	rd := bufio.NewReader(stdout)
	line, rerr := rd.ReadString('\n')
	setup := time.Since(t0)
	var rest []byte
	if rerr == nil {
		rest, rerr = io.ReadAll(rd)
	}
	werr := cmd.Wait()
	wall := time.Since(t0)
	what := "worker " + strings.Join(args, " ")
	switch {
	case werr != nil:
		return nil, fmt.Errorf("%s: %w", what, werr)
	case rerr != nil:
		return nil, fmt.Errorf("%s: reading its output: %w", what, rerr)
	case strings.TrimSpace(line) != readyLine:
		return nil, fmt.Errorf("%s: expected %q, got %q", what, readyLine, line)
	}
	s := &sample{setupS: setup.Seconds(), wallS: wall.Seconds()}
	if len(bytes.TrimSpace(rest)) > 0 {
		s.res = new(iterResult)
		if err := json.Unmarshal(rest, s.res); err != nil {
			return nil, fmt.Errorf("%s: decoding its result: %w", what, err)
		}
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		s.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		s.cpuS = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	}
	return s, nil
}

// iterate runs iteration iter of a workload in a fresh worker process.
func iterate(ctx context.Context, exe, name string, seed int64, iter int, traced bool) (*sample, error) {
	tflag := "0"
	if traced {
		tflag = "1"
	}
	s, err := spawn(ctx, exe, "--child", name, "--seed", strconv.FormatInt(seed, 10),
		"--iter", strconv.Itoa(iter), "--trace", tflag)
	if err == nil && s.res == nil {
		err = fmt.Errorf("%s iteration %d reported no result", name, iter)
	}
	if err != nil {
		return nil, err
	}
	s.traced = traced
	return s, nil
}

// setupRounds is how many extra workers an untraced run starts only to set
// up and exit, so that setup_s is a median over many set-ups.
const setupRounds = 20

// runDeadline bounds a whole run, well inside the three minutes a run may
// take; an iteration still going then is killed and counted as failed.
const runDeadline = 170 * time.Second

// bench measures one workload for the given time and prints the result.
func bench(name string, seed int64, seconds int, traced bool) error {
	if !slices.Contains(workloadNames, name) {
		return fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
	}
	ref, err := loadReference(referencePath)
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()

	start := time.Now()
	budget := time.Duration(seconds) * time.Second
	minIters := 1
	if traced {
		minIters = 2 // one traced and one untraced, for the tracing overhead
	}
	var samples []*sample
	var walls, setups []float64
	attempted, failed := 0, 0
	var reasons []string
	for i := 0; i < setupRounds && !traced; i++ {
		s, err := spawn(ctx, exe, "--child", name, "--setup-only")
		if err != nil {
			attempted++
			failed++
			reasons = append(reasons, err.Error())
			break
		}
		setups = append(setups, s.setupS)
	}
	for i := 0; failed == 0 || len(samples) > 0; i++ { // no iterations after a failed set-up
		next := time.Duration(median(walls) * float64(time.Second))
		if i >= minIters && time.Since(start)+next > budget {
			break
		}
		s, err := iterate(ctx, exe, name, seed, i, traced && i%2 == 0)
		if err != nil {
			// A worker that crashed or hung leaves nothing to measure;
			// count it and stop rather than respawn into the same fault.
			attempted++
			failed++
			reasons = append(reasons, err.Error())
			break
		}
		walls = append(walls, s.wallS)
		setups = append(setups, s.setupS)
		samples = append(samples, s)
		a, f, why := ref.tally(s.res.Ops)
		attempted += a
		failed += f
		reasons = append(reasons, why...)
	}
	for i, r := range reasons {
		if i == 5 {
			fmt.Fprintf(os.Stderr, "perfbench: ... %d more failures\n", len(reasons)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", r)
	}

	var metrics map[string]metricValue
	if traced {
		metrics = layerMetrics(samples)
		if err := writeSpans(exe, name, seed, samples); err != nil {
			return err
		}
	} else {
		metrics = endToEndMetrics(setups, samples)
	}
	report(os.Stderr, name, setups, samples, metrics)
	return json.NewEncoder(os.Stdout).Encode(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{failed == 0 && attempted > 0, max(attempted, 1), failed, metrics})
}

// writeSpans keeps the traced iterations' spans next to the benchmark
// binary, one file per run.
func writeSpans(exe, name string, seed int64, samples []*sample) error {
	type iterSpans struct {
		Iter  int    `json:"iter"`
		Spans []span `json:"spans"`
	}
	var all []iterSpans
	for i, s := range samples {
		if s.traced {
			all = append(all, iterSpans{Iter: i, Spans: s.res.Spans})
		}
	}
	dir := filepath.Join(filepath.Dir(exe), "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(all)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, seed))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	return nil
}

// recordReference reruns every workload once, untraced, and rewrites the
// reference outputs from what they produced.
func recordReference() error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var ops []op
	for _, name := range workloadNames {
		s, err := iterate(context.Background(), exe, name, 1, 0, false)
		if err != nil {
			return err
		}
		ops = append(ops, s.res.Ops...)
	}
	ref, err := record(ops)
	if err != nil {
		return err
	}
	if err := ref.write(referencePath); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: recorded %d cells in %s\n", len(ref), referencePath)
	return nil
}
