package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"crisp/internal/service"
)

// crispdSession is crispd's HTTP API served in this process on loopback,
// with the default configuration except a fresh state directory and
// serial per-simulation stepping: two workers and two fleet shards, so two
// simulation threads.
type crispdSession struct {
	srv      *service.Server
	hs       *http.Server
	served   chan error
	stateDir string
	base     string
	api      *http.Client // the one client connection
	sse      *http.Client // at most one timeline stream at a time
}

// The sweep and cold-job grids. Every cell is later resubmitted as a
// cache hit.
var (
	crispdPolicies = []string{"serial", "MPS", "MiG", "EVEN", "WarpedSlicer", "TAP", "Priority"}
	sweepScenes    = []string{"SPH", "PT"}
)

const hitCount = 1000

func newCrispdSession() (*crispdSession, error) {
	dir, err := os.MkdirTemp("", "perfbench-crispd-")
	if err != nil {
		return nil, err
	}
	srv, err := service.New(service.Config{StateDir: dir, RunWorkers: 1})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain(context.Background())
		os.RemoveAll(dir)
		return nil, err
	}
	c := &crispdSession{
		srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan error, 1),
		stateDir: dir, base: "http://" + ln.Addr().String(),
		api: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		sse: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
	}
	go func() { c.served <- c.hs.Serve(ln) }()
	if _, err := c.call(context.Background(), "GET", "/readyz", nil, nil); err != nil {
		c.close()
		return nil, fmt.Errorf("crispd not ready: %w", err)
	}
	return c, nil
}

// close shuts the HTTP server and the service down and removes the state
// directory.
func (c *crispdSession) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c.api.CloseIdleConnections()
	c.sse.CloseIdleConnections()
	err := c.hs.Shutdown(ctx)
	if serr := <-c.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if derr := c.srv.Drain(ctx); err == nil {
		err = derr
	}
	if rerr := os.RemoveAll(c.stateDir); err == nil {
		err = rerr
	}
	return err
}

// call sends one request on the API connection and decodes a JSON reply
// into out (when non-nil). Any status other than 200/201 is an error.
func (c *crispdSession) call(ctx context.Context, method, path string, body, out any) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := c.api.Do(req)
	if err != nil {
		return nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		return nil, fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	if out != nil {
		if err := json.Unmarshal(b, out); err != nil {
			return nil, fmt.Errorf("%s %s: decoding reply: %w", method, path, err)
		}
	}
	return b, nil
}

// follow reads a timeline stream until the server ends it, which happens
// when the job or sweep reaches a terminal state. The cursor skips the
// retained backlog, so only live events cross the wire.
func (c *crispdSession) follow(ctx context.Context, path string) error {
	req, err := http.NewRequestWithContext(ctx, "GET", c.base+path, nil)
	if err != nil {
		return err
	}
	req.Header.Set("Last-Event-ID", strconv.FormatUint(1<<62, 10))
	resp, err := c.sse.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %d", path, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		if sc.Text() == "event: lagged" {
			return fmt.Errorf("GET %s: dropped as a lagging subscriber", path)
		}
	}
	return sc.Err()
}

// Wire shapes of the replies the session reads.
type (
	jobSpec struct {
		GPU     string `json:"gpu"`
		Scene   string `json:"scene"`
		Compute string `json:"compute"`
		Policy  string `json:"policy"`
	}
	storedResult struct {
		Cycles      int64   `json:"cycles"`
		StatsDigest string  `json:"stats_digest"`
		SimWallMS   float64 `json:"sim_wall_ms"`
		Tasks       []struct {
			WarpInsts int64 `json:"warp_insts"`
		} `json:"tasks"`
	}
	jobView struct {
		ID       string        `json:"id"`
		State    string        `json:"state"`
		Cached   bool          `json:"cached"`
		Error    string        `json:"error"`
		Created  string        `json:"created"`
		Started  string        `json:"started"`
		Finished string        `json:"finished"`
		Result   *storedResult `json:"result"`
	}
	sweepView struct {
		ID           string `json:"id"`
		State        string `json:"state"`
		MergedDigest string `json:"merged_digest"`
		Tasks        []struct {
			Digest      string  `json:"digest"`
			StatsDigest string  `json:"stats_digest"`
			Spec        jobSpec `json:"spec"`
		} `json:"tasks"`
	}
)

func (s jobSpec) cell() string {
	return fmt.Sprintf("crispd-session %s %s+%s %s", s.GPU, s.Scene, s.Compute, s.Policy)
}

// cold is a cell's first (executed) result, which its cache hits must
// reproduce.
type cold struct {
	spec jobSpec
	res  storedResult
}

// run is one session: a 14-cell sweep, 7 cold jobs submitted in seeded
// order, then hitCount cache-hit resubmissions drawn in seeded order from
// those 21 cells.
func (c *crispdSession) run(ctx context.Context, tr *tracer, seed int64) *iterResult {
	rng := rand.New(rand.NewSource(seed))
	out := &iterResult{Layers: layers{}, Series: map[string][]float64{}}
	session := tr.begin("session", "session", 0)
	defer tr.end(session)
	var colds []cold

	// 1. The sweep, from submission to its merged digest.
	t0 := time.Now()
	sw := tr.begin("sweep", "sweep", session)
	view, err := c.sweep(ctx, tr, sw)
	tr.end(sw)
	sweepWall := time.Since(t0)
	out.ReqMS = append(out.ReqMS, ms(sweepWall))
	out.Series["sweep_wall_s"] = []float64{sweepWall.Seconds()}
	if err != nil {
		out.Ops = append(out.Ops, op{Err: "sweep: " + err.Error()})
	} else {
		out.Ops = append(out.Ops, op{Cell: "crispd-session sweep merged", Digest: view.MergedDigest})
		var taskWall float64
		for _, t := range view.Tasks {
			var r storedResult
			o := op{Cell: t.Spec.cell()}
			if _, err := c.call(ctx, "GET", "/v1/results/"+t.Digest, nil, &r); err != nil {
				o.Err = err.Error()
			} else if r.StatsDigest != t.StatsDigest {
				o.Err = fmt.Sprintf("%s: result digest %s differs from sweep task digest %s", o.Cell, r.StatsDigest, t.StatsDigest)
			} else {
				o.Cycles, o.Digest = r.Cycles, r.StatsDigest
				colds = append(colds, cold{spec: t.Spec, res: r})
				taskWall += r.SimWallMS / 1e3
			}
			out.Ops = append(out.Ops, o)
		}
		if tr.on {
			out.Layers["fleet.task_wall_s"] = taskWall
		}
	}

	// 2. Cold jobs: all submitted, then each awaited.
	t1 := time.Now()
	jobs := tr.begin("jobs", "jobs", session)
	type pending struct {
		spec   jobSpec
		id     string
		sentAt time.Time
	}
	var pend []pending
	var submitMS []float64
	for _, i := range rng.Perm(len(crispdPolicies)) {
		spec := jobSpec{GPU: "JetsonOrin", Scene: "SPL", Compute: "NN", Policy: crispdPolicies[i]}
		var v jobView
		sent := time.Now()
		sp := tr.begin("job.submit", spec.cell(), jobs)
		_, err := c.call(ctx, "POST", "/v1/jobs", spec, &v)
		tr.end(sp)
		submitMS = append(submitMS, ms(time.Since(sent)))
		if err != nil {
			out.Ops = append(out.Ops, op{Cell: spec.cell(), Err: err.Error()})
			continue
		}
		pend = append(pend, pending{spec: spec, id: v.ID, sentAt: sent})
	}
	var queueWait, exec float64
	for _, p := range pend {
		sp := tr.begin("job.wait", p.spec.cell(), jobs)
		var v jobView
		err := c.follow(ctx, "/v1/jobs/"+p.id+"/timeline")
		if err == nil {
			_, err = c.call(ctx, "GET", "/v1/jobs/"+p.id, nil, &v)
		}
		tr.end(sp)
		out.ReqMS = append(out.ReqMS, ms(time.Since(p.sentAt)))
		o := op{Cell: p.spec.cell()}
		switch {
		case err != nil:
			o.Err = err.Error()
		case v.State != "done" || v.Result == nil:
			o.Err = fmt.Sprintf("%s: job %s ended %s %s", o.Cell, p.id, v.State, v.Error)
		default:
			o.Cycles, o.Digest = v.Result.Cycles, v.Result.StatsDigest
			colds = append(colds, cold{spec: p.spec, res: *v.Result})
			queueWait += between(v.Created, v.Started)
			exec += between(v.Started, v.Finished)
		}
		out.Ops = append(out.Ops, o)
	}
	tr.end(jobs)
	out.Series["jobs_wall_s"] = []float64{time.Since(t1).Seconds()}

	// 3. Cache hits. Each must come back done, cached, and identical to
	// the cell's cold run.
	var heapBefore runtime.MemStats
	if tr.on {
		runtime.GC()
		runtime.ReadMemStats(&heapBefore)
	}
	hits := tr.begin("hits", "hits", session)
	var hitMS []float64
	for i := 0; i < hitCount && len(colds) > 0; i++ {
		cd := colds[rng.Intn(len(colds))]
		var v jobView
		sp := tr.begin("hit", "hit-"+strconv.Itoa(i), hits)
		sent := time.Now()
		_, err := c.call(ctx, "POST", "/v1/jobs", cd.spec, &v)
		lat := ms(time.Since(sent))
		tr.end(sp)
		hitMS = append(hitMS, lat)
		if err != nil {
			out.Ops = append(out.Ops, op{Cell: cd.spec.cell(), Err: err.Error()})
			continue
		}
		out.Ops = append(out.Ops, checkHit(v, cd))
	}
	tr.end(hits)
	out.ReqMS = append(out.ReqMS, hitMS...)
	out.Series["hit_ms"] = hitMS

	if tr.on {
		var heapAfter runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&heapAfter)
		l := out.Layers
		if len(hitMS) > 0 {
			l["service.heap_per_submit_kb"] = (float64(heapAfter.HeapAlloc) - float64(heapBefore.HeapAlloc)) / float64(len(hitMS)) / 1024
		}
		h := summarize(hitMS)
		l["service.hit_p50_ms"], l["service.hit_p99_ms"], l["service.hit_samples"] = h.P50, h.P99, float64(h.N)
		l["service.submit_ms"] = median(submitMS)
		l["service.queue_wait_s"], l["service.exec_s"] = queueWait, exec
		l["service.sweep_wall_s"] = sweepWall.Seconds()
		l["service.jobs_wall_s"] = out.Series["jobs_wall_s"][0]
		for _, cd := range colds {
			l["sim.cycles"] += float64(cd.res.Cycles)
			for _, t := range cd.res.Tasks {
				l["sim.warp_insts"] += float64(t.WarpInsts)
			}
		}
		if err := c.scrape(ctx, l, sweepWall.Seconds()); err != nil {
			out.Ops = append(out.Ops, op{Err: "metrics: " + err.Error()})
		}
	}
	return out
}

// checkHit is the op for one resubmission of cd's cell: it fails unless
// the reply is a finished cache hit identical to the cold run.
func checkHit(v jobView, cd cold) op {
	o := op{Cell: cd.spec.cell()}
	switch {
	case v.State != "done" || !v.Cached || v.Result == nil:
		o.Err = fmt.Sprintf("%s: resubmission was not a cache hit (state %s, cached %v)", o.Cell, v.State, v.Cached)
	case v.Result.Cycles != cd.res.Cycles || v.Result.StatsDigest != cd.res.StatsDigest:
		o.Err = fmt.Sprintf("%s: cache hit %d/%s differs from its cold run %d/%s",
			o.Cell, v.Result.Cycles, v.Result.StatsDigest, cd.res.Cycles, cd.res.StatsDigest)
	default:
		o.Cycles, o.Digest = v.Result.Cycles, v.Result.StatsDigest
	}
	return o
}

// sweep submits the 14-cell sweep, follows its timeline to the end, and
// returns its final view.
func (c *crispdSession) sweep(ctx context.Context, tr *tracer, parent int) (*sweepView, error) {
	body := map[string]any{"gpus": []string{"JetsonOrin"}, "scenes": sweepScenes,
		"computes": []string{"VIO"}, "policies": crispdPolicies}
	var v sweepView
	sp := tr.begin("sweep.submit", "sweep", parent)
	_, err := c.call(ctx, "POST", "/v1/sweeps", body, &v)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("sweep.wait", "sweep", parent)
	err = c.follow(ctx, "/v1/sweeps/"+v.ID+"/timeline")
	if err == nil {
		_, err = c.call(ctx, "GET", "/v1/sweeps/"+v.ID, nil, &v)
	}
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if v.State != "done" || v.MergedDigest == "" {
		return nil, fmt.Errorf("sweep %s ended %s", v.ID, v.State)
	}
	if len(v.Tasks) != len(sweepScenes)*len(crispdPolicies) {
		return nil, fmt.Errorf("sweep %s has %d tasks", v.ID, len(v.Tasks))
	}
	return &v, nil
}

// scrape reads the service's own counters from /metrics.
func (c *crispdSession) scrape(ctx context.Context, l layers, sweepWall float64) error {
	b, err := c.call(ctx, "GET", "/metrics", nil, nil)
	if err != nil {
		return err
	}
	m := parseMetrics(b)
	l["service.executions"] = m["crispd_executions_total"]
	l["service.cache_hits"] = m["crispd_cache_hits_total"]
	l["service.retries"] = m["crispd_retries_total"]
	l["fleet.tasks_done"] = m[`crispd_sweep_tasks_total{state="done"}`]
	l["fleet.lease_grants"] = m["crispd_lease_grants_total"]
	l["fleet.lease_renewals"] = m["crispd_lease_renewals_total"]
	l["obs.timeline_events"] = m["crispd_timeline_events_total"]
	if shards := m["crispd_fleet_shards"]; shards > 0 && sweepWall > 0 {
		l["fleet.shard_busy_ratio"] = l["fleet.task_wall_s"] / (shards * sweepWall)
	}
	return nil
}

// parseMetrics reads Prometheus text lines "name{labels} value".
func parseMetrics(b []byte) map[string]float64 {
	m := make(map[string]float64)
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			m[line[:i]] = v
		}
	}
	return m
}

// between is the seconds from one RFC 3339 stamp to another; 0 when
// either is missing.
func between(from, to string) float64 {
	a, err1 := time.Parse(time.RFC3339Nano, from)
	b, err2 := time.Parse(time.RFC3339Nano, to)
	if err1 != nil || err2 != nil {
		return 0
	}
	return b.Sub(a).Seconds()
}
