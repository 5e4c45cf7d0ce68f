package main

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestTallyCountsPlantedMismatches(t *testing.T) {
	ref := reference{
		"a": {Cycles: 100, Digest: "00000000000000aa"},
		"b": {Cycles: 200, Digest: "00000000000000bb"},
	}
	ops := []op{
		{Cell: "a", Cycles: 100, Digest: "00000000000000aa"}, // matches
		{Cell: "b", Cycles: 200, Digest: "00000000000000bc"}, // planted digest mismatch
		{Cell: "b", Cycles: 201, Digest: "00000000000000bb"}, // planted cycle mismatch
		{Cell: "z", Cycles: 1, Digest: "0000000000000001"},   // no reference
		{Cell: "a", Err: "HTTP 500"},                         // the operation failed
		{},                                                   // an op with no simulated output
	}
	attempted, failed, reasons := ref.tally(ops)
	if attempted != 6 || failed != 4 {
		t.Fatalf("tally = %d attempted, %d failed; want 6, 4 (%v)", attempted, failed, reasons)
	}
	if !strings.Contains(reasons[0], "00000000000000bc") {
		t.Errorf("first reason %q does not name the wrong digest", reasons[0])
	}
}

// A cache hit that differs from its cold run fails even before the
// reference check.
func TestCheckHitPlantedMismatch(t *testing.T) {
	cd := cold{spec: jobSpec{GPU: "JetsonOrin", Scene: "SPL", Compute: "NN", Policy: "EVEN"},
		res: storedResult{Cycles: 37542, StatsDigest: "23f4007d679c0cc2"}}
	good := storedResult{Cycles: 37542, StatsDigest: "23f4007d679c0cc2"}
	bad := storedResult{Cycles: 37542, StatsDigest: "23f4007d679c0cc3"}
	for _, c := range []struct {
		v  jobView
		ok bool
	}{
		{jobView{State: "done", Cached: true, Result: &good}, true},
		{jobView{State: "done", Cached: true, Result: &bad}, false},
		{jobView{State: "done", Cached: false, Result: &good}, false},
		{jobView{State: "queued", Cached: true}, false},
	} {
		o := checkHit(c.v, cd)
		if (o.Err == "") != c.ok {
			t.Errorf("checkHit(%+v) = %+v, want ok=%v", c.v, o, c.ok)
		}
	}
}

func TestRecordRoundTrip(t *testing.T) {
	ops := []op{
		{Cell: "a", Cycles: 100, Digest: "00000000000000aa"},
		{Cell: "a", Cycles: 100, Digest: "00000000000000aa"},
		{Cell: "merged", Digest: "00000000000000ff"},
		{},
	}
	ref, err := record(ops)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ref.json")
	if err := ref.write(path); err != nil {
		t.Fatal(err)
	}
	back, err := loadReference(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, failed, _ := back.tally(ops); failed != 0 || len(back) != 2 {
		t.Fatalf("reloaded reference %v fails its own ops", back)
	}

	if _, err := record(append(ops, op{Cell: "a", Cycles: 101, Digest: "00000000000000aa"})); err == nil {
		t.Error("record accepted two runs of one cell that disagree")
	}
	if _, err := record([]op{{Cell: "a", Err: "boom"}}); err == nil {
		t.Error("record accepted a failed op")
	}
}

// The recorded reference covers every cell the workloads produce.
func TestReferenceCoversEveryCell(t *testing.T) {
	ref, err := loadReference("reference.json")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{frameCell, "crispd-session sweep merged"}
	for _, p := range mixPolicies {
		want = append(want, "tenant-mix JetsonOrin n-way-fair "+string(p))
	}
	for _, p := range crispdPolicies {
		want = append(want, jobSpec{GPU: "JetsonOrin", Scene: "SPL", Compute: "NN", Policy: p}.cell())
		for _, sc := range sweepScenes {
			want = append(want, jobSpec{GPU: "JetsonOrin", Scene: sc, Compute: "VIO", Policy: p}.cell())
		}
	}
	for _, c := range want {
		if _, ok := ref[c]; !ok {
			t.Errorf("reference.json has no entry for %q", c)
		}
	}
	if len(ref) != len(want) {
		t.Errorf("reference.json has %d cells, want %d", len(ref), len(want))
	}
}
