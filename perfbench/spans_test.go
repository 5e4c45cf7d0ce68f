package main

import "testing"

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "a", Start: 20, End: 50}, // overlaps span 2
		{ID: 4, Parent: 1, Name: "b", Start: 60, End: 70},
		{ID: 5, Parent: 1, Name: "b", Start: 90, End: 120}, // sticks out of root
		{ID: 6, Parent: 4, Name: "c", Start: 62, End: 66},  // grandchild
	}
	self := selfTimes(spans)
	// Root: 100 minus the union [10,50)+[60,70)+[90,100) = 60.
	want := map[int]int64{1: 40, 2: 20, 3: 30, 4: 6, 5: 30, 6: 4}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	var sum int64
	for _, v := range self {
		sum += v
	}
	// Self times add up to the root's duration plus what the children
	// count twice: the overlap of spans 2 and 3, and the part of span 5
	// outside the root. Properly nested, sequential spans add up exactly.
	if sum != 100+10+20 {
		t.Errorf("self times sum to %d, want 130", sum)
	}
	byName := selfByName(spans)
	if got := byName["a"]; got != 50e-9 {
		t.Errorf("self time of a = %v s, want 50 ns", got)
	}
}

func TestTracerDisabledRecordsNothing(t *testing.T) {
	tr := newTracer(false)
	id := tr.begin("x", "r", 0)
	tr.end(id)
	if id != 0 || len(tr.spans) != 0 || tr.seconds(id) != 0 {
		t.Fatalf("disabled tracer recorded span %d, %d spans", id, len(tr.spans))
	}
}

func TestTracerNests(t *testing.T) {
	tr := newTracer(true)
	root := tr.begin("root", "r", 0)
	kid := tr.begin("kid", "r", root)
	tr.end(kid)
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root {
		t.Fatalf("spans = %+v", tr.spans)
	}
	for _, s := range tr.spans {
		if s.End < s.Start {
			t.Errorf("span %d ends before it starts", s.ID)
		}
	}
	self := selfTimes(tr.spans)
	if self[root]+self[kid] != tr.spans[0].End-tr.spans[0].Start {
		t.Errorf("root and child self times do not add up to the root's duration")
	}
}
