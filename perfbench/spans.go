package main

import (
	"sort"
	"time"
)

// span is one timed call across a layer boundary, recorded from the
// benchmark's side of the call. Times are nanoseconds since the recording
// process's tracer was created; Parent is 0 for a root span. Spans of one
// request share Req.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    string `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; the process hands them to the parent when
// its iteration ends. A disabled tracer records nothing and returns span
// id 0. It is used from one goroutine.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name, req string, parent int) int {
	if !t.on {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: int64(time.Since(t.epoch))})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	t.spans[id-1].End = int64(time.Since(t.epoch))
}

// selfTimes returns each span's self time in nanoseconds, keyed by span
// id: its duration minus the part of its interval that the union of its
// children's intervals covers. Overlapping children are counted once and
// a child sticking out of its parent counts only inside it.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered is how much of [lo, hi) the union of the spans' intervals covers.
func covered(lo, hi int64, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.End, hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfByName sums self time in seconds per span name.
func selfByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += float64(self[s.ID]) / 1e9
	}
	return out
}

// seconds is span id's duration; 0 for a disabled tracer.
func (t *tracer) seconds(id int) float64 {
	if id == 0 {
		return 0
	}
	s := t.spans[id-1]
	return float64(s.End-s.Start) / 1e9
}
