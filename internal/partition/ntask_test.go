package partition

import (
	"testing"

	"crisp/internal/config"
	"crisp/internal/sm"
)

func TestSMGroupsCoverAllSMs(t *testing.T) {
	for _, tasks := range []int{2, 3, 4} {
		p, err := NewSMGroups(14, tasks)
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int, tasks)
		for s := 0; s < 14; s++ {
			owner := -1
			for task := 0; task < tasks; task++ {
				if p.AllowSM(s, task) {
					if owner >= 0 {
						t.Fatalf("tasks=%d: SM %d owned twice", tasks, s)
					}
					owner = task
				}
			}
			if owner < 0 {
				t.Fatalf("tasks=%d: SM %d unowned", tasks, s)
			}
			counts[owner]++
		}
		for task, c := range counts {
			if c < 14/tasks-1 || c > 14/tasks+1 {
				t.Errorf("tasks=%d: task %d got %d SMs", tasks, task, c)
			}
		}
	}
	if _, err := NewSMGroups(4, 8); err == nil {
		t.Error("more groups than SMs accepted")
	}
	p, _ := NewSMGroups(14, 3)
	if p.AllowSM(0, 5) || p.AllowSM(0, -1) {
		t.Error("out-of-range task allowed")
	}
}

func TestFGNSplitsEvenly(t *testing.T) {
	g := newGPU(t, config.JetsonOrin())
	p, err := NewFGN(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	full := sm.Full(g.Config())
	for task := 0; task < 4; task++ {
		if !p.AllowSM(7, task) {
			t.Errorf("task %d not allowed", task)
		}
		lim, ok := p.Limit(0, task)
		if !ok || lim.Threads != full.Threads/4 {
			t.Errorf("task %d limit = %+v", task, lim)
		}
	}
	if _, ok := p.Limit(0, 4); ok {
		t.Error("task 4 got a limit")
	}
	if _, err := NewFGN(g, 0); err == nil {
		t.Error("zero tasks accepted")
	}
}

func TestPriorityEvenOrdering(t *testing.T) {
	g := newGPU(t, config.JetsonOrin())
	p, err := NewPriorityEvenN(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Priority(0) <= p.Priority(1) {
		t.Error("graphics must outrank compute")
	}
	if p.Name() != "PriorityEven" {
		t.Errorf("name = %s", p.Name())
	}
	// Limits are the EVEN split.
	full := sm.Full(g.Config())
	lim, ok := p.Limit(0, 0)
	if !ok || lim.Threads != full.Threads/2 {
		t.Errorf("limit = %+v", lim)
	}
}
