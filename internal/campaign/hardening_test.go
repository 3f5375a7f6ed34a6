package campaign

import (
	"context"
	"strings"
	"testing"
	"time"

	"mavfi/internal/qof"
)

func TestPanicIsolation(t *testing.T) {
	// Missions 3 and 7 panic; the campaign must complete with every other
	// mission's result intact and the panics reported with stacks.
	base := synthMission(11)
	mission := func(i int) qof.Metrics {
		if i == 3 || i == 7 {
			panic("mission blew up")
		}
		return base(i)
	}
	out, err := New(WithWorkers(4)).Run(context.Background(), "panicky", 16, mission)
	if err != nil {
		t.Fatal(err)
	}
	if out.Campaign.N() != 16 {
		t.Fatalf("campaign recorded %d missions, want all 16", out.Campaign.N())
	}
	if n := out.Campaign.CountOutcome(qof.Panicked); n != 2 {
		t.Fatalf("%d panicked outcomes, want 2", n)
	}
	if len(out.Panics) != 2 || out.Panics[0].Index != 3 || out.Panics[1].Index != 7 {
		t.Fatalf("panic reports %+v, want indices 3 and 7 in order", out.Panics)
	}
	for _, p := range out.Panics {
		if p.Value != "mission blew up" {
			t.Errorf("panic value %q", p.Value)
		}
		if !strings.Contains(p.Stack, "hardening_test.go") {
			t.Errorf("panic stack does not point at the panicking mission:\n%s", p.Stack)
		}
	}
	// The healthy missions' metrics must match an undisturbed run.
	ref, _ := New(WithWorkers(1)).Run(context.Background(), "ref", 16, base)
	for i := range out.Campaign.Results {
		if i == 3 || i == 7 {
			continue
		}
		if out.Campaign.Results[i] != ref.Campaign.Results[i] {
			t.Fatalf("mission %d result perturbed by sibling panics", i)
		}
	}
}

func TestMissionDeadline(t *testing.T) {
	base := synthMission(13)
	block := make(chan struct{})
	defer close(block)
	mission := func(i int) qof.Metrics {
		if i == 2 {
			<-block // hangs far past the deadline
		}
		return base(i)
	}
	// On a one-slot pool the abandoned mission's worker gives its slot back,
	// so the other missions still fly.
	for _, pool := range []*Slots{nil, NewSlots(1)} {
		out, err := New(WithWorkers(4), WithMissionDeadline(50*time.Millisecond), WithSlots(pool)).
			Run(context.Background(), "deadlined", 8, mission)
		if err != nil {
			t.Fatal(err)
		}
		if out.Campaign.N() != 8 {
			t.Fatalf("pool %v: campaign recorded %d missions, want all 8", pool != nil, out.Campaign.N())
		}
		if got := out.Campaign.Results[2].Outcome; got != qof.DeadlineExceeded {
			t.Fatalf("pool %v: hung mission outcome %v, want deadline-exceeded", pool != nil, got)
		}
		for i, m := range out.Campaign.Results {
			if i != 2 && m.Outcome == qof.DeadlineExceeded {
				t.Errorf("pool %v: fast mission %d hit the deadline", pool != nil, i)
			}
		}
	}
}

func TestDeadlinePanicStillIsolated(t *testing.T) {
	// A panic inside a deadline-guarded goroutine must surface as a Panicked
	// outcome, not kill the process.
	mission := func(i int) qof.Metrics {
		if i == 1 {
			panic("guarded panic")
		}
		return synthMission(17)(i)
	}
	out, err := New(WithWorkers(2), WithMissionDeadline(5*time.Second)).
		Run(context.Background(), "guarded", 4, mission)
	if err != nil {
		t.Fatal(err)
	}
	if n := out.Campaign.CountOutcome(qof.Panicked); n != 1 {
		t.Fatalf("%d panicked outcomes, want 1", n)
	}
	if len(out.Panics) != 1 || out.Panics[0].Index != 1 {
		t.Fatalf("panic reports %+v", out.Panics)
	}
}

func TestNoDeadlineMatchesDirectCall(t *testing.T) {
	// Without a deadline the runner must call missions inline — bit-identical
	// aggregates to the pre-hardening engine.
	base := synthMission(19)
	a, _ := New(WithWorkers(3)).Run(context.Background(), "a", 32, base)
	b, _ := New(WithWorkers(3), WithMissionDeadline(0)).Run(context.Background(), "b", 32, base)
	for i := range a.Campaign.Results {
		if a.Campaign.Results[i] != b.Campaign.Results[i] {
			t.Fatalf("mission %d differs with a zero deadline", i)
		}
	}
}
