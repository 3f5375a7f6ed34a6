package ros

import (
	"slices"
	"testing"

	"mavfi/internal/testutil"
)

func TestPubSubImmediate(t *testing.T) {
	g := NewGraph()
	n := g.NewNode("sub")
	topic := OpenTopic[int](g, "/t")
	var got []int
	topic.Subscribe(n, func(v int) { got = append(got, v) })
	topic.Publish(1)
	topic.Publish(2)
	if !slices.Equal(got, []int{1, 2}) {
		t.Errorf("got %v", got)
	}
}

func TestFanOutOrder(t *testing.T) {
	g := NewGraph()
	topic := OpenTopic[string](g, "/t")
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		n := g.NewNode(name)
		nm := name
		topic.Subscribe(n, func(string) { order = append(order, nm) })
	}
	topic.Publish("x")
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Errorf("delivery order %v", order)
	}
}

func TestOpenTopicTypeMismatchPanics(t *testing.T) {
	g := NewGraph()
	first := OpenTopic[int](g, "/t")
	// Reopening the same typed topic returns the same instance.
	if OpenTopic[int](g, "/t") != first {
		t.Error("OpenTopic not idempotent")
	}
	defer func() {
		if recover() == nil {
			t.Error("no panic on type mismatch")
		}
	}()
	OpenTopic[string](g, "/t")
}

func TestDuplicateNodePanics(t *testing.T) {
	g := NewGraph()
	g.NewNode("x")
	defer func() {
		if recover() == nil {
			t.Error("no panic on duplicate node")
		}
	}()
	g.NewNode("x")
}

func TestInterceptorChainOrder(t *testing.T) {
	g := NewGraph()
	n := g.NewNode("sub")
	topic := OpenTopic[int](g, "/t")
	var got []int
	topic.Subscribe(n, func(v int) { got = append(got, v) })

	topic.Intercept(func(v int) int { return v * 10 })
	topic.Intercept(func(v int) int { return v + 1 })

	topic.Publish(1) // → 10 → 11; the reverse order would give 20
	topic.Publish(3) // → 30 → 31
	if !slices.Equal(got, []int{11, 31}) {
		t.Errorf("got %v", got)
	}
}

func TestCrashRecoveryAndRestart(t *testing.T) {
	g := NewGraph()
	topic := OpenTopic[int](g, "/t")
	calls := 0
	topic.Subscribe(g.NewNode("crashy"), func(v int) {
		calls++
		if v < 0 {
			panic("negative input")
		}
	})
	var steady []int
	topic.Subscribe(g.NewNode("steady"), func(v int) { steady = append(steady, v) })

	topic.Publish(1)
	topic.Publish(-1) // crashes "crashy"; the master recovers, delivery goes on
	topic.Publish(2)  // the crashed node keeps receiving
	if calls != 3 {
		t.Errorf("calls = %d", calls)
	}
	if !slices.Equal(steady, []int{1, -1, 2}) {
		t.Errorf("second subscriber got %v", steady)
	}
	want := []CrashRecord{{Node: "crashy", Reason: "topic /t: negative input"}}
	if !slices.Equal(g.CrashLog, want) {
		t.Errorf("crash log %v, want %v", g.CrashLog, want)
	}
}

// TestPublishAllocFree pins that a delivery which does not panic allocates
// nothing: the crash reason is built only when a callback panics.
func TestPublishAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counts are meaningless under -race instrumentation")
	}
	g := NewGraph()
	topic := OpenTopic[int](g, "/t")
	sum := 0
	topic.Subscribe(g.NewNode("sub"), func(v int) { sum += v })
	topic.Intercept(func(v int) int { return v + 1 })
	if allocs := testing.AllocsPerRun(100, func() { topic.Publish(1) }); allocs != 0 {
		t.Fatalf("Publish allocates %v objects per message, want 0", allocs)
	}
	if sum == 0 {
		t.Fatal("subscriber never ran")
	}
}
