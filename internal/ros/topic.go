package ros

import "fmt"

// Topic is a typed one-to-many communication channel. Messages flow through
// the interceptor chain (in registration order) before reaching subscribers.
// Interceptors are how the MAVFI injector corrupts inter-kernel states in
// transit.
type Topic[T any] struct {
	name         string
	graph        *Graph
	subs         []subscription[T]
	interceptors []Interceptor[T]
}

// Interceptor transforms (or merely observes) a message in transit. The
// returned message is what downstream interceptors and subscribers see.
type Interceptor[T any] func(msg T) T

type subscription[T any] struct {
	node *Node
	cb   func(T)
}

// OpenTopic returns the topic with the given name, creating it on first use.
// Opening an existing name with a different message type panics, like a ROS
// type mismatch.
func OpenTopic[T any](g *Graph, name string) *Topic[T] {
	if h, ok := g.topics[name]; ok {
		t, ok := h.(*Topic[T])
		if !ok {
			panic(fmt.Sprintf("ros: topic %q reopened with mismatched type", name))
		}
		return t
	}
	t := &Topic[T]{name: name, graph: g}
	g.topics[name] = t
	return t
}

// Subscribe registers cb to receive every message published on the topic.
// The subscribing node is the crash domain: a panic inside cb is recovered
// by the master and logged against node.
func (t *Topic[T]) Subscribe(node *Node, cb func(T)) {
	t.subs = append(t.subs, subscription[T]{node: node, cb: cb})
}

// Intercept appends an interceptor to the topic's chain.
func (t *Topic[T]) Intercept(ic Interceptor[T]) {
	t.interceptors = append(t.interceptors, ic)
}

// Publish sends msg through the interceptor chain and then delivers it to
// every subscriber, synchronously and in subscription order.
func (t *Topic[T]) Publish(msg T) {
	for _, ic := range t.interceptors {
		msg = ic(msg)
	}
	for i := range t.subs {
		t.deliver(&t.subs[i], msg)
	}
}

// deliver runs one subscriber callback inside its node's crash guard. A
// panic is recovered and logged against the node with the reason
// "topic <name>: <panic>", and Publish goes on to the next subscriber. The
// reason is formatted only in the recover branch, so a delivery that does
// not panic allocates nothing.
func (t *Topic[T]) deliver(s *subscription[T], msg T) {
	defer func() {
		if r := recover(); r != nil {
			t.graph.CrashLog = append(t.graph.CrashLog, CrashRecord{
				Node:   s.node.name,
				Reason: fmt.Sprintf("topic %s: %v", t.name, r),
			})
		}
	}()
	s.cb(msg)
}
