// Package ros implements the in-process middleware substrate the MAVFI
// reproduction runs on. It mirrors the subset of ROS semantics the paper's
// mission loop relies on:
//
//   - Nodes, each hosting one compute kernel. A node is a crash domain: a
//     panic inside one of its callbacks is recovered, logged against the
//     node in the graph's CrashLog, and the node keeps receiving. This
//     matches the paper's observation that "the ROS master node would
//     restart the node automatically if it crashes" — which is why MAVFI
//     focuses on SDCs rather than crashes.
//   - Topics: typed one-to-many publish/subscribe channels.
//   - Interceptors: hooks on topics, which is how the MAVFI injector
//     corrupts inter-kernel states in transit (Fig. 4 mode).
//
// Delivery is synchronous and deterministic: Publish runs the interceptor
// chain in registration order, then every subscriber callback in
// subscription order, before it returns. Determinism is essential for
// reproducible fault-injection campaigns.
package ros

import "fmt"

// Graph is the ROS computation graph: the master's registry of nodes and
// topics, and its log of recovered crashes. A Graph is not safe for
// concurrent use; the simulator drives it from a single goroutine, which is
// what makes campaigns reproducible.
type Graph struct {
	nodes  map[string]struct{} // registered names, for the duplicate check
	topics map[string]any      // *Topic[T] by name

	// CrashLog records every node crash the master observed and recovered.
	CrashLog []CrashRecord
}

// CrashRecord describes one node crash the master recovered from.
type CrashRecord struct {
	Node   string
	Reason string
}

// Node is a participant in the graph, typically hosting one PPC compute
// kernel (the paper's "each ROS node comprises a single compute kernel"),
// and the crash domain a CrashRecord names.
type Node struct {
	name string
}

// NewGraph creates an empty graph.
func NewGraph() *Graph {
	return &Graph{nodes: make(map[string]struct{}), topics: make(map[string]any)}
}

// NewNode registers a node with the master. Node names must be unique.
func (g *Graph) NewNode(name string) *Node {
	if _, dup := g.nodes[name]; dup {
		panic(fmt.Sprintf("ros: duplicate node name %q", name))
	}
	g.nodes[name] = struct{}{}
	return &Node{name: name}
}
