package fault_test

import (
	"fmt"
	"testing"
	"time"

	"dualpar/internal/cluster"
	"dualpar/internal/fault"
)

// TestNodeCrashedOnClusterNodes asks a cluster-bound injector about every
// kind of node before, during and after its crash windows. Only the node of
// a crashed data server reports a crash, and only while its window is
// active: data server i lives on node 1+i, so node 3 is server 2 and node 4
// is server 3.
func TestNodeCrashedOnClusterNodes(t *testing.T) {
	cfg := cluster.DefaultConfig()
	cfg.DataServers = 4
	cfg.ComputeNodes = 2
	cfg.Faults = &fault.Schedule{Windows: []fault.Window{
		{Kind: fault.ServerCrash, Target: 2, Start: time.Second, End: 2 * time.Second},
		{Kind: fault.ServerCrash, Target: 3, Start: 1200 * time.Millisecond}, // never recovers
	}}
	inj := cluster.New(cfg).Faults()
	before, during, after := 500*time.Millisecond, 1500*time.Millisecond, 2500*time.Millisecond
	cases := []struct {
		name                  string
		node                  int
		before, during, after bool
	}{
		{name: "meta", node: 0},
		{name: "server0", node: 1},
		{name: "server1", node: 2},
		{name: "server2", node: 3, during: true},
		{name: "server3", node: 4, during: true, after: true},
		{name: "past last server", node: 5},
		{name: "client0", node: cluster.ComputeNodeBase},
		{name: "client1", node: cluster.ComputeNodeBase + 1},
		{name: "far past every node", node: 1 << 20},
		{name: "negative", node: -1},
	}
	for _, c := range cases {
		for _, q := range []struct {
			at   time.Duration
			want bool
		}{{before, c.before}, {during, c.during}, {after, c.after}} {
			if got := inj.NodeCrashed(c.node, q.at); got != q.want {
				t.Errorf("%s (node %d) at %v: NodeCrashed = %v, want %v", c.name, c.node, q.at, got, q.want)
			}
		}
	}
}

// TestBindServerNodesRejectsSharedNode: one network node hosts at most one
// data server, so binding a node twice is a configuration bug.
func TestBindServerNodesRejectsSharedNode(t *testing.T) {
	inj := fault.NewInjector(nil, &fault.Schedule{}, 1)
	defer func() {
		if r := recover(); r == nil || fmt.Sprint(r) != "fault: node 2 bound to servers 1 and 3" {
			t.Fatalf("recovered %v, want the shared-node panic", r)
		}
	}()
	inj.BindServerNodes([]int{1, 2, 3, 2})
}
