package fluid

import (
	"runtime"
	"testing"
	"time"
)

// churnNetwork builds a 64-resource mesh carrying nMembers member streams,
// either as one solver flow each (flat) or pooled into flow classes of
// classSize members, the way the cluster pools same-route jobs.
func churnNetwork(nMembers, classSize int) (*Network, []*Flow) {
	n := NewNetwork()
	rs := make([]*Resource, 64)
	for i := range rs {
		rs[i] = n.AddResource("r", 1e9+float64(i))
	}
	flows := make([]*Flow, 0, nMembers/classSize)
	for i := 0; i < nMembers/classSize; i++ {
		f := n.NewFlowClass("c", 1e12, classSize)
		for j := 0; j < 4; j++ {
			f.Use(rs[(i*13+j*17)%len(rs)], 0.2+float64(j)*0.1)
		}
		flows = append(flows, f)
	}
	n.Resolve()
	return n, flows
}

// churnOp drops one flow's demand to 1 (even i) and restores it to 1e12
// (odd i, same flow), then resolves. Either way min(old, new) is at or
// below the flow's solved rate, so every op is a binding change that runs a
// bottleneck-subgraph refill rather than the non-binding fast path.
func churnOp(n *Network, flows []*Flow) func(i int) {
	return func(i int) {
		f := flows[(i/2)%len(flows)]
		if i%2 == 0 {
			n.SetDemand(f, 1)
		} else {
			n.SetDemand(f, 1e12)
		}
		n.Resolve()
	}
}

// nsPerOp times ops calls of op.
func nsPerOp(ops int, op func(int)) float64 {
	start := time.Now()
	for i := 0; i < ops; i++ {
		op(i)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(ops)
}

// TestClassChurnSpeedup100k: at 100k member streams, a binding demand
// toggle on the class-pooled network is at least 10× cheaper than on the
// flat one-flow-per-member network, and each classed toggle is exactly one
// partial solve with no full solve and no allocation.
func TestClassChurnSpeedup100k(t *testing.T) {
	const members, classSize = 100_000, 100

	flat, flatFlows := churnNetwork(members, 1)
	flatNs := nsPerOp(20, churnOp(flat, flatFlows))
	flat, flatFlows = nil, nil
	runtime.GC() // release the flat population before building the classes

	cn, classes := churnNetwork(members, classSize)
	op := churnOp(cn, classes)
	classNs := nsPerOp(400, op)
	t.Logf("flat %.0f ns/op, classed %.0f ns/op: %.1fx", flatNs, classNs, flatNs/classNs)
	if speedup := flatNs / classNs; speedup < 10 {
		t.Fatalf("classed churn %.0f ns/op vs flat %.0f ns/op: %.1fx, want >= 10x",
			classNs, flatNs, speedup)
	}

	i := 400
	for k := 0; k < 10; k++ {
		before := cn.Stats()
		op(i)
		i++
		after := cn.Stats()
		if after.PartialSolves != before.PartialSolves+1 || after.FullSolves != before.FullSolves {
			t.Fatalf("classed toggle: stats %+v -> %+v, want one partial and no full solve",
				before, after)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { op(i); i++ }); allocs != 0 {
		t.Fatalf("classed toggle allocates %v per op, want 0", allocs)
	}
}
