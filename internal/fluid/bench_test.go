package fluid

import (
	"math"
	"testing"

	"e2edt/internal/sim"
)

// benchNetwork builds a topology similar in scale to the full LAN system:
// ~200 resources, nFlows flows with ~12 usages each.
func benchNetwork(nFlows int) *Network {
	n := NewNetwork()
	resources := make([]*Resource, 200)
	for i := range resources {
		resources[i] = n.AddResource("r", 1e9+float64(i))
	}
	for i := 0; i < nFlows; i++ {
		f := n.NewFlow("f", math.Inf(1))
		for j := 0; j < 12; j++ {
			f.Use(resources[(i*13+j*17)%len(resources)], 0.2+float64(j)*0.1)
		}
	}
	return n
}

func BenchmarkSolve8Flows(b *testing.B) {
	n := benchNetwork(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Solve()
	}
}

func BenchmarkSolve64Flows(b *testing.B) {
	n := benchNetwork(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Solve()
	}
}

// benchChurnSim builds a Sim carrying nFlows concurrent open-ended
// transfers across a 64-resource mesh, the topology shape of the class
// churn test (churn_test.go).
func benchChurnSim(nFlows int) (*sim.Engine, *Sim, []*Flow) {
	eng := sim.NewEngine()
	s := NewSim(eng)
	resources := make([]*Resource, 64)
	for i := range resources {
		resources[i] = s.AddResource("r", 1e9+float64(i))
	}
	flows := make([]*Flow, nFlows)
	for i := range flows {
		f := s.NewFlow("f", 2e9)
		for j := 0; j < 8; j++ {
			f.Use(resources[(i*13+j*17)%len(resources)], 0.2+float64(j)*0.1)
		}
		flows[i] = f
		s.Start(&Transfer{Flow: f, Remaining: math.Inf(1)})
	}
	return eng, s, flows
}

// BenchmarkDemandChurn1kFlows measures one credit-loop style demand update
// against 1000 concurrent flows — the Sim.reschedule hot path the
// incremental solver optimizes.
func BenchmarkDemandChurn1kFlows(b *testing.B) {
	_, s, flows := benchChurnSim(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := flows[i%len(flows)]
		if i%2 == 0 {
			s.SetDemand(f, 3e9)
		} else {
			s.SetDemand(f, 2e9)
		}
	}
}

func BenchmarkTransferChurn(b *testing.B) {
	// Start/complete cycles exercise the event-integration hot path.
	eng := sim.NewEngine()
	s := NewSim(eng)
	link := s.AddResource("link", 1e9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := s.NewFlow("f", math.Inf(1))
		f.Use(link, 1)
		s.Start(&Transfer{Flow: f, Remaining: 1e6})
		eng.Run()
	}
}
