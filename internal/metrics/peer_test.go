package metrics

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestPeerScorer drives the scorer round by round against a caller that
// applies every verdict to its members' standing, as railmgr and cluster do.
// Decay 1 makes each estimate the latest sample, so ratios are exact.
func TestPeerScorer(t *testing.T) {
	base := PeerRule{Decay: 1, SuspectBelow: 0.7, DegradeBelow: 0.45, ClearAbove: 0.85,
		SuspectAfter: 2, ClearAfter: 2, MinSamples: 1}
	x := math.NaN() // no sample this round

	type round struct {
		rates  []float64 // per member; NaN observes nothing
		reset  int       // member to Reset before observing; -1 none
		judged bool      // Score's result
		want   string    // verdicts issued, "member:standing" space-separated
		ratio  []float64 // Ratio per member after the round; nil skips
	}
	r := func(rates []float64, judged bool, want string) round {
		return round{rates: rates, reset: -1, judged: judged, want: want}
	}
	for _, c := range []struct {
		name   string
		rule   func(*PeerRule)
		start  []Standing // initial standing per member; nil: all trusted
		rounds []round
	}{
		{name: "min samples admission",
			rule: func(r *PeerRule) { r.MinSamples = 2 },
			rounds: []round{
				r([]float64{10, 10, 1}, false, ""),
				{rates: []float64{10, 10, x}, reset: -1, judged: true, ratio: []float64{1, 1, 1}},
				r([]float64{10, 10, 1}, true, ""),
				r([]float64{10, 10, 1}, true, "2:suspect"),
			}},
		{name: "cohort of one",
			start: []Standing{PeerTrusted, PeerAbsent},
			rounds: []round{
				r([]float64{10, 1}, false, ""),
				{rates: []float64{10, 1}, reset: -1, ratio: []float64{1, 1}},
			}},
		{name: "zero median changes nothing",
			rounds: []round{
				r([]float64{10, 10, 1}, true, ""),
				{rates: []float64{0, 0, 1}, reset: -1, ratio: []float64{1, 1, 0.1}},
				r([]float64{10, 10, 1}, true, "2:suspect"),
			}},
		{name: "hysteresis counts reset inside the band",
			rounds: []round{
				r([]float64{10, 10, 5}, true, ""),
				r([]float64{10, 10, 8}, true, ""), // in band: breach run ends
				r([]float64{10, 10, 5}, true, ""),
				r([]float64{10, 10, 5}, true, "2:suspect"),
				r([]float64{10, 10, 9}, true, ""),
				r([]float64{10, 10, 8}, true, ""), // in band: clear run ends
				r([]float64{10, 10, 9}, true, ""),
				r([]float64{10, 10, 9}, true, "2:trusted"),
			}},
		{name: "escalation below DegradeBelow",
			rounds: []round{
				r([]float64{10, 10, 3}, true, ""),
				r([]float64{10, 10, 3}, true, "2:suspect"),
				r([]float64{10, 10, 3}, true, ""),
				r([]float64{10, 10, 3}, true, "2:degraded"),
				r([]float64{10, 10, 9}, true, ""),
				r([]float64{10, 10, 9}, true, "2:trusted"),
			}},
		{name: "no escalation with DegradeBelow 0",
			rule: func(r *PeerRule) { r.DegradeBelow = 0 },
			rounds: []round{
				r([]float64{10, 10, 3}, true, ""),
				r([]float64{10, 10, 3}, true, "2:suspect"),
				r([]float64{10, 10, 3}, true, ""),
				r([]float64{10, 10, -3}, true, ""), // a negative ratio is not
				r([]float64{10, 10, -3}, true, ""), // below a zero DegradeBelow
				r([]float64{10, 10, 9}, true, ""),
				r([]float64{10, 10, 9}, true, "2:trusted"),
			}},
		{name: "witness is evidence but never judged",
			start: []Standing{PeerTrusted, PeerTrusted, PeerWitness},
			rounds: []round{
				// Median 4 with the witness; 7 without, which would
				// convict member 1 at 0.57.
				r([]float64{10, 4, 1}, true, ""),
				{rates: []float64{10, 4, 1}, reset: -1, judged: true, ratio: []float64{2.5, 1, 0.25}},
			}},
		{name: "reset forgets estimates and counters",
			rule: func(r *PeerRule) { r.MinSamples = 2 },
			rounds: []round{
				r([]float64{10, 10, 5}, false, ""),
				r([]float64{10, 10, 5}, true, ""), // member 2: one breach
				{rates: []float64{10, 10, 5}, reset: 2, judged: true, ratio: []float64{1, 1, 1}},
				r([]float64{10, 10, 5}, true, ""), // a fresh run of one
				r([]float64{10, 10, 5}, true, "2:suspect"),
			}},
	} {
		t.Run(c.name, func(t *testing.T) {
			rule := base
			if c.rule != nil {
				c.rule(&rule)
			}
			n := len(c.rounds[0].rates)
			standing := make([]Standing, n)
			for i := range standing {
				standing[i] = PeerTrusted
			}
			copy(standing, c.start)
			s := NewPeerScorer(n, rule)
			names := map[Standing]string{PeerTrusted: "trusted", PeerSuspect: "suspect", PeerDegraded: "degraded"}
			for k, rd := range c.rounds {
				if rd.reset >= 0 {
					s.Reset(rd.reset)
				}
				for i, v := range rd.rates {
					if !math.IsNaN(v) {
						s.ObserveRate(i, v)
					}
				}
				var got []string
				judged := s.Score(func(i int) Standing { return standing[i] }, func(i int, to Standing) {
					standing[i] = to
					got = append(got, fmt.Sprintf("%d:%s", i, names[to]))
				})
				if judged != rd.judged {
					t.Errorf("round %d: Score = %v, want %v", k, judged, rd.judged)
				}
				if g := strings.Join(got, " "); g != rd.want {
					t.Errorf("round %d: verdicts %q, want %q", k, g, rd.want)
				}
				for i, want := range rd.ratio {
					if g := s.Ratio(i); g != want {
						t.Errorf("round %d: Ratio(%d) = %g, want %g", k, i, g, want)
					}
				}
			}
		})
	}
}

// TestPeerScorerReusesScratch: a steady round allocates nothing.
func TestPeerScorerReusesScratch(t *testing.T) {
	s := NewPeerScorer(8, PeerRule{Decay: 0.3, SuspectBelow: 0.5, ClearAbove: 0.8,
		SuspectAfter: 2, ClearAfter: 2, MinSamples: 1})
	standing := func(int) Standing { return PeerTrusted }
	verdict := func(int, Standing) {}
	for i := 0; i < 8; i++ {
		s.ObserveRate(i, float64(10+i))
	}
	s.Score(standing, verdict)
	if a := testing.AllocsPerRun(100, func() { s.Score(standing, verdict) }); a != 0 {
		t.Fatalf("Score allocates %v per round, want 0", a)
	}
}
