package faults

import (
	"fmt"
	"math"
	"sort"

	"e2edt/internal/fabric"
	"e2edt/internal/sim"
)

// Validate rejects plans whose windows overlap or contradict each other on
// the same target — schedules that would otherwise resolve by silent
// last-writer-wins and produce a run that tests nothing anyone intended:
//
//   - two outage windows overlapping on one link (a LinkFail before the
//     previous outage's LinkRestore);
//   - degrading, gray-sagging, jittering or loss-injecting a link strictly
//     inside one of its outage windows (the link is dark; the injection is
//     dead code until the restore rewrites it);
//   - two outage windows overlapping on one host, on one top-stage
//     switch, or two limp windows on one host;
//   - crash-stopping a host strictly inside one of its LimpHost windows
//     (the limp's recovery edge would fire on a corpse);
//   - opening a control-plane partition while one is already open.
//
// Boundary-touching windows (one ends exactly where the next begins) are
// allowed. Validate does not mutate the plan; events are examined in time
// order regardless of insertion order.
func (p *Plan) Validate() error {
	if p.Empty() {
		return nil
	}
	evs := make([]Event, len(p.Events))
	copy(evs, p.Events)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })

	inf := sim.Time(math.Inf(1))
	type window struct{ from, to sim.Time }
	// target keys an outage: its link, or its host or top-stage switch id
	// under the kind that opens it.
	type target struct {
		link *fabric.Link
		kind Kind
		id   int
	}
	outage := func(ev Event) target {
		switch ev.Kind {
		case HostFail, HostRestore, LimpHost:
			return target{kind: HostFail, id: ev.Host}
		case SpineFail, SpineRestore:
			return target{kind: SpineFail, id: ev.Host}
		}
		return target{link: ev.Link}
	}
	out := map[target]*window{}   // open outage per link, host or switch
	hostLimp := map[int]*window{} // open limp per host
	var partOpen *window

	for _, ev := range evs {
		switch ev.Kind {
		case LinkFail, HostFail, SpineFail:
			key := outage(ev)
			if w := out[key]; w != nil && ev.At < w.to {
				return fmt.Errorf("faults: %s fails at %gs inside an outage window [%gs, %gs)",
					ev.target(), float64(ev.At), float64(w.from), float64(w.to))
			}
			if w := hostLimp[ev.Host]; ev.Kind == HostFail && w != nil && ev.At > w.from && ev.At < w.to {
				return fmt.Errorf("faults: host %d crash-stops at %gs inside a limp window [%gs, %gs) — killing a host whose limp is scheduled to recover",
					ev.Host, float64(ev.At), float64(w.from), float64(w.to))
			}
			out[key] = &window{from: ev.At, to: inf}
		case LinkRestore, HostRestore, SpineRestore:
			if w := out[outage(ev)]; w != nil && w.to == inf {
				w.to = ev.At
			}
		case LinkDegrade, GraySlow, GrayJitter, SilentLoss, ErrorBurst, Corrupt:
			if w := out[outage(ev)]; w != nil && ev.At > w.from && ev.At < w.to {
				return fmt.Errorf("faults: %s on link %s at %gs falls inside an outage window [%gs, %gs) — the link is dark",
					ev.Kind, ev.Link.Cfg.Name, float64(ev.At), float64(w.from), float64(w.to))
			}
		case LimpHost:
			if ev.Fraction >= 1 { // recovery edge closes the open limp
				if w := hostLimp[ev.Host]; w != nil && w.to == inf {
					w.to = ev.At
				}
				continue
			}
			if w := hostLimp[ev.Host]; w != nil && ev.At < w.to {
				return fmt.Errorf("faults: host %d limps at %gs inside a limp window [%gs, %gs)",
					ev.Host, float64(ev.At), float64(w.from), float64(w.to))
			}
			if w := out[outage(ev)]; w != nil && ev.At > w.from && ev.At < w.to {
				return fmt.Errorf("faults: host %d limps at %gs inside an outage window [%gs, %gs) — the host is down",
					ev.Host, float64(ev.At), float64(w.from), float64(w.to))
			}
			hostLimp[ev.Host] = &window{from: ev.At, to: inf}
		case PartitionStart:
			if partOpen != nil && ev.At < partOpen.to {
				return fmt.Errorf("faults: partition opens at %gs while one from %gs is still open",
					float64(ev.At), float64(partOpen.from))
			}
			partOpen = &window{from: ev.At, to: inf}
		case PartitionHeal:
			if partOpen != nil && partOpen.to == inf {
				partOpen.to = ev.At
			}
		}
	}
	return nil
}
