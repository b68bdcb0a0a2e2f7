// Package fabric models network links, NICs and switches connecting hosts.
//
// A link is full-duplex: each direction is an independent fluid resource, so
// bi-directional transfers (Figure 11) contend only for host-side resources,
// not for raw link bandwidth. Every link endpoint is a NIC — a DMA-capable
// PCIe device with a NUMA home node — so traffic into a buffer on the remote
// socket crosses the interconnect exactly as it would on real hardware.
//
// Propagation delay gives wide-area links their bandwidth-delay product: the
// DOE ANI loop in the paper is a 40 Gbps RoCE path with a 95 ms RTT and a
// BDP close to 500 MB, which starves window- or credit-limited protocols.
package fabric

import (
	"fmt"
	"slices"

	"e2edt/internal/fluid"
	"e2edt/internal/host"
	"e2edt/internal/numa"
	"e2edt/internal/sim"
)

// Config describes one physical link.
type Config struct {
	Name string
	// Rate is the line rate in bytes/second per direction.
	Rate float64
	// RTT is the round-trip propagation time.
	RTT sim.Duration
	// MTU and HeaderBytes determine framing efficiency: payload capacity is
	// Rate × MTU/(MTU+HeaderBytes). Zero MTU means no framing overhead.
	MTU         int
	HeaderBytes int
}

// Efficiency returns the fraction of the line rate available to payload.
func (c Config) Efficiency() float64 {
	if c.MTU <= 0 || c.HeaderBytes <= 0 {
		return 1
	}
	return float64(c.MTU) / float64(c.MTU+c.HeaderBytes)
}

// EventKind classifies link state transitions reported to watchers.
type EventKind int

const (
	// EventDown: the link failed (capacity dropped to zero).
	EventDown EventKind = iota
	// EventUp: the link was restored.
	EventUp
	// EventDegraded: the link's capacity fraction changed without the link
	// going dark (Degrade).
	EventDegraded
	// EventErrorBurst: a transient error burst crossed the link — capacity
	// is untouched, but reliable connections riding the link see error
	// completions (RFTP streams declare their window lost).
	EventErrorBurst
	// EventCorruption: a silent bit flip passed the link-layer CRC — the
	// block in flight arrives corrupt with no link-level indication.
	// Capacity and reliable-connection state are untouched; only an
	// end-to-end integrity check above the fabric can catch it.
	EventCorruption
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EventDown:
		return "down"
	case EventUp:
		return "up"
	case EventDegraded:
		return "degraded"
	case EventCorruption:
		return "corruption"
	default:
		return "error-burst"
	}
}

// Event is a link state transition delivered to Watch callbacks.
type Event struct {
	Kind EventKind
	// Fraction is the link's current capacity fraction (1 = healthy,
	// 0 = dark) after the transition.
	Fraction float64
}

// Link is a full-duplex connection between two NICs.
type Link struct {
	Cfg Config
	// A and B are the endpoint NICs (DMA devices on their hosts).
	A, B *host.Device
	// aToB and bToA are the directional bandwidth resources.
	aToB, bToA *fluid.Resource
	sim        *fluid.Sim
	eng        *sim.Engine
	failed     bool
	// degrade is the healthy-capacity multiplier set by Degrade; 1 means
	// full rate. It survives Fail/Restore cycles so repair ends at the
	// configured (possibly degraded) rate.
	degrade float64
	// graySag is a hidden capacity multiplier (1 = none): a gray failure's
	// rate sag injected below the link layer's visibility. Watchers are not
	// notified and Fraction() does not report it — only end-to-end
	// measurement can see a gray-sagged rail.
	graySag float64
	// watchers are the registered callbacks in registration order; an
	// unwatched entry has a nil fn until notify finishes and compacts it.
	// notifying is notify's nesting depth, watchSeq the last watcher id.
	watchers  []watcher
	notifying int
	watchSeq  uint64
	// Drops counts control messages dropped because the link was dark.
	Drops int64
}

// Connect creates a link between a NIC on host ha (PCIe slot on node na) and
// a NIC on host hb (node nb).
func Connect(s *fluid.Sim, cfg Config, ha *host.Host, na *numa.Node, hb *host.Host, nb *numa.Node) *Link {
	if cfg.Rate <= 0 {
		panic(fmt.Sprintf("fabric: link %s needs positive rate", cfg.Name))
	}
	if cfg.RTT < 0 {
		panic(fmt.Sprintf("fabric: link %s has negative RTT", cfg.Name))
	}
	l := &Link{
		Cfg:     cfg,
		A:       ha.NewDevice(cfg.Name+"/nicA", na),
		B:       hb.NewDevice(cfg.Name+"/nicB", nb),
		aToB:    s.AddResource(cfg.Name+"/a->b", cfg.Rate),
		bToA:    s.AddResource(cfg.Name+"/b->a", cfg.Rate),
		sim:     s,
		eng:     s.Engine,
		degrade: 1,
		graySag: 1,
	}
	return l
}

// Dir returns the directional resource for traffic leaving the given NIC.
// from must be one of the link's endpoints.
func (l *Link) Dir(from *host.Device) *fluid.Resource {
	switch from {
	case l.A:
		return l.aToB
	case l.B:
		return l.bToA
	default:
		panic(fmt.Sprintf("fabric: device %s is not an endpoint of %s", from.Name, l.Cfg.Name))
	}
}

// Peer returns the NIC at the other end.
func (l *Link) Peer(from *host.Device) *host.Device {
	switch from {
	case l.A:
		return l.B
	case l.B:
		return l.A
	default:
		panic(fmt.Sprintf("fabric: device %s is not an endpoint of %s", from.Name, l.Cfg.Name))
	}
}

// ChargeWire attaches the link's directional bandwidth, adjusted for framing
// overhead, to flow f.
func (l *Link) ChargeWire(f *fluid.Flow, from *host.Device, coeff float64) {
	f.Use(l.Dir(from), coeff/l.Cfg.Efficiency())
}

// OneWayDelay is half the effective RTT.
func (l *Link) OneWayDelay() sim.Duration { return l.RTT() / 2 }

// RTT returns the round-trip propagation time.
func (l *Link) RTT() sim.Duration { return l.Cfg.RTT }

// BDP returns the bandwidth-delay product in bytes.
func (l *Link) BDP() float64 { return l.Cfg.Rate * float64(l.RTT()) }

// MessageDelay returns propagation plus serialization time for a message of
// size bytes (no queueing model: control messages are small).
func (l *Link) MessageDelay(size float64) sim.Duration {
	return l.OneWayDelay() + sim.Duration(size/l.Cfg.Rate)
}

// Send schedules fn after the one-way message delay for size bytes,
// modelling an asynchronous control message (RFTP's control channel, iSCSI
// command PDUs). Control messages are not charged against link bandwidth;
// their footprint is negligible next to bulk data. Messages sent while the
// link is failed are dropped: Send reports false and counts the drop, so
// protocol timeout logic can be tested against explicit drops rather than
// inferred hangs. Degradation does not drop control messages.
func (l *Link) Send(size float64, fn func(now sim.Time)) bool {
	if l.failed {
		l.Drops++
		l.eng.Tracef("fabric", "link %s dropped %g-byte control message", l.Cfg.Name, size)
		return false
	}
	l.eng.Schedule(l.MessageDelay(size), func() { fn(l.eng.Now()) })
	return true
}

// watcher is one Watch registration.
type watcher struct {
	id uint64
	fn func(Event)
}

// Watch registers fn to receive link state transitions (failures, repairs,
// degradation changes, error bursts). Watchers fire synchronously, in
// registration order, inside the transition call — deterministic under the
// single-threaded simulation. The returned func unregisters fn; it may be
// called from inside a callback, and more than once. A session watcher must
// be unregistered when the session ends, or the link keeps it reachable.
func (l *Link) Watch(fn func(Event)) (unwatch func()) {
	if fn == nil {
		panic("fabric: nil link watcher")
	}
	l.watchSeq++
	id := l.watchSeq
	l.watchers = append(l.watchers, watcher{id, fn})
	return func() { l.unwatch(id) }
}

// unwatch drops the watcher with the given id. Inside notify it only clears
// the entry, so the loop's indices stay valid and a removed watcher is not
// called again; notify compacts once the outermost delivery ends.
func (l *Link) unwatch(id uint64) {
	for i := range l.watchers {
		if w := &l.watchers[i]; w.id == id {
			if l.notifying > 0 {
				w.fn = nil
			} else {
				l.watchers = slices.Delete(l.watchers, i, i+1)
			}
			return
		}
	}
}

// Watchers returns the number of registered watchers.
func (l *Link) Watchers() int { return len(l.watchers) }

// notify delivers a transition to every watcher registered before it began.
func (l *Link) notify(kind EventKind) {
	ev := Event{Kind: kind, Fraction: l.Fraction()}
	l.notifying++
	for i, n := 0, len(l.watchers); i < n; i++ {
		if fn := l.watchers[i].fn; fn != nil {
			fn(ev)
		}
	}
	if l.notifying--; l.notifying == 0 {
		l.watchers = slices.DeleteFunc(l.watchers, func(w watcher) bool { return w.fn == nil })
	}
}

// applyCapacity installs the current effective rate on both directions.
func (l *Link) applyCapacity() {
	rate := 0.0
	if !l.failed {
		rate = l.Cfg.Rate * l.degrade * l.graySag
	}
	l.sim.SetCapacity(l.aToB, rate)
	l.sim.SetCapacity(l.bToA, rate)
}

// Fail injects a link failure: both directions drop to zero capacity and
// every flow crossing the link stalls until Restore. Control messages
// submitted while failed are dropped (Send reports false), as on a dark
// fiber.
func (l *Link) Fail() {
	if l.failed {
		return
	}
	l.failed = true
	l.applyCapacity()
	l.eng.Tracef("fabric", "link %s failed", l.Cfg.Name)
	l.notify(EventDown)
}

// Restore repairs a failed link; stalled flows resume at the next solve.
// The link comes back at its configured rate scaled by any standing
// degradation (Degrade survives a fail/restore cycle, as a half-trained
// optic would).
func (l *Link) Restore() {
	if !l.failed {
		return
	}
	l.failed = false
	l.applyCapacity()
	l.eng.Tracef("fabric", "link %s restored (fraction=%g)", l.Cfg.Name, l.degrade)
	l.notify(EventUp)
}

// Degrade scales both directions' capacity to fraction×Rate without
// declaring the link dark: control messages still flow, flows slow down
// rather than stall, and no reliable-connection error is raised. fraction
// must be in (0, 1]; Degrade(1) clears the degradation. Degrading a failed
// link only updates the standing fraction applied at Restore. Repeated
// calls are idempotent: the link always ends at fraction×Rate.
func (l *Link) Degrade(fraction float64) {
	if fraction <= 0 || fraction > 1 {
		panic(fmt.Sprintf("fabric: Degrade fraction %v outside (0, 1]", fraction))
	}
	if l.degrade == fraction {
		return
	}
	l.degrade = fraction
	l.applyCapacity()
	l.eng.Tracef("fabric", "link %s degraded to %g× rate", l.Cfg.Name, fraction)
	l.notify(EventDegraded)
}

// InjectErrorBurst models a transient fault burst (CRC storms, a flapping
// transceiver) that corrupts in-flight reliable-connection traffic without
// changing capacity: watchers receive an EventErrorBurst (RFTP's rail
// watcher declares loss on every stream riding the link); fluid capacity
// is untouched.
func (l *Link) InjectErrorBurst() {
	l.eng.Tracef("fabric", "link %s error burst", l.Cfg.Name)
	l.notify(EventErrorBurst)
}

// InjectCorruption models a silent data corruption: a bit flip that
// slipped past the link-layer CRC (undetected error rates on long optics
// are small but not zero, and at 40 Gbps "small" is hours, not years).
// The link keeps running at full capacity and raises no RDMA error — the
// payload block in flight is simply wrong on arrival. Watchers receive an
// EventCorruption; whether anyone notices is the receiver's integrity
// layer's problem, which is exactly the point.
func (l *Link) InjectCorruption() {
	l.eng.Tracef("fabric", "link %s silent corruption", l.Cfg.Name)
	l.notify(EventCorruption)
}

// GrayDegrade injects a hidden rate sag: both directions drop to
// fraction × (configured rate × any visible degradation) — but unlike
// Degrade, no watcher is notified and Fraction() keeps reporting the
// visible state. This models upstream congestion the link layer cannot
// see (a NUMA-remote staging buffer, a cache-thrashed forwarding engine):
// the rail limps, every absolute health probe still passes, and only a
// peer-comparison detector measuring delivered bytes can tell.
// fraction must be in (0, 1]; GrayDegrade(1) clears the sag.
func (l *Link) GrayDegrade(fraction float64) {
	if fraction <= 0 || fraction > 1 {
		panic(fmt.Sprintf("fabric: GrayDegrade fraction %v outside (0, 1]", fraction))
	}
	if l.graySag == fraction {
		return
	}
	l.graySag = fraction
	l.applyCapacity()
	l.eng.Tracef("fabric", "link %s gray-sagged to %g× rate (no notification)", l.Cfg.Name, fraction)
}

// GraySag returns the hidden sag multiplier (1 = none). Injection-side
// bookkeeping only: detectors must not read this — it is the ground truth
// they are being tested against.
func (l *Link) GraySag() float64 { return l.graySag }

// Failed reports whether the link is currently down.
func (l *Link) Failed() bool { return l.failed }

// Fraction returns the link's current capacity fraction: 0 when failed,
// otherwise the standing Degrade fraction (1 = healthy).
func (l *Link) Fraction() float64 {
	if l.failed {
		return 0
	}
	return l.degrade
}

// Engine exposes the simulation engine driving this link.
func (l *Link) Engine() *sim.Engine { return l.eng }

// Sim exposes the fluid simulator this link is registered with.
func (l *Link) Sim() *fluid.Sim { return l.sim }
