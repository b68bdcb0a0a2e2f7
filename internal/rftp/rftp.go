// Package rftp implements the paper's RDMA-based file transfer protocol
// (RFTP [21,22,23]): parallel RDMA streams between a client and a server,
// zero-copy data movement from registered staging buffers, credit-based
// flow control with asynchronous control messages, and a pipelined
// architecture in which dedicated I/O threads keep loading/offloading
// while network threads keep the wire full.
//
// Cost structure per payload byte on each side:
//
//   - user-space protocol processing (ProtoCyclesPerByte — Figure 4
//     measures ≈56% of one core across both sides at 39 Gbps);
//   - per-block work-request posting and credit-token handling
//     (PerBlockCycles/BlockSize — this is why Figure 14's CPU curves fall
//     as the block size grows);
//   - control messages on the wire (CtrlBytesPerBlock/BlockSize — why
//     Figure 13's goodput rises toward 97% of raw bandwidth with block
//     size);
//   - NIC DMA from/to the staging buffers (zero copy: no CPU).
//
// Flow control: each stream may keep CreditsPerStream blocks outstanding,
// bounding its rate by Credits×BlockSize/RTT — on the 95 ms ANI loop this
// is the dominant limit for small blocks and few streams, reproducing the
// left half of Figure 13.
//
// Multipath: a stream is bound to a rail (one of the session's links)
// through an indirection, not to a fixed NIC. With Params.Rails enabled a
// railmgr.Manager classifies every rail and the session reacts: streams on
// a Dead rail fail over to surviving rails and resume from their acked
// offset; Degraded rails keep their streams but the credit pool shifts
// toward healthy rails in proportion to capacity; a re-probed restored
// rail gets its streams back (failback) with no byte delivered twice.
//
// A session's work is a list of segments queued on its streams, each one
// stream's fluid flow at a time. A plain payload (Start) is one segment per
// stream; an item session moves many files (StartSet) or objects
// (StartBatch) with one handshake, one segment per item, and fires
// OnObject exactly once per item. Recovery, rail failover, hedging and the
// checksum act on a stream's current segment and resume it at its acked
// offset, so every framing gets them from the same code, and every session
// charges its flows through one shared cost template.
package rftp

import (
	"fmt"
	"math"

	"e2edt/internal/fabric"
	"e2edt/internal/fluid"
	"e2edt/internal/host"
	"e2edt/internal/metrics"
	"e2edt/internal/numa"
	"e2edt/internal/pipe"
	"e2edt/internal/placer"
	"e2edt/internal/railmgr"
	"e2edt/internal/sim"
	"e2edt/internal/units"
)

// Params calibrates protocol costs.
type Params struct {
	// ProtoCyclesPerByte is user-space protocol processing per side.
	ProtoCyclesPerByte float64
	// PerBlockCycles is the per-block posting/credit CPU cost per side.
	PerBlockCycles float64
	// CtrlBytesPerBlock is control-channel traffic per data block.
	CtrlBytesPerBlock float64
	// HandshakeRTTs is how many round trips session setup takes.
	HandshakeRTTs int
	// ChecksumCyclesPerByte is the per-side cost of end-to-end integrity
	// verification when Config.Checksum is on (CRC32C-class).
	ChecksumCyclesPerByte float64
	// StartOffset resumes a finite transfer from byte N: the session moves
	// only the tail, Size−StartOffset bytes, as when a retry picks up a
	// partially-completed transfer. Open-ended (+Inf) transfers ignore it.
	StartOffset int64

	// AckTimeout, when positive, enables in-protocol recovery: each stream
	// tracks ACK progress and, after AckTimeout without any, declares its
	// outstanding credit window lost, re-establishes the session, and
	// retransmits from the acked offset. Zero (the default) preserves the
	// legacy behavior: a stream on a dark link stalls until an outer
	// watchdog restarts the whole transfer.
	AckTimeout sim.Duration
	// RetryBackoff is the initial delay before a recovery attempt; each
	// consecutive failed attempt doubles it up to RetryBackoffMax.
	// Zero selects 100 ms when recovery is enabled.
	RetryBackoff sim.Duration
	// RetryBackoffMax caps the exponential backoff (default 5 s).
	RetryBackoffMax sim.Duration
	// MaxStreamRetries bounds consecutive failed recovery attempts on one
	// stream before the transfer gives up and fires OnFailure (default 16).
	MaxStreamRetries int

	// Rails, when Enabled, runs a rail health manager over the session's
	// links and turns on multipath policy: failover off Dead rails,
	// credit rebalancing toward healthy rails under degradation, and
	// probed failback onto restored rails. Requires AckTimeout > 0 — the
	// ACK tracker is what makes migration resume exactly-once.
	Rails railmgr.Policy

	// Hedge turns on tail-tolerant hedged transfers: a stream whose
	// current credit window blows past an adaptive deadline (a quantile of
	// recent window completion times on trusted rails) gets that window
	// re-issued speculatively on the best non-suspect rail. First
	// completion wins, the loser is cancelled, and the ACK fold keeps
	// delivery exactly-once. Requires Rails.Enabled — hedges need somewhere
	// else to run.
	Hedge bool
}

// recoveryEnabled reports whether in-protocol recovery is on.
func (p Params) recoveryEnabled() bool { return p.AckTimeout > 0 }

// RecoveryBudget bounds how long a transfer with in-protocol recovery may
// legitimately show zero delivered-byte progress on one same-rail retry
// ladder: the loss detection window plus every backoff it is allowed to
// wait out. Outer watchdogs build their stall horizon from this.
func (p Params) RecoveryBudget() sim.Duration {
	if p.AckTimeout <= 0 {
		return 0
	}
	p = p.withRetryDefaults()
	b, cap := p.RetryBackoff, p.RetryBackoffMax
	d := p.AckTimeout
	for i := 0; i < p.MaxStreamRetries; i++ {
		if b > cap {
			b = cap
		}
		d += b
		b *= 2
	}
	return d
}

// withRetryDefaults fills the unset retry-ladder fields: 100 ms first
// backoff, doubling to a 5 s cap, 16 same-rail retries per stream.
func (p Params) withRetryDefaults() Params {
	if p.RetryBackoff <= 0 {
		p.RetryBackoff = 100 * sim.Millisecond
	}
	if p.RetryBackoffMax <= 0 {
		p.RetryBackoffMax = 5 * sim.Second
	}
	if p.MaxStreamRetries <= 0 {
		p.MaxStreamRetries = 16
	}
	return p
}

// DefaultParams matches the paper's Figure 4 profile on 2.2 GHz cores.
func DefaultParams() Params {
	return Params{
		ProtoCyclesPerByte:    0.12,
		PerBlockCycles:        3500,
		CtrlBytesPerBlock:     128,
		HandshakeRTTs:         2,
		ChecksumCyclesPerByte: 0.4,
	}
}

// Config describes one transfer's shape.
type Config struct {
	// Streams is the number of parallel RDMA streams; they are assigned
	// to links round-robin.
	Streams int
	// BlockSize is the transfer block size.
	BlockSize int64
	// CreditsPerStream bounds outstanding blocks per stream.
	CreditsPerStream int
	// Policy binds stream threads to their NIC's NUMA node (the paper
	// runs RFTP under numactl in §4.3).
	Policy numa.Policy
	// Checksum enables end-to-end block integrity verification: each side
	// reads every payload byte once more and spends checksum cycles on a
	// dedicated I/O thread (RDMA already guarantees link-level integrity;
	// this guards the storage path — and it is the only layer that can
	// catch a silent bit flip the link CRC missed). Every framing charges
	// it.
	Checksum bool
	// Placer, when non-nil and Policy is numa.PolicyAuto, manages the
	// session's thread pinning and staging-buffer homes at runtime: every
	// side becomes a placement entity and every stream flow is tracked so
	// the engine can what-if alternative layouts and migrate. Ignored for
	// static policies.
	Placer *placer.Engine
}

// DefaultConfig returns the tuned LAN configuration.
func DefaultConfig() Config {
	return Config{
		Streams:          3,
		BlockSize:        4 * units.MB,
		CreditsPerStream: 64,
		Policy:           numa.PolicyBind,
	}
}

// Validate reports config errors.
func (c Config) Validate() error {
	switch {
	case c.Streams <= 0:
		return fmt.Errorf("rftp: Streams must be positive")
	case c.BlockSize <= 0:
		return fmt.Errorf("rftp: BlockSize must be positive")
	case c.CreditsPerStream <= 0:
		return fmt.Errorf("rftp: CreditsPerStream must be positive")
	}
	return nil
}

// RecoveryKind classifies what a recovering stream is doing, in ascending
// cost order. Outer watchdogs size their grace window off the most
// expensive kind in flight: a migration pays probing and a fresh session
// on another rail, which a plain retransmission never does.
type RecoveryKind int

const (
	// KindNone: no recovery in flight.
	KindNone RecoveryKind = iota
	// KindRetransmit: same-rail window retransmission (PR 2 ladder).
	KindRetransmit
	// KindChecksum: re-transfer of a corrupt block on a healthy rail.
	KindChecksum
	// KindHedge: migration onto the rail where a hedged window just won —
	// the original rail lost the race, so the stream follows the winner.
	KindHedge
	// KindFailback: clean migration back onto a re-admitted rail.
	KindFailback
	// KindFailover: migration off a Dead rail (or parked waiting for any
	// usable rail) — the slowest recovery the protocol performs.
	KindFailover
)

// String names the kind.
func (k RecoveryKind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindRetransmit:
		return "retransmit"
	case KindChecksum:
		return "checksum"
	case KindHedge:
		return "hedge"
	case KindFailback:
		return "failback"
	default:
		return "failover"
	}
}

// side is one stream endpoint on one rail: NIC, network + I/O threads,
// and the registered staging buffer.
type side struct {
	nic *host.Device
	net *host.Thread
	io  *host.Thread
	buf *numa.Buffer
}

// endpoints pairs the sender and receiver sides of a stream on one rail.
type endpoints struct {
	snd, rcv side
}

// senderNIC returns h's NIC on link l.
func senderNIC(l *fabric.Link, h *host.Host) (*host.Device, error) {
	switch h {
	case l.A.Host:
		return l.A, nil
	case l.B.Host:
		return l.B, nil
	}
	return nil, fmt.Errorf("rftp: sender %s not on link %s", h.Name, l.Cfg.Name)
}

// newSide builds one endpoint behind nic: a process called name (bound to
// the NIC's node under numa.PolicyBind), its network and I/O threads, and
// the registered staging buffer, homed where the network thread runs.
func newSide(nic *host.Device, name string, policy numa.Policy) side {
	h := nic.Host
	var node *numa.Node
	if policy == numa.PolicyBind {
		node = nic.Node
	}
	proc := h.NewProcess(name, policy, node)
	net := proc.NewThread()
	io := proc.NewThread()
	var buf *numa.Buffer
	if node := net.Node(); node != nil {
		buf = h.M.NewBuffer("rftp-stage", node)
	} else {
		buf = h.M.InterleavedBuffer("rftp-stage")
	}
	return side{nic: nic, net: net, io: io, buf: buf}
}

// charge attaches the RFTP cost structure of one stream on link l to f:
// source load, per-byte and per-block protocol CPU on both sides, control
// bytes on the wire, zero-copy NIC DMA, sink offload, and — with checksum —
// one more read of every byte plus checksum cycles on each I/O thread.
// extraCPU and extraWire add per-byte protocol cycles and wire bytes on top
// (an object window's amortized delimiter; zero for a plain stream). It is
// a pure function of current placement state (thread pins, buffer homes),
// so the adaptive placer can clear f.Uses and re-run it to evaluate or
// commit an alternative layout.
func (ep *endpoints) charge(f *fluid.Flow, l *fabric.Link, p Params, cfg Config, checksum bool,
	src, dst pipe.Stage, extraCPU, extraWire float64) error {
	bs := float64(cfg.BlockSize)
	// Data loading (pipelined onto a dedicated I/O thread).
	if err := src.Attach(f, ep.snd.io, ep.snd.buf, 1); err != nil {
		return fmt.Errorf("rftp: source: %w", err)
	}
	// Sender protocol processing: per-byte plus per-block costs.
	ep.snd.net.ChargeCPU(f, p.ProtoCyclesPerByte+p.PerBlockCycles/bs+extraCPU, host.CatUser)
	if checksum {
		ep.snd.io.ChargeMemory(f, ep.snd.buf, 1, false)
		ep.snd.io.ChargeCPU(f, p.ChecksumCyclesPerByte, host.CatUser)
	}
	// Zero-copy wire path.
	ep.snd.nic.ChargeDMA(f, ep.snd.buf, 1, false)
	l.ChargeWire(f, ep.snd.nic, 1+p.CtrlBytesPerBlock/bs+extraWire)
	ep.rcv.nic.ChargeDMA(f, ep.rcv.buf, 1, true)
	// Receiver protocol processing and offload.
	ep.rcv.net.ChargeCPU(f, p.ProtoCyclesPerByte+p.PerBlockCycles/bs+extraCPU, host.CatUser)
	if checksum {
		ep.rcv.io.ChargeMemory(f, ep.rcv.buf, 1, false)
		ep.rcv.io.ChargeCPU(f, p.ChecksumCyclesPerByte, host.CatUser)
	}
	if err := dst.Attach(f, ep.rcv.io, ep.rcv.buf, 1); err != nil {
		return fmt.Errorf("rftp: sink: %w", err)
	}
	return nil
}

// release retires the four threads' limiter resources from the fluid
// network; callers guarantee no flow can charge them again.
func (ep *endpoints) release() {
	ep.snd.net.Release()
	ep.snd.io.Release()
	ep.rcv.net.Release()
	ep.rcv.io.Release()
}

// windowCap is the credit-limited per-stream rate on link l.
func windowCap(cfg Config, l *fabric.Link) float64 {
	rtt := float64(l.RTT())
	if rtt <= 0 {
		return math.Inf(1)
	}
	return float64(cfg.CreditsPerStream) * float64(cfg.BlockSize) / rtt
}

// stream is one RDMA data channel.
type stream struct {
	idx int
	// rail indexes the transfer's links: the stream's current binding.
	// Rail mode migrates it; legacy mode fixes it at start.
	rail int
	// eps holds the stream's per-rail endpoints; only the home rail is
	// built in legacy mode.
	eps []*endpoints
	// transfer is the current segment's flow; nil until an item stream
	// opens its first item.
	transfer *fluid.Transfer
	// The current segment: item is its index in an item session (unused
	// for a payload), seg its length — the stream's share of a payload, or
	// the item's size. acked counts its bytes definitely delivered,
	// remaining = seg − acked, and base the bytes of the stream's earlier,
	// fully delivered segments.
	item      int
	seg       float64
	acked     float64
	remaining float64
	base      float64
	// retries counts consecutive failed recovery attempts (reset on a
	// successful resume); lastMoved/lastProgressAt drive stall detection.
	retries        int
	lastMoved      float64
	lastProgressAt sim.Time
	recovering     bool
	kind           RecoveryKind
	faultAt        sim.Time
	pending        *sim.Event
	done           bool

	// flowSize is the current flow's total bytes (its Remaining at build),
	// the upper bound for hedge targets within this flow.
	flowSize float64
	// rateMark/rateMarkAt and winMark/winMarkAt are progress checkpoints
	// for the gray rate feed and the per-window completion sampler.
	rateMark   float64
	rateMarkAt sim.Time
	winMark    float64
	winMarkAt  sim.Time
	// lastWin is this tick's fresh normalized window-completion sample
	// (valid only when lastWinFresh), compared against the hedge deadline.
	lastWin      float64
	lastWinFresh bool
	// hedge is the stream's in-flight hedged window, nil when none.
	hedge *hedgeRace
}

// Transfer is a running (or finished) RFTP session.
type Transfer struct {
	Cfg    Config
	P      Params
	Size   float64 // bytes this session moves (size − Params.StartOffset); +Inf for open-ended
	Sender *host.Host

	frame framing
	items []ObjectSpec // an item session's items; nil for a payload
	// delivered counts an item session's fully delivered items.
	delivered int

	streams  []*stream
	links    []*fabric.Link
	mgr      *railmgr.Manager
	src, dst pipe.Stage
	sim      *fluid.Sim
	eng      *sim.Engine
	started  sim.Time
	finished sim.Time
	done     int
	// OnComplete fires when every stream has drained and the session has
	// closed (finite transfers only). An item session completes at its last
	// delivery, with no close exchange.
	OnComplete func(now sim.Time)
	// OnObject fires exactly once per delivered item index of an item
	// session, in the order the streams deliver them, and never after Stop.
	OnObject func(i int, now sim.Time)
	// OnFailure fires once if in-protocol recovery is exhausted
	// (MaxStreamRetries consecutive failed attempts on some stream); the
	// transfer is torn down first, so an outer scheduler may requeue.
	OnFailure func(now sim.Time)

	// Stats counts the session's recovery, failover, integrity and hedging
	// work.
	Stats

	recoveryLat  []sim.Duration
	migrationLat []sim.Duration
	hedgeLat     []sim.Duration
	winQ         []*metrics.WindowedQuantile // per-rail window completion times
	firstHedge   sim.Time
	hedgeCount   int // hedges currently racing
	ticker       *sim.Ticker
	unwatch      []func() // the rail watchers' unregister funcs
	failed       bool
	stopped      bool
	released     bool
}

// Stats is what a session's recovery ladder did: retransmissions, stream
// recoveries and rail moves, caught corruption and hedged windows.
type Stats struct {
	// Retransmitted counts payload bytes scheduled for retransmission
	// after declared losses.
	Retransmitted float64
	// Recoveries counts successful in-protocol stream re-establishments
	// on the same rail.
	Recoveries int
	// Migrations counts streams moved off a Dead rail (failover);
	// Failbacks counts streams moved back onto a re-admitted rail.
	Migrations, Failbacks int
	// CorruptionsDetected counts corrupt blocks the checksum layer caught
	// and re-transferred; IntegrityViolations counts corrupt blocks
	// delivered unnoticed because Config.Checksum was off.
	CorruptionsDetected int
	IntegrityViolations int
	// Hedges counts launched hedged windows; HedgeWins those where the
	// hedge finished first (the stream migrated to the winning rail);
	// HedgeLosses those the original outran. HedgeWaste is duplicate bytes
	// moved by racing — the price of the tail cut.
	Hedges, HedgeWins, HedgeLosses int
	HedgeWaste                     float64
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Retransmitted += o.Retransmitted
	s.Recoveries += o.Recoveries
	s.Migrations += o.Migrations
	s.Failbacks += o.Failbacks
	s.CorruptionsDetected += o.CorruptionsDetected
	s.IntegrityViolations += o.IntegrityViolations
	s.Hedges += o.Hedges
	s.HedgeWins += o.HedgeWins
	s.HedgeLosses += o.HedgeLosses
	s.HedgeWaste += o.HedgeWaste
}

// Start launches an RFTP transfer of size bytes (math.Inf(1) for an
// open-ended stream) from senderHost across the given links. src runs on
// the sender, dst on the receiver. Session setup costs HandshakeRTTs round
// trips before data flows.
func Start(links []*fabric.Link, senderHost *host.Host, cfg Config, p Params,
	src, dst pipe.Stage, size float64, onComplete func(now sim.Time)) (*Transfer, error) {
	if size <= 0 && !math.IsInf(size, 1) {
		return nil, fmt.Errorf("rftp: size must be positive or +Inf")
	}
	if p.StartOffset < 0 {
		return nil, fmt.Errorf("rftp: StartOffset must be non-negative")
	}
	if !math.IsInf(size, 1) && p.StartOffset > 0 {
		if float64(p.StartOffset) >= size {
			return nil, fmt.Errorf("rftp: StartOffset %d beyond size %g", p.StartOffset, size)
		}
		size -= float64(p.StartOffset)
	}
	return start(payload, nil, links, senderHost, cfg, p, src, dst, size, nil, onComplete)
}

// start builds a session of the given framing: a payload of size bytes
// (items nil), or the items, whose sizes sum to size.
func start(frame framing, items []ObjectSpec, links []*fabric.Link, senderHost *host.Host, cfg Config, p Params,
	src, dst pipe.Stage, size float64, onObject func(i int, now sim.Time), onComplete func(now sim.Time)) (*Transfer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(links) == 0 {
		return nil, fmt.Errorf("rftp: no links")
	}
	if items != nil && p.StartOffset != 0 {
		return nil, fmt.Errorf("rftp: an item session resumes by item; StartOffset must be zero")
	}
	if p.Rails.Enabled && !p.recoveryEnabled() {
		return nil, fmt.Errorf("rftp: Rails requires AckTimeout > 0 (the ACK tracker makes migration exactly-once)")
	}
	if p.Hedge && !p.Rails.Enabled {
		return nil, fmt.Errorf("rftp: Hedge requires Rails.Enabled (hedged windows need alternate rails)")
	}
	if p.Rails.Gray && !p.Rails.Enabled {
		return nil, fmt.Errorf("rftp: Rails.Gray requires Rails.Enabled (the scorer runs inside the rail manager)")
	}
	if p.recoveryEnabled() {
		p = p.withRetryDefaults()
	}
	t := &Transfer{
		Cfg: cfg, P: p, Size: size, Sender: senderHost,
		frame: frame, items: items,
		links: links, src: src, dst: dst,
		sim: links[0].Sim(), eng: links[0].Engine(),
		OnComplete: onComplete,
		OnObject:   onObject,
		firstHedge: -1,
	}
	t.started = t.eng.Now()
	if p.Hedge {
		t.winQ = make([]*metrics.WindowedQuantile, len(links))
		for i := range links {
			t.winQ[i] = metrics.NewWindowedQuantile(hedgeWindow)
		}
	}

	// Resolve the sender NIC on every rail up front; a stream's endpoints
	// on rail r are built from these.
	sndNICs := make([]*host.Device, len(links))
	for i, l := range links {
		nic, err := senderNIC(l, senderHost)
		if err != nil {
			return nil, err
		}
		sndNICs[i] = nic
	}
	mkSide := func(l *fabric.Link, nic *host.Device, role string, idx int) side {
		name := fmt.Sprintf("rftp-%s/%s", role, l.Cfg.Name)
		if frame.tag != "" {
			name = fmt.Sprintf("rftp-%s/%s/%s%d", role, l.Cfg.Name, frame.tag, idx)
		}
		sd := newSide(nic, name, cfg.Policy)
		if pl := t.placer(); pl != nil {
			// Each side is one placement unit: both its threads plus the
			// registered staging buffer move together. A migration re-copies
			// the in-flight credit window held in the stage buffer.
			pl.AddEntity(fmt.Sprintf("rftp-%s/%s/s%d", role, l.Cfg.Name, idx),
				nic.Host.M, []*host.Thread{sd.net, sd.io}, []*numa.Buffer{sd.buf}, t.window())
		}
		return sd
	}

	// A payload splits evenly across the streams; an item session runs at
	// most one stream per item, stream i taking items i, i+n, i+2n, ….
	n, perStream := cfg.Streams, size
	if items != nil {
		n = min(n, len(items))
	} else if !math.IsInf(size, 1) {
		perStream = size / float64(cfg.Streams)
	}
	for i := 0; i < n; i++ {
		st := &stream{
			idx: i, rail: i % len(links),
			seg: perStream, remaining: perStream,
			eps: make([]*endpoints, len(links)),
		}
		// Rail mode pre-builds endpoints on every rail, deterministically
		// at start, so a migration never allocates mid-crisis; legacy mode
		// builds only the fixed home rail.
		for r := range links {
			if r != st.rail && !p.Rails.Enabled {
				continue
			}
			st.eps[r] = &endpoints{
				snd: mkSide(links[r], sndNICs[r], "c", i),
				rcv: mkSide(links[r], links[r].Peer(sndNICs[r]), "s", i),
			}
		}
		if items != nil {
			// Item streams build each item's flow when it opens, after the
			// handshake; until then the stream waits like a recovering one.
			st.item = i
			st.seg = float64(items[i].Size)
			st.remaining = st.seg
			st.recovering = true
		} else {
			tr, err := t.buildStream(st, perStream)
			if err != nil {
				return nil, err
			}
			st.transfer = tr
		}
		t.streams = append(t.streams, st)
	}

	// Rail watcher. Silent corruption is detected at offload and
	// re-transferred with Checksum on; with it off, the corrupt block is
	// delivered and only counted. With recovery on, a link failure or error
	// burst breaks every reliable connection riding the rail, so each
	// stream bound there declares its window lost at once (in stream order;
	// declareLoss skips recovering and done streams) instead of waiting out
	// AckTimeout.
	t.unwatch = make([]func(), len(links))
	for i := range links {
		i := i
		t.unwatch[i] = links[i].Watch(func(ev fabric.Event) {
			switch ev.Kind {
			case fabric.EventCorruption:
				t.corrupted(i)
			case fabric.EventDown, fabric.EventErrorBurst:
				if !t.P.recoveryEnabled() {
					return
				}
				for _, s := range t.streams {
					if s.rail == i {
						t.declareLoss(s, t.eng.Now())
					}
				}
			}
		})
	}

	if p.recoveryEnabled() {
		t.ticker = t.eng.NewTicker(p.AckTimeout/2, t.checkProgress)
	}
	if p.Rails.Enabled {
		t.mgr = railmgr.New(t.eng, links, p.Rails)
		t.mgr.OnTransition = t.onRailTransition
	}

	// Session handshake, then data on every stream.
	handshake := sim.Duration(p.HandshakeRTTs) * sim.Duration(links[0].RTT())
	t.eng.Schedule(handshake, func() {
		if t.stopped || t.failed {
			return
		}
		t.eng.Tracef("rftp", "session up: %d streams, bs=%d, credits=%d",
			len(t.streams), cfg.BlockSize, cfg.CreditsPerStream)
		for _, st := range t.streams {
			if st.transfer == nil {
				t.open(st)
				continue
			}
			// A stream that lost its link pre-handshake is already in the
			// recovery path and starts (or restarted) there.
			if st.recovering || st.done || st.transfer.Active() {
				continue
			}
			t.sim.Start(st.transfer)
			st.lastProgressAt = t.eng.Now()
			t.resetMarks(st, t.eng.Now())
		}
		t.rebalanceCredits()
	})
	return t, nil
}

// open starts stream s's current item. A file pays its open/attribute
// exchange first — the two control sends a recovery pays to re-establish a
// stream, and with the same handling of a dropped message. An empty object
// is a bare delimiter record: pipelined with the stream, it costs
// serialization time but no round trip and no fluid flow (the solver
// rejects zero-size transfers). Any other object's body starts at once.
// The stream stays recovering, with no recovery kind, until its flow runs.
func (t *Transfer) open(s *stream) {
	switch {
	case t.frame.ctrl:
		t.attemptResume(s)
	case s.seg == 0:
		delay := sim.Duration(0)
		if rate := t.links[s.rail].Cfg.Rate; rate > 0 {
			delay = sim.Duration(delimBytes / rate)
		}
		t.eng.Schedule(delay, func() {
			if !t.stopped && !t.failed {
				t.segmentDone(s, t.eng.Now())
			}
		})
	default:
		t.resume(s, t.eng.Now())
	}
}

// buildStream recreates the stream's fully-charged fluid flow for a given
// residual size on its current rail; fluid.Cancel removes the flow from
// the network, so every retransmission or migration needs a fresh one.
func (t *Transfer) buildStream(st *stream, remaining float64) (*fluid.Transfer, error) {
	l := t.links[st.rail]
	var name string
	if t.items == nil {
		name = fmt.Sprintf("rftp/%s/s%d", l.Cfg.Name, st.idx)
	} else {
		name = "rftp-" + t.frame.tag + "/" + t.items[st.item].Key
	}
	f := t.sim.NewFlow(name, windowCap(t.Cfg, l))
	if err := t.chargeStream(f, st, st.rail); err != nil {
		return nil, err
	}
	tr := &fluid.Transfer{
		Flow:       f,
		Remaining:  remaining,
		OnComplete: func(now sim.Time) { t.segmentDone(st, now) },
	}
	st.flowSize = remaining
	if pl := t.placer(); pl != nil {
		rail := st.rail
		pl.Track(f, func(fl *fluid.Flow) {
			// Re-derive every charge from the endpoints' current placement.
			// The rail is the one the flow was built on: a rail change
			// always goes through a fresh flow, never a rebuild.
			_ = t.chargeStream(fl, st, rail)
		})
	}
	return tr, nil
}

// chargeStream attaches the full RFTP cost structure for st's endpoints on
// the given rail to f (see endpoints.charge). An object adds its delimiter
// and framing, amortized over its size: delimiter bytes on the wire, one
// extra block posting on each CPU — no per-object round trip, which is the
// whole point of coalescing.
func (t *Transfer) chargeStream(f *fluid.Flow, st *stream, rail int) error {
	var extraCPU, extraWire float64
	if t.frame.delimited {
		extraCPU = t.P.PerBlockCycles / st.seg
		extraWire = delimBytes / st.seg
	}
	return st.eps[rail].charge(f, t.links[rail], t.P, t.Cfg, t.Cfg.Checksum, t.src, t.dst, extraCPU, extraWire)
}

// placer returns the adaptive placement engine when it actually applies:
// Config.Placer is honored only under numa.PolicyAuto.
func (t *Transfer) placer() *placer.Engine {
	if t.Cfg.Policy != numa.PolicyAuto {
		return nil
	}
	return t.Cfg.Placer
}

// retire takes a stream or hedge flow out of play: handed back from the
// placer, then cancelled if in flight, or removed from the network if it
// was built but never started (a session that loses a rail before its
// handshake holds such flows). Safe on nil, never-tracked and completed
// transfers.
func (t *Transfer) retire(tr *fluid.Transfer) {
	if tr == nil {
		return
	}
	if pl := t.placer(); pl != nil {
		pl.Untrack(tr.Flow)
	}
	if tr.Active() {
		t.sim.Cancel(tr)
		return
	}
	t.sim.Network.RemoveFlow(tr.Flow)
}

// window is the per-stream credit window in bytes: bytes that may be in
// flight unacked, and therefore the amount conservatively declared lost
// when a stream stalls.
func (t *Transfer) window() float64 {
	return float64(t.Cfg.CreditsPerStream) * float64(t.Cfg.BlockSize)
}

// segmentDone marks stream s's current segment fully delivered. An item
// session delivers the segment's item and opens the stream's next one; a
// stream with nothing left is done, and the last one ends the session: a
// payload with a close control round trip, an item session at once.
func (t *Transfer) segmentDone(s *stream, now sim.Time) {
	if s.hedge != nil {
		t.hedgeLost(s) // full delivery subsumes any racing hedge
	}
	t.retire(s.transfer)
	s.kind = KindNone
	if t.items != nil {
		t.delivered++
		if t.OnObject != nil {
			t.OnObject(s.item, now)
		}
		if t.stopped || t.failed {
			return
		}
		if next := s.item + len(t.streams); next < len(t.items) {
			s.base += s.seg
			s.item, s.seg = next, float64(t.items[next].Size)
			s.acked, s.remaining = 0, s.seg
			s.transfer = nil
			s.recovering = true
			t.open(s)
			return
		}
	}
	s.done = true
	s.acked = s.seg
	s.remaining = 0
	s.transfer = nil // a finished session keeps no flow reachable
	t.done++
	if t.done < len(t.streams) {
		return
	}
	if t.items != nil {
		t.finish(now)
		return
	}
	t.closeSession(t.links[s.rail])
}

// closeSession runs the close control exchange. With recovery enabled a
// dropped close message is retried after the base backoff; otherwise it is
// silently lost, as before (an outer watchdog's problem).
func (t *Transfer) closeSession(l *fabric.Link) {
	var try func()
	retry := func() {
		if !t.P.recoveryEnabled() || t.stopped || t.failed {
			return
		}
		t.eng.Schedule(t.P.RetryBackoff, try)
	}
	try = func() {
		ok := l.Send(t.P.CtrlBytesPerBlock, func(sim.Time) {
			ok2 := l.Send(t.P.CtrlBytesPerBlock, func(now sim.Time) { t.finish(now) })
			if !ok2 {
				retry()
			}
		})
		if !ok {
			retry()
		}
	}
	try()
}

// finish records completion and releases the stall ticker and rail manager.
func (t *Transfer) finish(now sim.Time) {
	t.finished = now
	if t.ticker != nil {
		t.ticker.Stop()
		t.ticker = nil
	}
	if t.mgr != nil {
		t.mgr.Stop()
	}
	t.releaseEndpoints()
	if t.OnComplete != nil {
		t.OnComplete(now)
	}
}

// releaseEndpoints unregisters the session's rail watchers and retires its
// per-thread limiter resources from the fluid network once no flow can
// ever charge them again (after finish, fail or Stop — all stream flows
// are gone by then). The watchers go in every mode: each link would
// otherwise keep the finished session reachable. Sessions under the
// adaptive placer keep their threads: the placer still holds the endpoint
// entities and may re-derive charges from them. Without this, a small-file
// workload opening thousands of short sessions grows the network's
// resource list and the links' watcher lists without bound.
func (t *Transfer) releaseEndpoints() {
	for _, unwatch := range t.unwatch {
		unwatch()
	}
	t.unwatch = nil
	if t.released || t.placer() != nil {
		return
	}
	t.released = true
	for _, st := range t.streams {
		for _, ep := range st.eps {
			if ep != nil {
				ep.release()
			}
		}
	}
}

// checkProgress is the ACK stall detector: a stream whose fluid transfer
// has moved nothing for AckTimeout declares its window lost. Degraded
// links keep making (slow) progress and never trip this.
func (t *Transfer) checkProgress(now sim.Time) {
	if t.failed || t.stopped || t.finished > 0 {
		return
	}
	t.sim.Sync()
	for _, s := range t.streams {
		if s.done || s.recovering || !s.transfer.Active() {
			continue
		}
		m := s.transfer.Transferred()
		// A resumed stream keeps its recovery kind until the new attempt
		// clears the unacked credit window: until then the stream is
		// flowing but its exactly-once Transferred() is flat, and an outer
		// watchdog that dropped the grace here would declare a stall in
		// the last stretch of a recovery that is actually succeeding.
		if s.kind != KindNone && m > t.window() {
			s.kind = KindNone
		}
		t.observeStream(s, m, now)
		if s.hedge != nil && m >= s.hedge.target {
			t.hedgeLost(s) // the original outran its hedge
		}
		if m > s.lastMoved {
			s.lastMoved = m
			s.lastProgressAt = now
			continue
		}
		if now-s.lastProgressAt >= sim.Time(t.P.AckTimeout) {
			t.declareLoss(s, now)
		}
	}
	t.feedGrayRates(now)
	if t.P.Hedge {
		t.evaluateHedges(now)
	}
}

// declareLoss folds a stalled stream's progress — everything beyond the
// trailing credit window counts as acked, the window itself is declared
// lost and will be retransmitted — then either re-establishes on the same
// rail or, when the rail is dark and rail management is on, fails over.
func (t *Transfer) declareLoss(s *stream, now sim.Time) {
	if t.failed || t.stopped || s.done || s.recovering {
		return
	}
	// A hedge racing against a window we are about to declare lost cannot
	// be trusted to fold: discard it and let the retransmission cover the
	// range (exactly-once beats saving a window of wire time).
	if s.hedge != nil {
		t.hedgeLost(s)
	}
	s.recovering = true
	s.kind = KindRetransmit
	s.faultAt = now
	t.sim.Sync()
	m := s.transfer.Transferred()
	t.retire(s.transfer)
	goodAcked := math.Max(0, m-t.window())
	lost := m - goodAcked
	s.acked += goodAcked
	if !math.IsInf(s.remaining, 1) {
		s.remaining -= goodAcked
	}
	t.Retransmitted += lost
	t.eng.Tracef("rftp", "stream %d on %s lost window: %g bytes to retransmit, resume offset %g",
		s.idx, t.links[s.rail].Cfg.Name, lost, s.acked)
	// A dark rail cannot drain a retransmission; leave it instead of
	// backing off on it. (Degraded rails never reach here: slow progress
	// is still progress.)
	if t.mgr != nil && t.links[s.rail].Fraction() == 0 {
		t.migrateStream(s, now)
		return
	}
	t.scheduleRecovery(s)
}

// railUsable reports whether rail r may accept streams right now: alive at
// the link layer and admitted by the rail manager (a restored-but-unprobed
// rail is not). Only rail mode picks rails, so the manager exists.
func (t *Transfer) railUsable(r int) bool {
	if t.links[r].Fraction() == 0 {
		return false
	}
	return t.mgr.State(r).Usable()
}

// pickRail chooses a failover target for s: the usable rail carrying the
// fewest live streams, ties to the lowest index — deterministic, so the
// same fault schedule migrates the same streams to the same rails.
func (t *Transfer) pickRail(s *stream) (int, bool) {
	loads := make([]int, len(t.links))
	for _, o := range t.streams {
		if !o.done {
			loads[o.rail]++
		}
	}
	best, found := -1, false
	for r := range t.links {
		if r == s.rail || !t.railUsable(r) {
			continue
		}
		if !found || loads[r] < loads[best] {
			best, found = r, true
		}
	}
	return best, found
}

// migrateStream moves a recovering stream (window already folded) onto a
// surviving rail and re-establishes there immediately — no backoff: the
// target rail is healthy, so the only latency is the control round trip.
// With no usable rail the stream parks on the retry ladder; a re-admitted
// rail will retarget it.
func (t *Transfer) migrateStream(s *stream, now sim.Time) {
	target, ok := t.pickRail(s)
	if !ok {
		s.kind = KindFailover
		t.eng.Tracef("rftp", "stream %d has no usable rail, parking on retry ladder", s.idx)
		t.scheduleRecovery(s)
		return
	}
	from := s.rail
	s.rail = target
	s.kind = KindFailover
	t.eng.Tracef("rftp", "stream %d failing over %s -> %s (offset %g)",
		s.idx, t.links[from].Cfg.Name, t.links[target].Cfg.Name, s.acked)
	t.attemptResume(s)
}

// moveStream cleanly migrates an actively-flowing stream to rail target
// (failback): progress is drained and folded in full — the rail is alive,
// ACKs arrive during the handover, so nothing is retransmitted and nothing
// is delivered twice.
func (t *Transfer) moveStream(s *stream, target int, now sim.Time) {
	if s.hedge != nil {
		t.hedgeLost(s)
	}
	t.sim.Sync()
	m := s.transfer.Transferred()
	t.retire(s.transfer)
	s.acked += m
	if !math.IsInf(s.remaining, 1) {
		s.remaining -= m
	}
	s.recovering = true
	s.kind = KindFailback
	s.faultAt = now
	from := s.rail
	s.rail = target
	t.eng.Tracef("rftp", "stream %d failing back %s -> %s (offset %g, clean)",
		s.idx, t.links[from].Cfg.Name, t.links[target].Cfg.Name, s.acked)
	t.attemptResume(s)
}

// onRailTransition is the rail manager's policy hook.
func (t *Transfer) onRailTransition(rail int, from, to railmgr.State, now sim.Time) {
	if t.failed || t.stopped || t.finished > 0 {
		return
	}
	switch {
	case to == railmgr.Dead:
		// The rail watcher normally beats this (watcher order), but any
		// stream still bound here — e.g. parked mid-backoff — must leave.
		for _, s := range t.streams {
			if s.rail != rail || s.done {
				continue
			}
			if !s.recovering {
				t.declareLoss(s, now)
				continue
			}
			if tgt, ok := t.pickRail(s); ok {
				s.rail = tgt
				s.kind = KindFailover
				t.eng.Tracef("rftp", "stream %d retargeted to %s mid-recovery",
					s.idx, t.links[tgt].Cfg.Name)
			}
		}
	case from == railmgr.Probing && to.Usable():
		t.failback(now)
	}
	t.rebalanceCredits()
}

// failback spreads streams back toward their home rails after a rail is
// re-admitted: every stream whose round-robin home is usable and who lives
// elsewhere migrates home — cleanly if it is flowing, by retarget if it is
// mid-recovery. Re-running the start-time assignment keeps the layout (and
// therefore the trace) a pure function of rail state.
func (t *Transfer) failback(now sim.Time) {
	for _, s := range t.streams {
		home := s.idx % len(t.links)
		if s.done || s.rail == home || !t.railUsable(home) {
			continue
		}
		if s.recovering {
			s.rail = home
			t.eng.Tracef("rftp", "stream %d retargeted home to %s mid-recovery",
				s.idx, t.links[home].Cfg.Name)
			continue
		}
		t.moveStream(s, home, now)
	}
}

// rebalanceCredits shifts the session's conserved credit pool toward
// healthy rails: each live stream's window cap is scaled by its rail's
// capacity fraction, normalized so the pool total is unchanged. Under
// uniform health every scale is 1 and the demands equal the start-time
// caps. Degradation therefore rebalances but never migrates — a degraded
// rail still delivers, and credits are cheaper to move than streams.
func (t *Transfer) rebalanceCredits() {
	if t.mgr == nil {
		return
	}
	// A rail's effective health is its visible capacity fraction times the
	// gray scorer's weight — a suspect rail sheds credits in proportion to
	// its measured shortfall even though its link layer claims full speed.
	eff := func(r int) float64 { return t.links[r].Fraction() * t.mgr.GrayWeight(r) }
	sumFrac, n := 0.0, 0
	for _, s := range t.streams {
		if s.done || s.recovering || !s.transfer.Active() {
			continue
		}
		sumFrac += eff(s.rail)
		n++
	}
	if n == 0 || sumFrac <= 0 {
		return
	}
	for _, s := range t.streams {
		if s.done || s.recovering || !s.transfer.Active() {
			continue
		}
		scale := eff(s.rail) * float64(n) / sumFrac
		t.sim.SetDemand(s.transfer.Flow, windowCap(t.Cfg, t.links[s.rail])*scale)
	}
}

// corrupted handles a silent bit flip on rail r: it lands on the
// lowest-index stream flowing there (nothing in flight → no payload hit).
// The checksum layer catches it at offload and re-transfers the block
// after a NACK round trip; without the checksum the corrupt block is
// delivered and only the violation counter knows.
func (t *Transfer) corrupted(r int) {
	if t.failed || t.stopped || t.finished > 0 {
		return
	}
	var victim *stream
	for _, s := range t.streams {
		if s.rail == r && !s.done && !s.recovering && s.transfer.Active() {
			victim = s
			break
		}
	}
	if victim == nil {
		t.eng.Tracef("rftp", "corruption on %s hit no payload in flight", t.links[r].Cfg.Name)
		return
	}
	if victim.hedge != nil {
		t.hedgeLost(victim)
	}
	now := t.eng.Now()
	if !t.Cfg.Checksum {
		t.IntegrityViolations++
		t.eng.Tracef("rftp", "SILENT corruption on stream %d (%s): corrupt block delivered, no checksum to catch it",
			victim.idx, t.links[r].Cfg.Name)
		return
	}
	t.sim.Sync()
	m := victim.transfer.Transferred()
	t.retire(victim.transfer)
	bs := math.Min(float64(t.Cfg.BlockSize), m)
	good := m - bs // everything before the corrupt block is fine
	victim.acked += good
	if !math.IsInf(victim.remaining, 1) {
		victim.remaining -= good
	}
	victim.recovering = true
	victim.kind = KindChecksum
	victim.faultAt = now
	t.Retransmitted += bs
	t.CorruptionsDetected++
	t.eng.Tracef("rftp", "checksum caught corrupt block on stream %d (%s): %g bytes to re-transfer",
		victim.idx, t.links[r].Cfg.Name, bs)
	t.nackRetry(victim)
}

// nackRetry runs the corrupt-block NACK round trip and resumes. The rail
// is healthy (corruption does not imply darkness), so a dropped NACK is a
// coincidence of faults: hand it to the recovery ladder when there is one,
// else retry after an RTT.
func (t *Transfer) nackRetry(s *stream) {
	l := t.links[s.rail]
	ok := l.Send(t.P.CtrlBytesPerBlock, func(now sim.Time) { t.resume(s, now) })
	if ok {
		return
	}
	if t.P.recoveryEnabled() {
		t.scheduleRecovery(s)
		return
	}
	delay := l.RTT()
	if delay <= 0 {
		delay = sim.Millisecond
	}
	t.eng.Schedule(delay, func() { t.nackRetry(s) })
}

// scheduleRecovery arms the next recovery attempt with exponential
// backoff, failing the transfer when retries are exhausted.
func (t *Transfer) scheduleRecovery(s *stream) {
	if t.failed || t.stopped || s.done {
		return
	}
	if s.retries >= t.P.MaxStreamRetries {
		t.fail(t.eng.Now())
		return
	}
	if s.kind == KindNone {
		// An item's opening exchange was dropped: retransmit it.
		s.kind = KindRetransmit
		s.faultAt = t.eng.Now()
	}
	backoff := t.P.RetryBackoff
	for i := 0; i < s.retries && backoff < t.P.RetryBackoffMax; i++ {
		backoff *= 2
	}
	if backoff > t.P.RetryBackoffMax {
		backoff = t.P.RetryBackoffMax
	}
	s.retries++
	s.pending = t.eng.Schedule(backoff, func() {
		s.pending = nil
		t.attemptResume(s)
	})
}

// attemptResume re-establishes the stream session: one control round trip
// on its rail. In rail mode a stream whose rail died while it waited is
// retargeted first. A drop (rail still dark) backs off and tries again.
func (t *Transfer) attemptResume(s *stream) {
	if t.failed || t.stopped || s.done {
		return
	}
	if t.mgr != nil && t.links[s.rail].Fraction() == 0 {
		if tgt, ok := t.pickRail(s); ok {
			s.rail = tgt
			s.kind = KindFailover
		}
	}
	l := t.links[s.rail]
	ok := l.Send(t.P.CtrlBytesPerBlock, func(sim.Time) {
		ok2 := l.Send(t.P.CtrlBytesPerBlock, func(now sim.Time) { t.resume(s, now) })
		if !ok2 {
			t.scheduleRecovery(s)
		}
	})
	if !ok {
		t.scheduleRecovery(s)
	}
}

// resume restarts the stream from its acked offset on a fresh flow on its
// current rail, crediting the counter matching the recovery kind.
func (t *Transfer) resume(s *stream, now sim.Time) {
	if t.failed || t.stopped || s.done {
		return
	}
	tr, err := t.buildStream(s, s.remaining)
	if err != nil {
		t.fail(now)
		return
	}
	s.transfer = tr
	t.sim.Start(tr)
	s.recovering = false
	s.retries = 0
	s.lastMoved = 0
	s.lastProgressAt = now
	t.resetMarks(s, now)
	lat := sim.Duration(now - s.faultAt)
	switch s.kind {
	case KindNone: // an item opening, not a recovery
	case KindFailover:
		t.Migrations++
		t.migrationLat = append(t.migrationLat, lat)
		t.eng.Tracef("rftp", "stream %d failed over to %s after %v: offset %g, %g to go",
			s.idx, t.links[s.rail].Cfg.Name, lat, s.acked, s.remaining)
	case KindFailback:
		t.Failbacks++
		t.eng.Tracef("rftp", "stream %d failed back to %s after %v: offset %g, %g to go",
			s.idx, t.links[s.rail].Cfg.Name, lat, s.acked, s.remaining)
	case KindChecksum:
		t.eng.Tracef("rftp", "stream %d re-transferring corrupt block on %s: offset %g, %g to go",
			s.idx, t.links[s.rail].Cfg.Name, s.acked, s.remaining)
	case KindHedge:
		t.eng.Tracef("rftp", "stream %d following hedge win onto %s after %v: offset %g, %g to go",
			s.idx, t.links[s.rail].Cfg.Name, lat, s.acked, s.remaining)
	default:
		t.Recoveries++
		t.recoveryLat = append(t.recoveryLat, lat)
		t.eng.Tracef("rftp", "stream %d re-established on %s after %v: offset %g, %g to go",
			s.idx, t.links[s.rail].Cfg.Name, lat, s.acked, s.remaining)
	}
	// s.kind deliberately survives the resume: it is cleared only once the
	// new attempt makes window-clearing (visible) progress, so outer
	// watchdogs keep their kind-scaled grace through the recovery's tail.
	t.rebalanceCredits()
}

// fail gives up after exhausted recovery: tear down and report once.
func (t *Transfer) fail(now sim.Time) {
	if t.failed || t.stopped {
		return
	}
	t.failed = true
	t.teardown()
	t.releaseEndpoints()
	t.eng.Tracef("rftp", "transfer failed: recovery exhausted")
	if t.OnFailure != nil {
		t.OnFailure(now)
	}
}

// teardown cancels everything in flight and stops the stall ticker and
// rail manager.
func (t *Transfer) teardown() {
	if t.ticker != nil {
		t.ticker.Stop()
		t.ticker = nil
	}
	if t.mgr != nil {
		t.mgr.Stop()
	}
	for _, s := range t.streams {
		if s.pending != nil {
			t.eng.Cancel(s.pending)
			s.pending = nil
		}
		if s.hedge != nil {
			t.hedgeLost(s)
		}
		t.retire(s.transfer)
	}
}

// Transferred returns total payload bytes delivered so far. Without
// recovery this is the raw fluid progress (plus any blocks folded by a
// checksum re-transfer). With recovery enabled it is the exactly-once
// delivered count: per stream, acked bytes plus current progress beyond
// the unacked credit window — never bytes that a later loss declaration
// could retransmit. It is monotonic across retransmissions, migrations and
// failbacks, so an outer scheduler may persist it as a resume offset
// (Params.StartOffset). A stopped or failed item session counts whole
// items only: a partial item is a frame without its trailer.
func (t *Transfer) Transferred() float64 {
	t.sim.Sync()
	wholeItems := t.items != nil && (t.stopped || t.failed)
	sum := 0.0
	w := t.window()
	for _, st := range t.streams {
		sum += st.base
		switch {
		case st.done:
			sum += st.acked
		case wholeItems:
		case !t.P.recoveryEnabled() && st.transfer != nil:
			sum += st.acked + st.transfer.Transferred()
		default:
			sum += st.acked
			if !st.recovering && st.transfer.Active() {
				sum += math.Max(0, st.transfer.Transferred()-w)
			}
		}
	}
	return sum
}

// Delivered returns how many items an item session has delivered.
func (t *Transfer) Delivered() int { return t.delivered }

// Bandwidth returns the average payload rate since the transfer started.
func (t *Transfer) Bandwidth() float64 {
	end := t.eng.Now()
	if t.finished > 0 {
		end = t.finished
	}
	el := float64(end - t.started)
	if el <= 0 {
		return 0
	}
	return t.Transferred() / el
}

// Finished returns the completion time (zero while running).
func (t *Transfer) Finished() sim.Time { return t.finished }

// Failed reports whether in-protocol recovery was exhausted.
func (t *Transfer) Failed() bool { return t.failed }

// Rails exposes the transfer's rail manager (nil unless Params.Rails).
func (t *Transfer) Rails() *railmgr.Manager { return t.mgr }

// ActiveRecovery returns the most expensive recovery kind currently in
// flight across the streams (KindNone when all are flowing). A stream
// counts as in flight from its loss declaration until its resumed attempt
// makes visible (window-clearing) progress — not merely until it resumes —
// because exactly-once Transferred() stays flat across that whole span.
func (t *Transfer) ActiveRecovery() RecoveryKind {
	worst := KindNone
	for _, s := range t.streams {
		if !s.done && s.kind > worst {
			worst = s.kind
		}
	}
	return worst
}

// SetupBudget returns the virtual time a fresh session may legitimately
// show zero progress: the handshake round trips on the slowest rail.
func (t *Transfer) SetupBudget() sim.Duration {
	var maxRTT sim.Duration
	for _, l := range t.links {
		if r := l.RTT(); r > maxRTT {
			maxRTT = r
		}
	}
	return sim.Duration(t.P.HandshakeRTTs) * maxRTT
}

// RecoveryGrace returns the extra no-progress allowance an outer watchdog
// should grant on top of its static budget, as a function of the active
// recovery kind. A retransmission needs one more detection beat at most; a
// migration may legitimately pay rail probing, a fresh session handshake,
// and — when its first target dies under it — a restarted backoff ladder.
// Zero when nothing is recovering, and bounded always: the watchdog stays
// armed as the last line of defense.
func (t *Transfer) RecoveryGrace() sim.Duration {
	switch t.ActiveRecovery() {
	case KindNone:
		return 0
	case KindRetransmit, KindChecksum:
		return t.P.AckTimeout + t.P.RetryBackoffMax
	default: // KindFailover, KindFailback
		g := t.P.RecoveryBudget() + t.SetupBudget()
		if t.mgr != nil {
			g += railmgr.ProbeBudget
		}
		return g
	}
}

// RecoveryLatencies returns one sample per successful same-rail recovery:
// virtual time from the loss declaration to the stream flowing again.
func (t *Transfer) RecoveryLatencies() []sim.Duration {
	out := make([]sim.Duration, len(t.recoveryLat))
	copy(out, t.recoveryLat)
	return out
}

// MigrationLatencies returns one sample per completed failover: virtual
// time from the loss declaration on the dead rail to the stream flowing
// on its new rail.
func (t *Transfer) MigrationLatencies() []sim.Duration {
	out := make([]sim.Duration, len(t.migrationLat))
	copy(out, t.migrationLat)
	return out
}

// Stop cancels an open-ended transfer's streams and any pending recovery.
func (t *Transfer) Stop() {
	t.stopped = true
	t.teardown()
	t.releaseEndpoints()
}

// StreamRates returns the per-stream current rates, for diagnostics.
func (t *Transfer) StreamRates() []float64 {
	out := make([]float64, len(t.streams))
	for i, st := range t.streams {
		if st.transfer != nil {
			out[i] = st.transfer.Flow.Rate()
		}
	}
	return out
}
