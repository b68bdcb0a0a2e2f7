package rftp

import (
	"fmt"
	"math"

	"e2edt/internal/fabric"
	"e2edt/internal/fluid"
	"e2edt/internal/host"
	"e2edt/internal/numa"
	"e2edt/internal/pipe"
	"e2edt/internal/sim"
)

// ObjectSpec names one object inside a coalesced batch window. Unlike
// FileSpec, a zero Size is legal: empty objects are real S3 traffic and
// must complete like any other (they ride the stream as a bare delimiter
// record, paying serialization but no payload).
type ObjectSpec struct {
	Key  string
	Size int64
}

// TotalObjectBytes sums an object list's payload.
func TotalObjectBytes(objs []ObjectSpec) float64 {
	total := 0.0
	for _, o := range objs {
		total += float64(o.Size)
	}
	return total
}

// BatchTransfer is a coalesced object window: many small objects share one
// RFTP session and its stream credit windows, with per-object delimiting
// instead of per-object control round trips. This is the protocol half of
// the objstore coalescing layer and the counterpoint to SetTransfer, which
// models the legacy per-file open/attribute exchange:
//
//   - One session handshake for the whole window (HandshakeRTTs), however
//     many objects it carries.
//   - Objects are framed back to back inside the stream: each pays
//     DelimBytesPerObject of in-band delimiter bytes and one extra block
//     posting, both pipelined with the data — no per-object RTT.
//   - Per-object completion is exactly-once: OnObject(i) fires exactly one
//     time for each object index, in the order the stream delivers them,
//     and never after Stop.
//
// The window is fail-fast (no in-protocol recovery ladder): an outer
// scheduler restarts a stalled window from its undelivered objects, which
// is all-or-nothing per object — partial object progress is discarded,
// exactly as a delimited frame without its trailer would be.
type BatchTransfer struct {
	Cfg     Config
	P       Params
	Objects []ObjectSpec

	sim      *fluid.Sim
	eng      *sim.Engine
	started  sim.Time
	finished sim.Time

	// Completed counts fully delivered objects.
	Completed int
	moved     float64
	done      []bool // exactly-once guard, by object index
	active    map[*fluid.Transfer]struct{}
	pending   int
	stopped   bool
	threads   []*host.Thread // session threads, released at teardown
	released  bool

	// OnObject fires exactly once per delivered object index.
	OnObject func(i int, now sim.Time)
	// OnComplete fires when every object in the window has been delivered.
	OnComplete func(now sim.Time)
}

// batchStream carries one stream's object queue and charge template.
type batchStream struct {
	link  *fabric.Link
	queue []int // object indices, delivered sequentially
	// mkFlow builds a flow carrying the per-object cost structure: the
	// steady per-byte/per-block costs plus the object's own delimiter and
	// framing amortized over its size.
	mkFlow func(name string, size float64) *fluid.Flow
}

// delimBytes returns the per-object delimiter size (length-prefixed record
// header plus trailer checksum), defaulting to 64 bytes.
func (p Params) delimBytes() float64 {
	if p.DelimBytesPerObject > 0 {
		return p.DelimBytesPerObject
	}
	return 64
}

// StartBatch launches a coalesced object window over the links. Objects are
// assigned to streams round-robin and delivered sequentially within a
// stream. onObject (optional) observes per-object completions; onComplete
// (optional) observes the window completing.
func StartBatch(links []*fabric.Link, senderHost *host.Host, cfg Config, p Params,
	src, dst pipe.Stage, objects []ObjectSpec,
	onObject func(i int, now sim.Time), onComplete func(now sim.Time)) (*BatchTransfer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(links) == 0 {
		return nil, fmt.Errorf("rftp: no links")
	}
	if len(objects) == 0 {
		return nil, fmt.Errorf("rftp: empty object window")
	}
	for _, o := range objects {
		if o.Size < 0 {
			return nil, fmt.Errorf("rftp: object %q has negative size", o.Key)
		}
	}
	t := &BatchTransfer{
		Cfg: cfg, P: p, Objects: objects,
		sim:        links[0].Sim(),
		eng:        links[0].Engine(),
		done:       make([]bool, len(objects)),
		active:     make(map[*fluid.Transfer]struct{}),
		pending:    len(objects),
		OnObject:   onObject,
		OnComplete: onComplete,
	}
	t.started = t.eng.Now()

	nstreams := cfg.Streams
	if nstreams > len(objects) {
		nstreams = len(objects)
	}
	streams := make([]*batchStream, nstreams)
	bs := float64(cfg.BlockSize)
	for i := range streams {
		l := links[i%len(links)]
		var sndNIC *host.Device
		switch senderHost {
		case l.A.Host:
			sndNIC = l.A
		case l.B.Host:
			sndNIC = l.B
		default:
			return nil, fmt.Errorf("rftp: sender %s not on link %s", senderHost.Name, l.Cfg.Name)
		}
		rcvNIC := l.Peer(sndNIC)
		mkThreads := func(nic *host.Device, role string) (*host.Thread, *host.Thread, *numa.Buffer) {
			h := nic.Host
			var proc *host.Process
			if cfg.Policy == numa.PolicyBind {
				proc = h.NewProcess(fmt.Sprintf("rftp-%s/%s/obj%d", role, l.Cfg.Name, i), numa.PolicyBind, nic.Node)
			} else {
				proc = h.NewProcess(fmt.Sprintf("rftp-%s/%s/obj%d", role, l.Cfg.Name, i), cfg.Policy, nil)
			}
			net, io := proc.NewThread(), proc.NewThread()
			var buf *numa.Buffer
			if node := net.Node(); node != nil {
				buf = h.M.NewBuffer("rftp-stage", node)
			} else {
				buf = h.M.InterleavedBuffer("rftp-stage")
			}
			return net, io, buf
		}
		sndNet, sndIO, sndBuf := mkThreads(sndNIC, "c")
		rcvNet, rcvIO, rcvBuf := mkThreads(rcvNIC, "s")
		t.threads = append(t.threads, sndNet, sndIO, rcvNet, rcvIO)

		demand := math.Inf(1)
		if rtt := float64(l.RTT()); rtt > 0 {
			demand = float64(cfg.CreditsPerStream) * bs / rtt
		}
		st := &batchStream{link: l}
		var mkErr error
		st.mkFlow = func(name string, size float64) *fluid.Flow {
			// Per-object overheads ride inside the stream, amortized over
			// the object body: delimiter bytes on the wire, one extra block
			// posting on each CPU. No per-object round trip — that is the
			// whole point of coalescing.
			extraWire := p.delimBytes() / size
			extraCPU := p.PerBlockCycles / size
			f := t.sim.NewFlow(name, demand)
			if err := src.Attach(f, sndIO, sndBuf, 1, "rftp"); err != nil {
				mkErr = err
			}
			sndNet.ChargeCPU(f, p.ProtoCyclesPerByte+p.PerBlockCycles/bs+extraCPU, host.CatUser)
			sndNIC.ChargeDMA(f, sndBuf, 1, false, "rftp")
			l.ChargeWire(f, sndNIC, 1+p.CtrlBytesPerBlock/bs+extraWire, "rftp")
			rcvNIC.ChargeDMA(f, rcvBuf, 1, true, "rftp")
			rcvNet.ChargeCPU(f, p.ProtoCyclesPerByte+p.PerBlockCycles/bs+extraCPU, host.CatUser)
			if err := dst.Attach(f, rcvIO, rcvBuf, 1, "rftp"); err != nil {
				mkErr = err
			}
			return f
		}
		// Probe the charge template once to surface stage errors.
		probe := st.mkFlow("rftp-obj-probe", 1)
		t.sim.Network.RemoveFlow(probe)
		if mkErr != nil {
			return nil, fmt.Errorf("rftp: stage: %w", mkErr)
		}
		streams[i] = st
	}
	for i := range objects {
		st := streams[i%len(streams)]
		st.queue = append(st.queue, i)
	}

	// One handshake for the whole window.
	handshake := sim.Duration(p.HandshakeRTTs) * sim.Duration(links[0].RTT())
	t.eng.Schedule(handshake, func() {
		if t.stopped {
			return
		}
		for _, st := range streams {
			t.next(st)
		}
	})
	return t, nil
}

// next delivers the stream's next object: its body as a fluid transfer, or
// — for an empty object — just the delimiter's serialization time.
func (t *BatchTransfer) next(st *batchStream) {
	if t.stopped || len(st.queue) == 0 {
		return
	}
	i := st.queue[0]
	st.queue = st.queue[1:]
	obj := t.Objects[i]
	if obj.Size == 0 {
		// A bare delimiter record: pipelined with the stream, so it costs
		// serialization time but no round trip and no fluid flow (the
		// solver panics on zero-size transfers, deliberately).
		delay := sim.Duration(0)
		if rate := st.link.Cfg.Rate; rate > 0 {
			delay = sim.Duration(t.P.delimBytes() / rate)
		}
		t.eng.Schedule(delay, func() {
			t.deliver(i, t.eng.Now())
			t.next(st)
		})
		return
	}
	f := st.mkFlow(fmt.Sprintf("rftp-obj/%s", obj.Key), float64(obj.Size))
	tr := &fluid.Transfer{Flow: f, Remaining: float64(obj.Size)}
	tr.OnComplete = func(now sim.Time) {
		delete(t.active, tr)
		t.deliver(i, now)
		t.next(st)
	}
	t.active[tr] = struct{}{}
	t.sim.Start(tr)
}

// deliver marks object i complete, exactly once.
func (t *BatchTransfer) deliver(i int, now sim.Time) {
	if t.stopped || t.done[i] {
		return
	}
	t.done[i] = true
	t.moved += float64(t.Objects[i].Size)
	t.Completed++
	t.pending--
	if t.OnObject != nil {
		t.OnObject(i, now)
	}
	if t.pending == 0 {
		t.finished = now
		t.release()
		if t.OnComplete != nil {
			t.OnComplete(now)
		}
	}
}

// release retires the window's per-thread limiter resources once no object
// flow can ever charge them again. Small-object workloads open windows at
// high rate; without this every window would leave its limiters in the
// fluid network forever and the solver's dirty scan would grow quadratic.
func (t *BatchTransfer) release() {
	if t.released {
		return
	}
	t.released = true
	for _, th := range t.threads {
		th.Release()
	}
}

// Stop cancels the window: in-flight object bodies are abandoned (their
// partial bytes are discarded — per-object delivery is all-or-nothing) and
// no further OnObject or OnComplete callbacks fire.
func (t *BatchTransfer) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	for tr := range t.active {
		t.sim.Cancel(tr)
	}
	t.active = nil
	t.release()
}

// Transferred returns payload bytes moved so far: completed objects plus
// in-flight object progress.
func (t *BatchTransfer) Transferred() float64 {
	if t.stopped {
		return t.moved
	}
	t.sim.Sync()
	sum := t.moved
	for tr := range t.active {
		sum += tr.Transferred()
	}
	return sum
}

// Delivered returns the number of objects delivered so far.
func (t *BatchTransfer) Delivered() int { return t.Completed }

// DeliveredIndex reports whether object i has been delivered.
func (t *BatchTransfer) DeliveredIndex(i int) bool { return t.done[i] }

// Bandwidth returns the average payload rate since start.
func (t *BatchTransfer) Bandwidth() float64 {
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
func (t *BatchTransfer) Finished() sim.Time { return t.finished }
