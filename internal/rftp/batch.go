package rftp

import (
	"fmt"

	"e2edt/internal/fabric"
	"e2edt/internal/fluid"
	"e2edt/internal/host"
	"e2edt/internal/pipe"
	"e2edt/internal/sim"
)

// FileSpec names one file in a dataset transfer (StartSet).
type FileSpec struct {
	Name string
	Size int64
}

// TotalBytes sums a file list.
func TotalBytes(files []FileSpec) float64 {
	total := 0.0
	for _, f := range files {
		total += float64(f.Size)
	}
	return total
}

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

// BatchTransfer is an item session: many files or objects share one RFTP
// session. Items are assigned to streams round-robin and delivered one
// after another within a stream; one session handshake (HandshakeRTTs)
// covers them all. Two framings separate the items on a stream:
//
//   - A file set (StartSet) pays a per-file control exchange — the
//     open/attribute round trip — before each file body. This is the usual
//     reason datasets of small files transfer far below line rate even on
//     a clean path.
//   - An object window (StartBatch) frames objects back to back instead:
//     each pays a 64-byte in-band delimiter (delimBytes) and one
//     extra block posting, both pipelined with the data — no per-object
//     round trip. This is the protocol half of the objstore coalescing
//     layer.
//
// Per-item completion is exactly-once: OnObject(i) fires exactly one time
// for each item index, in the order the stream delivers them, and never
// after Stop.
//
// The session is fail-fast (no in-protocol recovery ladder): an outer
// scheduler restarts a stalled window from its undelivered items, which is
// all-or-nothing per item — partial item progress is discarded, exactly as
// a delimited frame without its trailer would be.
type BatchTransfer struct {
	Cfg     Config
	P       Params
	Objects []ObjectSpec

	frame    framing
	src, dst pipe.Stage
	sim      *fluid.Sim
	eng      *sim.Engine
	started  sim.Time
	finished sim.Time
	streams  []*itemStream

	// Completed counts fully delivered items.
	Completed int
	moved     float64
	done      []bool // exactly-once guard, by item index
	pending   int
	stopped   bool
	released  bool

	// OnObject fires exactly once per delivered item index.
	OnObject func(i int, now sim.Time)
	// OnComplete fires when every item in the session has been delivered.
	OnComplete func(now sim.Time)
}

// framing is how an item session separates items on a stream, and the
// process and flow names its sessions trace under.
type framing struct {
	proc  string // endpoint process name format: role, link, stream index
	flow  string // item flow name format: item key
	probe string // charge-template probe flow name
	// delimited frames items in-band (object windows); otherwise each item
	// pays a control round trip before its body (file sets).
	delimited bool
}

var (
	setFraming   = framing{proc: "rftp-%s/%s/set%d", flow: "rftp-set/%s", probe: "rftp-set-probe"}
	batchFraming = framing{proc: "rftp-%s/%s/obj%d", flow: "rftp-obj/%s", probe: "rftp-obj-probe", delimited: true}
)

// itemStream is one stream's link, endpoints and item queue.
type itemStream struct {
	link  *fabric.Link
	eps   endpoints
	queue []int // item indices, delivered sequentially
	// cur is the item body in flight, nil between bodies: a stream carries
	// one item at a time.
	cur *fluid.Transfer
}

// delimBytes is the in-band framing cost of one object record inside a
// coalesced batch window: a length-prefixed record header plus a trailer
// checksum.
const delimBytes = 64

// StartSet launches a multi-file transfer. Each stream processes its file
// queue sequentially: per-file control round trip, then the file body.
// Every file must be non-empty.
func StartSet(links []*fabric.Link, senderHost *host.Host, cfg Config, p Params,
	src, dst pipe.Stage, files []FileSpec, onComplete func(now sim.Time)) (*BatchTransfer, error) {
	if len(files) == 0 {
		return nil, fmt.Errorf("rftp: empty file set")
	}
	items := make([]ObjectSpec, len(files))
	for i, f := range files {
		if f.Size <= 0 {
			return nil, fmt.Errorf("rftp: file %q has non-positive size", f.Name)
		}
		items[i] = ObjectSpec{Key: f.Name, Size: f.Size}
	}
	return startItems(setFraming, links, senderHost, cfg, p, src, dst, items, nil, onComplete)
}

// StartBatch launches a coalesced object window over the links. Objects
// may be empty. onObject (optional) observes per-object completions;
// onComplete (optional) observes the window completing.
func StartBatch(links []*fabric.Link, senderHost *host.Host, cfg Config, p Params,
	src, dst pipe.Stage, objects []ObjectSpec,
	onObject func(i int, now sim.Time), onComplete func(now sim.Time)) (*BatchTransfer, error) {
	if len(objects) == 0 {
		return nil, fmt.Errorf("rftp: empty object window")
	}
	for _, o := range objects {
		if o.Size < 0 {
			return nil, fmt.Errorf("rftp: object %q has negative size", o.Key)
		}
	}
	return startItems(batchFraming, links, senderHost, cfg, p, src, dst, objects, onObject, onComplete)
}

// startItems builds min(Streams, items) streams, queues the items on them
// round-robin and schedules the session handshake.
func startItems(frame framing, links []*fabric.Link, senderHost *host.Host, cfg Config, p Params,
	src, dst pipe.Stage, items []ObjectSpec,
	onObject func(i int, now sim.Time), onComplete func(now sim.Time)) (*BatchTransfer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(links) == 0 {
		return nil, fmt.Errorf("rftp: no links")
	}
	t := &BatchTransfer{
		Cfg: cfg, P: p, Objects: items,
		frame: frame, src: src, dst: dst,
		sim:        links[0].Sim(),
		eng:        links[0].Engine(),
		done:       make([]bool, len(items)),
		pending:    len(items),
		OnObject:   onObject,
		OnComplete: onComplete,
	}
	t.started = t.eng.Now()

	t.streams = make([]*itemStream, min(cfg.Streams, len(items)))
	for i := range t.streams {
		l := links[i%len(links)]
		sndNIC, err := senderNIC(l, senderHost)
		if err != nil {
			return nil, err
		}
		st := &itemStream{link: l, eps: endpoints{
			snd: newSide(sndNIC, fmt.Sprintf(frame.proc, "c", l.Cfg.Name, i), cfg.Policy),
			rcv: newSide(l.Peer(sndNIC), fmt.Sprintf(frame.proc, "s", l.Cfg.Name, i), cfg.Policy),
		}}
		// Probe the charge template once to surface stage errors.
		probe, err := t.newFlow(st, frame.probe, 1)
		t.sim.Network.RemoveFlow(probe)
		if err != nil {
			return nil, err
		}
		t.streams[i] = st
	}
	for i := range items {
		st := t.streams[i%len(t.streams)]
		st.queue = append(st.queue, i)
	}

	// One handshake for the whole session.
	handshake := sim.Duration(p.HandshakeRTTs) * sim.Duration(links[0].RTT())
	t.eng.Schedule(handshake, func() {
		if t.stopped {
			return
		}
		for _, st := range t.streams {
			t.next(st)
		}
	})
	return t, nil
}

// newFlow builds a flow carrying an item's full cost structure on st. A
// delimited item adds its delimiter and framing, amortized over its size:
// delimiter bytes on the wire, one extra block posting on each CPU. No
// per-object round trip — that is the whole point of coalescing. Item
// sessions never charge the checksum.
func (t *BatchTransfer) newFlow(st *itemStream, name string, size float64) (*fluid.Flow, error) {
	var extraCPU, extraWire float64
	if t.frame.delimited {
		extraCPU = t.P.PerBlockCycles / size
		extraWire = delimBytes / size
	}
	f := t.sim.NewFlow(name, windowCap(t.Cfg, st.link))
	return f, st.eps.charge(f, st.link, t.P, t.Cfg, false, t.src, t.dst, extraCPU, extraWire)
}

// next opens the stream's next item: for a file set, the per-file
// open/attribute exchange (one control round trip) and then the body; for
// an object window, the body right away.
func (t *BatchTransfer) next(st *itemStream) {
	if t.stopped || len(st.queue) == 0 {
		return
	}
	i := st.queue[0]
	st.queue = st.queue[1:]
	if t.frame.delimited {
		t.send(st, i)
		return
	}
	st.link.Send(t.P.CtrlBytesPerBlock, func(sim.Time) {
		st.link.Send(t.P.CtrlBytesPerBlock, func(sim.Time) { t.send(st, i) })
	})
}

// send moves item i's body as a fluid transfer or — for an empty object —
// just the delimiter's serialization time, then opens the stream's next
// item.
func (t *BatchTransfer) send(st *itemStream, i int) {
	if t.stopped {
		return
	}
	obj := t.Objects[i]
	if obj.Size == 0 {
		// A bare delimiter record: pipelined with the stream, so it costs
		// serialization time but no round trip and no fluid flow (the
		// solver panics on zero-size transfers, deliberately).
		delay := sim.Duration(0)
		if rate := st.link.Cfg.Rate; rate > 0 {
			delay = sim.Duration(delimBytes / rate)
		}
		t.eng.Schedule(delay, func() {
			t.deliver(i, t.eng.Now())
			t.next(st)
		})
		return
	}
	// The probe already surfaced any stage error.
	f, _ := t.newFlow(st, fmt.Sprintf(t.frame.flow, obj.Key), float64(obj.Size))
	st.cur = &fluid.Transfer{Flow: f, Remaining: float64(obj.Size)}
	st.cur.OnComplete = func(now sim.Time) {
		st.cur = nil
		t.deliver(i, now)
		t.next(st)
	}
	t.sim.Start(st.cur)
}

// deliver marks item i complete, exactly once.
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

// release retires the session's per-thread limiter resources once no item
// flow can ever charge them again. Small-item workloads open sessions at
// high rate; without this every session would leave its limiters in the
// fluid network forever, growing every full solve without bound.
func (t *BatchTransfer) release() {
	if t.released {
		return
	}
	t.released = true
	for _, st := range t.streams {
		st.eps.release()
	}
}

// Stop cancels the session: in-flight item bodies are abandoned in stream
// order (their partial bytes are discarded — per-item delivery is
// all-or-nothing) and no further OnObject or OnComplete callbacks fire.
func (t *BatchTransfer) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	for _, st := range t.streams {
		if st.cur != nil {
			t.sim.Cancel(st.cur)
			st.cur = nil
		}
	}
	t.release()
}

// Transferred returns payload bytes moved so far: completed items plus
// in-flight item progress.
func (t *BatchTransfer) Transferred() float64 {
	if t.stopped {
		return t.moved
	}
	t.sim.Sync()
	sum := t.moved
	for _, st := range t.streams {
		if st.cur != nil {
			sum += st.cur.Transferred()
		}
	}
	return sum
}

// Delivered returns the number of items delivered so far.
func (t *BatchTransfer) Delivered() int { return t.Completed }

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
