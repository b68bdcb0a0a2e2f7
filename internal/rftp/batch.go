package rftp

import (
	"fmt"

	"e2edt/internal/fabric"
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

// framing is how a session lays its work out on its streams, and the names
// its endpoint processes and flows trace under. A plain payload is split
// into one segment per stream. An item session (file set or object window)
// queues one segment per item, round-robin over its streams:
//
//   - A file set pays a per-file control exchange — the open/attribute
//     round trip — before each file body. This is the usual reason datasets
//     of small files transfer far below line rate even on a clean path.
//   - An object window frames objects back to back instead: each pays a
//     64-byte in-band delimiter (delimBytes) and one extra block posting,
//     both pipelined with the data — no per-object round trip. This is the
//     protocol half of the objstore coalescing layer.
type framing struct {
	// tag names an item session's processes and flows; empty for a payload.
	tag string
	// ctrl: a control round trip opens each item (file sets).
	ctrl bool
	// delimited: each item carries an in-band delimiter (object windows).
	delimited bool
}

var (
	payload      = framing{}
	fileSet      = framing{tag: "set", ctrl: true}
	objectWindow = framing{tag: "obj", delimited: true}
)

// delimBytes is the in-band framing cost of one object record inside a
// coalesced batch window: a length-prefixed record header plus a trailer
// checksum.
const delimBytes = 64

// StartSet launches a multi-file transfer. Each stream processes its file
// queue sequentially: per-file control round trip, then the file body.
// Every file must be non-empty. A set resumes by file, never by byte, so
// Params.StartOffset must be zero; every other field applies as in Start.
// Item flows are built as items open, so a stage that cannot be charged
// fails the session (OnFailure) at its first item rather than Start.
func StartSet(links []*fabric.Link, senderHost *host.Host, cfg Config, p Params,
	src, dst pipe.Stage, files []FileSpec, onComplete func(now sim.Time)) (*Transfer, error) {
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
	return start(fileSet, items, links, senderHost, cfg, p, src, dst, TotalBytes(files), nil, onComplete)
}

// StartBatch launches a coalesced object window over the links. Objects
// may be empty. onObject (optional) observes per-object completions;
// onComplete (optional) observes the window completing. Like StartSet it
// rejects a non-zero Params.StartOffset.
func StartBatch(links []*fabric.Link, senderHost *host.Host, cfg Config, p Params,
	src, dst pipe.Stage, objects []ObjectSpec,
	onObject func(i int, now sim.Time), onComplete func(now sim.Time)) (*Transfer, error) {
	if len(objects) == 0 {
		return nil, fmt.Errorf("rftp: empty object window")
	}
	total := 0.0
	for _, o := range objects {
		if o.Size < 0 {
			return nil, fmt.Errorf("rftp: object %q has negative size", o.Key)
		}
		total += float64(o.Size)
	}
	return start(objectWindow, objects, links, senderHost, cfg, p, src, dst, total, onObject, onComplete)
}
