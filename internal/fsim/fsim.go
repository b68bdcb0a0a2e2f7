// Package fsim is an XFS-like filesystem layer mounted on the LUNs a SAN
// session exports, matching the paper's front-end setup (§4.3): the
// initiator formats the iSER block devices with XFS and applications reach
// them through POSIX interfaces.
//
// The model captures the filesystem properties the paper's comparison
// turns on:
//
//   - striping: files spread across all LUNs in stripe-sized extents, so
//     parallel I/O exercises every LUN, link and NUMA node (XFS allocation
//     groups);
//   - direct I/O versus the page cache: buffered I/O pays an extra memory
//     copy per byte on the front-end host — the "I/O cache effect" that
//     costs GridFTP dearly — while O_DIRECT hands application buffers
//     straight to the SAN;
//   - metadata/journal overhead: writes periodically emit small journal
//     commands and all I/O pays a small per-byte filesystem CPU cost.
package fsim

import (
	"errors"
	"fmt"

	"e2edt/internal/fluid"
	"e2edt/internal/host"
	"e2edt/internal/iscsi"
	"e2edt/internal/numa"
	"e2edt/internal/sim"
	"e2edt/internal/units"
)

// Errors returned by filesystem operations.
var (
	ErrNoSpace   = errors.New("fsim: no space left on device")
	ErrExists    = errors.New("fsim: file exists")
	ErrNotFound  = errors.New("fsim: file not found")
	ErrBadRange  = errors.New("fsim: I/O beyond end of file")
	ErrStreaming = errors.New("fsim: session mover does not support streaming")
)

// Options tune the filesystem model.
type Options struct {
	// StripeSize is the per-LUN extent size (XFS stripe unit).
	StripeSize int64
	// JournalEveryBytes emits one journal write per this many data bytes
	// written (buffered or direct).
	JournalEveryBytes int64
	// JournalBytes is the size of each journal write.
	JournalBytes int64
	// FSCyclesPerByte is filesystem request processing CPU.
	FSCyclesPerByte float64
	// PageCacheCyclesPerByte is the buffered-I/O copy cost per byte.
	PageCacheCyclesPerByte float64
}

// DefaultOptions returns XFS-like settings.
func DefaultOptions() Options {
	return Options{
		StripeSize:             4 * units.MB,
		JournalEveryBytes:      256 * units.MB,
		JournalBytes:           units.MB,
		FSCyclesPerByte:        0.03,
		PageCacheCyclesPerByte: 0.45,
	}
}

// FS is a mounted filesystem striped over a session's LUNs.
type FS struct {
	Sess *iscsi.Session
	// Host is the front-end host the filesystem is mounted on.
	Host *host.Host
	Opt  Options

	luns  []*iscsi.LUN
	files map[string]*File
	used  int64
	total int64
	eng   *sim.Engine
	// journalDebt accumulates written bytes until a journal flush is due.
	journalDebt int64
	// JournalWrites counts emitted journal commands.
	JournalWrites int64
}

// Mount builds a filesystem over every LUN the session's target exports.
func Mount(sess *iscsi.Session, h *host.Host, opt Options) (*FS, error) {
	if opt.StripeSize <= 0 {
		return nil, fmt.Errorf("fsim: StripeSize must be positive")
	}
	luns := sess.Target.LUNs()
	if len(luns) == 0 {
		return nil, fmt.Errorf("fsim: target exports no LUNs")
	}
	// Deterministic stripe order.
	for i := 0; i < len(luns); i++ {
		for j := i + 1; j < len(luns); j++ {
			if luns[j].ID < luns[i].ID {
				luns[i], luns[j] = luns[j], luns[i]
			}
		}
	}
	total := int64(0)
	for _, l := range luns {
		total += l.Dev.Size()
	}
	return &FS{
		Sess: sess, Host: h, Opt: opt,
		luns:  luns,
		files: make(map[string]*File),
		total: total,
		eng:   h.Sim.Engine,
	}, nil
}

// Free returns unallocated bytes.
func (fs *FS) Free() int64 { return fs.total - fs.used }

// LUNCount returns the stripe width.
func (fs *FS) LUNCount() int { return len(fs.luns) }

// File is a fixed-size file striped across the filesystem's LUNs.
type File struct {
	Name string
	Size int64
	fs   *FS
}

// Create allocates a file of the given size.
func (fs *FS) Create(name string, size int64) (*File, error) {
	if _, dup := fs.files[name]; dup {
		return nil, ErrExists
	}
	if size <= 0 {
		return nil, fmt.Errorf("fsim: file size must be positive")
	}
	if size > fs.Free() {
		return nil, ErrNoSpace
	}
	f := &File{Name: name, Size: size, fs: fs}
	fs.files[name] = f
	fs.used += size
	return f, nil
}

// Open looks up an existing file.
func (fs *FS) Open(name string) (*File, error) {
	f, ok := fs.files[name]
	if !ok {
		return nil, ErrNotFound
	}
	return f, nil
}

// Remove frees a file.
func (fs *FS) Remove(name string) error {
	f, ok := fs.files[name]
	if !ok {
		return ErrNotFound
	}
	fs.used -= f.Size
	delete(fs.files, name)
	return nil
}

// lunFor maps a file offset to its stripe LUN.
func (fs *FS) lunFor(off int64) *iscsi.LUN {
	stripe := off / fs.Opt.StripeSize
	return fs.luns[int(stripe)%len(fs.luns)]
}

// pageCacheCharge attaches the buffered-I/O page-cache copy: one extra
// memcpy between the page cache and the application buffer. The kernel
// page cache spans gigabytes and spills across nodes regardless of the
// process's numactl policy, so it is modelled as interleaved memory.
func (fs *FS) pageCacheCharge(f *fluid.Flow, th *host.Thread, appBuf *numa.Buffer, write bool, share float64) {
	cache := fs.Host.M.InterleavedBuffer("pagecache")
	if write {
		// App buffer → page cache.
		th.ChargeCopy(f, appBuf, cache, share, fs.Opt.PageCacheCyclesPerByte, host.CatCopy)
	} else {
		// Page cache → app buffer.
		th.ChargeCopy(f, cache, appBuf, share, fs.Opt.PageCacheCyclesPerByte, host.CatCopy)
	}
}

// IOOptions control one I/O request or stream.
type IOOptions struct {
	// Thread is the application thread performing the I/O.
	Thread *host.Thread
	// Buffer is the application data buffer.
	Buffer *numa.Buffer
	// Direct selects O_DIRECT (no page-cache copy).
	Direct bool
}

func (o IOOptions) validate() error {
	if o.Thread == nil || o.Buffer == nil {
		return fmt.Errorf("fsim: I/O needs a thread and a buffer")
	}
	return nil
}

// ReadAt issues a read of [off, off+length) and calls done on completion.
func (f *File) ReadAt(off, length int64, o IOOptions, done func(now sim.Time, err error)) {
	f.io(iscsi.OpRead, off, length, o, done)
}

// WriteAt issues a write of [off, off+length); journal traffic is added
// according to the filesystem options.
func (f *File) WriteAt(off, length int64, o IOOptions, done func(now sim.Time, err error)) {
	f.io(iscsi.OpWrite, off, length, o, done)
}

// io splits the request along stripe boundaries and fans it out.
func (f *File) io(op iscsi.Op, off, length int64, o IOOptions, done func(sim.Time, error)) {
	fail := func(err error) {
		f.fs.eng.Schedule(0, func() { done(f.fs.eng.Now(), err) })
	}
	if err := o.validate(); err != nil {
		fail(err)
		return
	}
	if length <= 0 || off < 0 || off+length > f.Size {
		fail(ErrBadRange)
		return
	}
	total := length
	type piece struct {
		lun    *iscsi.LUN
		length int64
	}
	var pieces []piece
	for length > 0 {
		stripeEnd := (off/f.fs.Opt.StripeSize + 1) * f.fs.Opt.StripeSize
		n := stripeEnd - off
		if n > length {
			n = length
		}
		pieces = append(pieces, piece{f.fs.lunFor(off), n})
		off += n
		length -= n
	}
	remaining := len(pieces)
	var firstErr error
	for _, p := range pieces {
		p := p
		charge := func(fl *fluid.Flow) {
			o.Thread.ChargeCPU(fl, f.fs.Opt.FSCyclesPerByte, host.CatIO)
			if !o.Direct {
				f.fs.pageCacheCharge(fl, o.Thread, o.Buffer, op == iscsi.OpWrite, 1)
			}
		}
		f.fs.Sess.Submit(&iscsi.Command{
			Op: op, LUN: p.lun.ID,
			Offset: 0, Length: p.length,
			Buffer: o.Buffer, Charge: charge,
			OnComplete: func(now sim.Time, err error) {
				if err != nil && firstErr == nil {
					firstErr = err
				}
				remaining--
				if remaining == 0 {
					done(now, firstErr)
				}
			},
		})
	}
	if op == iscsi.OpWrite {
		f.fs.maybeJournal(o, total)
	}
}

// maybeJournal emits one small journal write per JournalEveryBytes of data
// written (metadata and log traffic).
func (fs *FS) maybeJournal(o IOOptions, written int64) {
	if fs.Opt.JournalEveryBytes <= 0 || fs.Opt.JournalBytes <= 0 {
		return
	}
	fs.journalDebt += written
	for fs.journalDebt >= fs.Opt.JournalEveryBytes {
		fs.journalDebt -= fs.Opt.JournalEveryBytes
		fs.JournalWrites++
		fs.Sess.Submit(&iscsi.Command{
			Op: iscsi.OpWrite, LUN: fs.luns[0].ID,
			Offset: 0, Length: fs.Opt.JournalBytes,
			Buffer: o.Buffer, Tag: "journal",
			OnComplete: func(sim.Time, error) {},
		})
	}
}

// Sync flushes the journal: a small write to LUN 0.
func (fs *FS) Sync(o IOOptions, done func(now sim.Time, err error)) {
	if err := o.validate(); err != nil {
		fs.eng.Schedule(0, func() { done(fs.eng.Now(), err) })
		return
	}
	fs.Sess.Submit(&iscsi.Command{
		Op: iscsi.OpWrite, LUN: fs.luns[0].ID,
		Offset: 0, Length: fs.Opt.JournalBytes,
		Buffer: o.Buffer, Tag: "journal",
		OnComplete: done,
	})
}

// AttachStream charges the full steady-state cost of streaming this file
// (read or write) onto flow fl: the SAN path spread across all LUNs, the
// filesystem CPU, journal write amplification, and — for buffered I/O —
// the page-cache copy. The session's mover must support streaming.
func (f *File) AttachStream(fl *fluid.Flow, op iscsi.Op, o IOOptions, share float64) error {
	if err := o.validate(); err != nil {
		return err
	}
	sm, ok := f.fs.Sess.Mover.(iscsi.StreamMover)
	if !ok {
		return ErrStreaming
	}
	per := share / float64(len(f.fs.luns))
	for _, l := range f.fs.luns {
		sm.AttachPath(fl, op, l.ID, o.Buffer, per)
	}
	o.Thread.ChargeCPU(fl, share*f.fs.Opt.FSCyclesPerByte, host.CatIO)
	if op == iscsi.OpWrite && f.fs.Opt.JournalEveryBytes > 0 {
		// Journal amplification: extra SAN writes to LUN 0.
		amp := share * float64(f.fs.Opt.JournalBytes) / float64(f.fs.Opt.JournalEveryBytes)
		sm.AttachPath(fl, iscsi.OpWrite, f.fs.luns[0].ID, o.Buffer, amp)
	}
	if !o.Direct {
		f.fs.pageCacheCharge(fl, o.Thread, o.Buffer, op == iscsi.OpWrite, share)
	}
	return nil
}
