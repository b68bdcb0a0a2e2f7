// Package fsim is an XFS-like filesystem layer mounted on the LUNs a SAN
// session exports, matching the paper's front-end setup (§4.3): the
// initiator formats the iSER block devices with XFS, and the long-running
// RFTP and GridFTP pipelines reach them as file streams.
//
// A stream is one fluid flow that AttachStream charges with the full
// steady-state cost of reading or writing the file. The model captures the
// filesystem properties the paper's comparison turns on:
//
//   - spreading: each stream is spread evenly over all LUNs, so parallel
//     I/O exercises every LUN, link and NUMA node (XFS allocation groups);
//   - direct I/O versus the page cache: buffered I/O pays an extra memory
//     copy per byte on the front-end host — the "I/O cache effect" that
//     costs GridFTP dearly — while O_DIRECT hands application buffers
//     straight to the SAN;
//   - metadata/journal overhead: the journal is a write amplification on
//     LUN 0, and all I/O pays a small per-byte filesystem CPU cost.
package fsim

import (
	"errors"
	"fmt"

	"e2edt/internal/fluid"
	"e2edt/internal/host"
	"e2edt/internal/iscsi"
	"e2edt/internal/numa"
	"e2edt/internal/units"
)

// Errors returned by filesystem operations.
var (
	ErrNoSpace  = errors.New("fsim: no space left on device")
	ErrExists   = errors.New("fsim: file exists")
	ErrNotFound = errors.New("fsim: file not found")
)

// Options tune the filesystem model.
type Options struct {
	// JournalEveryBytes is the data written (buffered or direct) per
	// JournalBytes of journal traffic.
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
		JournalEveryBytes:      256 * units.MB,
		JournalBytes:           units.MB,
		FSCyclesPerByte:        0.03,
		PageCacheCyclesPerByte: 0.45,
	}
}

// FS is a mounted filesystem spread over a session's LUNs.
type FS struct {
	Sess *iscsi.Session
	// Host is the front-end host the filesystem is mounted on.
	Host *host.Host
	Opt  Options

	luns  []*iscsi.LUN
	files map[string]*File
	used  int64
	total int64
}

// Mount builds a filesystem over every LUN the session's target exports.
func Mount(sess *iscsi.Session, h *host.Host, opt Options) (*FS, error) {
	luns := sess.Target.LUNs()
	if len(luns) == 0 {
		return nil, fmt.Errorf("fsim: target exports no LUNs")
	}
	// Ascending LUN IDs: the lowest (LUN 0) carries the journal.
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
	}, nil
}

// Free returns unallocated bytes.
func (fs *FS) Free() int64 { return fs.total - fs.used }

// LUNCount returns how many LUNs every stream spreads over.
func (fs *FS) LUNCount() int { return len(fs.luns) }

// File is a fixed-size file spread across the filesystem's LUNs.
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

// IOOptions control one stream.
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

// AttachStream charges the full steady-state cost of streaming this file
// (read or write) onto flow fl: the SAN path spread across all LUNs, the
// filesystem CPU, journal write amplification, and — for buffered I/O —
// the page-cache copy.
func (f *File) AttachStream(fl *fluid.Flow, op iscsi.Op, o IOOptions, share float64) error {
	if err := o.validate(); err != nil {
		return err
	}
	sm := f.fs.Sess.Mover
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
