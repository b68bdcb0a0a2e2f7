// Package blockdev models back-end storage media: NUMA-pinned RAM disks
// (the paper's tmpfs LUNs), flash SSDs with thermal throttling (the
// Fusion-IO drives the authors abandoned in §4.1), and magnetic disks.
//
// A device contributes two things to a data flow: its internal media
// bandwidth (with a small-block efficiency penalty for seek/flash-page
// overhead), and — for memory-backed devices — the NUMA placement of its
// backing pages, which the accessing layer (iSER target, filesystem)
// charges through the numa package.
package blockdev

import (
	"fmt"

	"e2edt/internal/fluid"
	"e2edt/internal/numa"
	"e2edt/internal/sim"
	"e2edt/internal/units"
)

// Device is the common interface for storage media.
type Device interface {
	// Name identifies the device.
	Name() string
	// Size is the device capacity in bytes.
	Size() int64
	// AttachIO charges device-internal costs (media bandwidth) for
	// streaming I/O at the given block size onto flow f, scaled by share
	// (bytes of device traffic per flow-byte; 1 for a dedicated flow).
	AttachIO(f *fluid.Flow, write bool, blockSize int64, share float64)
	// MemoryBuffer returns the NUMA buffer backing a memory device, or
	// nil for media devices.
	MemoryBuffer() *numa.Buffer
	// AccessLatency is the per-request latency.
	AccessLatency() sim.Duration
}

// Ramdisk is a tmpfs-style memory-backed device pinned to NUMA nodes via
// the mpol mount option. Its bandwidth is the host's memory bandwidth; the
// accessor charges it through the returned buffer.
type Ramdisk struct {
	name string
	size int64
	buf  *numa.Buffer
}

// NewRamdisk creates a memory-backed device on the given nodes (one node =
// mpol=bind, all nodes = mpol=interleave).
func NewRamdisk(m *numa.Machine, name string, size int64, homes ...*numa.Node) *Ramdisk {
	if size <= 0 {
		panic(fmt.Sprintf("blockdev: ramdisk %s needs positive size", name))
	}
	if m.Cfg.MemBytes > 0 && size > m.Cfg.MemBytes {
		panic(fmt.Sprintf("blockdev: ramdisk %s (%s) exceeds installed memory (%s)",
			name, units.FormatBytes(size), units.FormatBytes(m.Cfg.MemBytes)))
	}
	if len(homes) == 0 {
		homes = m.Nodes
	}
	return &Ramdisk{name: name, size: size, buf: m.NewBuffer(name, homes...)}
}

// Name implements Device.
func (r *Ramdisk) Name() string { return r.name }

// Size implements Device.
func (r *Ramdisk) Size() int64 { return r.size }

// AttachIO implements Device: a ramdisk adds no media constraint beyond
// the memory controllers already charged via MemoryBuffer.
func (r *Ramdisk) AttachIO(f *fluid.Flow, write bool, blockSize int64, share float64) {}

// MemoryBuffer implements Device.
func (r *Ramdisk) MemoryBuffer() *numa.Buffer { return r.buf }

// AccessLatency implements Device: DRAM-class.
func (r *Ramdisk) AccessLatency() sim.Duration { return 2 * sim.Microsecond }

// SSDConfig parameterizes a flash device.
type SSDConfig struct {
	Name string
	Size int64
	// ReadBandwidth/WriteBandwidth are the healthy media rates.
	ReadBandwidth, WriteBandwidth float64
	// ThrottledBandwidth is the rate under thermal protection (the paper
	// observed ≈500 MB/s).
	ThrottledBandwidth float64
	// ThermalBudgetBytes is how much sustained I/O the device absorbs
	// before throttling (the paper hit it after ~100 GB of continuous
	// I/O).
	ThermalBudgetBytes float64
	// CooldownSeconds restores full speed after this long below
	// DutyCycleThreshold utilization.
	CooldownSeconds float64
	// PageBytes is the flash page size driving small-block inefficiency.
	PageBytes int64
	// Latency is per-request access latency.
	Latency sim.Duration
}

// DefaultSSDConfig resembles the paper's PCIe flash drives.
func DefaultSSDConfig(name string, size int64) SSDConfig {
	return SSDConfig{
		Name: name, Size: size,
		ReadBandwidth:      1.5 * units.GBps,
		WriteBandwidth:     1.3 * units.GBps,
		ThrottledBandwidth: 500 * units.MBps,
		ThermalBudgetBytes: 100 * float64(units.GB),
		CooldownSeconds:    60,
		PageBytes:          8 * units.KB,
		Latency:            60 * sim.Microsecond,
	}
}

// SSD is a flash device with a thermal-throttling governor: sustained I/O
// beyond the thermal budget drops the media rate to ThrottledBandwidth
// until the device has idled for CooldownSeconds.
type SSD struct {
	cfg      SSDConfig
	sim      *fluid.Sim
	readRes  *fluid.Resource
	writeRes *fluid.Resource
	// readMedia and writeMedia account the bytes each media direction
	// moved; the governor reads them.
	readMedia  fluid.Account
	writeMedia fluid.Account
	heat       float64 // bytes of recent I/O, decays during idle
	throttled  bool
	idleSecs   float64
	lastRead   float64
	lastWrite  float64
	ticker     *sim.Ticker
}

// NewSSD registers a flash device with the simulator. The governor samples
// device activity once per simulated second.
func NewSSD(s *fluid.Sim, cfg SSDConfig) *SSD {
	if cfg.Size <= 0 || cfg.ReadBandwidth <= 0 || cfg.WriteBandwidth <= 0 {
		panic(fmt.Sprintf("blockdev: invalid SSD config %+v", cfg))
	}
	d := &SSD{
		cfg:      cfg,
		sim:      s,
		readRes:  s.AddResource(cfg.Name+"/read", cfg.ReadBandwidth),
		writeRes: s.AddResource(cfg.Name+"/write", cfg.WriteBandwidth),
	}
	d.ticker = s.Engine.NewTicker(sim.Second, func(sim.Time) { d.govern() })
	return d
}

// govern updates thermal state from the last second of media activity.
func (d *SSD) govern() {
	d.sim.Sync()
	r := d.sim.Used(&d.readMedia)
	w := d.sim.Used(&d.writeMedia)
	delta := (r - d.lastRead) + (w - d.lastWrite)
	d.lastRead, d.lastWrite = r, w
	d.heat += delta
	busy := delta > 0.05*d.cfg.ThrottledBandwidth
	if busy {
		d.idleSecs = 0
	} else {
		d.idleSecs++
		// Idle seconds shed heat.
		d.heat -= d.cfg.ThermalBudgetBytes / d.cfg.CooldownSeconds
		if d.heat < 0 {
			d.heat = 0
		}
	}
	switch {
	case !d.throttled && d.heat >= d.cfg.ThermalBudgetBytes:
		d.throttled = true
		d.sim.SetCapacity(d.readRes, d.cfg.ThrottledBandwidth)
		d.sim.SetCapacity(d.writeRes, d.cfg.ThrottledBandwidth)
	case d.throttled && d.idleSecs >= d.cfg.CooldownSeconds:
		d.throttled = false
		d.heat = 0
		d.sim.SetCapacity(d.readRes, d.cfg.ReadBandwidth)
		d.sim.SetCapacity(d.writeRes, d.cfg.WriteBandwidth)
	}
}

// Throttled reports whether thermal protection is active.
func (d *SSD) Throttled() bool { return d.throttled }

// Name implements Device.
func (d *SSD) Name() string { return d.cfg.Name }

// Size implements Device.
func (d *SSD) Size() int64 { return d.cfg.Size }

// AttachIO implements Device.
func (d *SSD) AttachIO(f *fluid.Flow, write bool, blockSize int64, share float64) {
	if share <= 0 {
		return
	}
	eff := blockEfficiency(blockSize, d.cfg.PageBytes)
	if write {
		f.UseTagged(d.writeRes, share/eff, &d.writeMedia)
	} else {
		f.UseTagged(d.readRes, share/eff, &d.readMedia)
	}
}

// MemoryBuffer implements Device: flash is not host memory.
func (d *SSD) MemoryBuffer() *numa.Buffer { return nil }

// AccessLatency implements Device.
func (d *SSD) AccessLatency() sim.Duration { return d.cfg.Latency }

// HDDConfig parameterizes a magnetic disk.
type HDDConfig struct {
	Name string
	Size int64
	// SequentialBandwidth is the streaming media rate.
	SequentialBandwidth float64
	// SeekTime is the average positioning time charged per request.
	SeekTime sim.Duration
}

// DefaultHDDConfig resembles a 7200 RPM SAS drive.
func DefaultHDDConfig(name string, size int64) HDDConfig {
	return HDDConfig{
		Name: name, Size: size,
		SequentialBandwidth: 150 * units.MBps,
		SeekTime:            8 * sim.Millisecond,
	}
}

// HDD is a magnetic disk: streaming bandwidth with a per-request seek cost
// folded into a block-size-dependent efficiency.
type HDD struct {
	cfg HDDConfig
	res *fluid.Resource
}

// NewHDD registers a magnetic disk.
func NewHDD(s *fluid.Sim, cfg HDDConfig) *HDD {
	if cfg.Size <= 0 || cfg.SequentialBandwidth <= 0 {
		panic(fmt.Sprintf("blockdev: invalid HDD config %+v", cfg))
	}
	return &HDD{cfg: cfg, res: s.AddResource(cfg.Name+"/media", cfg.SequentialBandwidth)}
}

// Name implements Device.
func (d *HDD) Name() string { return d.cfg.Name }

// Size implements Device.
func (d *HDD) Size() int64 { return d.cfg.Size }

// AttachIO implements Device: effective rate for block size B is
// B / (B/rate + seek), expressed as an inflated media coefficient.
func (d *HDD) AttachIO(f *fluid.Flow, write bool, blockSize int64, share float64) {
	if share <= 0 {
		return
	}
	if blockSize <= 0 {
		blockSize = units.MB
	}
	xfer := float64(blockSize) / d.cfg.SequentialBandwidth
	eff := xfer / (xfer + float64(d.cfg.SeekTime))
	f.Use(d.res, share/eff)
}

// MemoryBuffer implements Device.
func (d *HDD) MemoryBuffer() *numa.Buffer { return nil }

// AccessLatency implements Device.
func (d *HDD) AccessLatency() sim.Duration { return d.cfg.SeekTime }

// blockEfficiency returns the fraction of media bandwidth usable at the
// given block size for a device with fixed per-page overhead.
func blockEfficiency(blockSize, pageBytes int64) float64 {
	if blockSize <= 0 || pageBytes <= 0 {
		return 1
	}
	// Overhead of ~2% per page, amortized over larger blocks.
	pages := float64(blockSize) / float64(pageBytes)
	if pages < 1 {
		pages = 1
	}
	return pages / (pages + 0.5)
}
