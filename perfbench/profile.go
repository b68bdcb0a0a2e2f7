package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuProfile accumulates runtime/pprof CPU-profile samples by the module
// each is attributed to (see attribute).
type cpuProfile struct {
	samples map[string]int64
	total   int64
}

func newCPUProfile() *cpuProfile { return &cpuProfile{samples: map[string]int64{}} }

// share returns the fraction of all samples attributed to module.
func (c *cpuProfile) share(module string) float64 {
	if c.total == 0 {
		return 0
	}
	return float64(c.samples[module]) / float64(c.total)
}

// add folds one gzip-compressed profile, as pprof.StopCPUProfile leaves it.
func (c *cpuProfile) add(compressed []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(compressed))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for _, s := range p.samples {
		var frames []string
		for _, id := range s.locations {
			for _, fn := range p.locations[id] {
				frames = append(frames, p.strings[p.functions[fn]])
			}
		}
		c.samples[attribute(frames)] += s.count
		c.total += s.count
	}
	return nil
}

// attribute names the module a CPU sample is charged to, given its stack
// leaf first. Background GC work is "gc"; the benchmark's own tracer and
// the engine's trace formatting are "trace"; anything else goes to the
// innermost e2edt/internal/<module> frame, or to "other" when there is
// none.
func attribute(frames []string) string {
	for _, f := range frames {
		if strings.HasPrefix(f, "runtime.gcBgMarkWorker") || f == "runtime.bgsweep" || f == "runtime.bgscavenge" {
			return "gc"
		}
	}
	for _, f := range frames {
		if f == "e2edt/internal/sim.(*Engine).Tracef" || strings.HasPrefix(f, "main.(*countingTracer)") {
			return "trace"
		}
	}
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, "e2edt/internal/"); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
			return rest
		}
	}
	return "other"
}

// profile is the part of a pprof profile (profile.proto) attribution needs.
type profile struct {
	samples   []profSample
	locations map[uint64][]uint64 // location id → function ids, innermost first
	functions map[uint64]int64    // function id → name's string-table index
	strings   []string
}

type profSample struct {
	locations []uint64 // leaf first
	count     int64    // the first sample value: samples taken
}

var errMalformed = errors.New("malformed protobuf")

// protoField is one decoded protobuf field: v holds a varint or fixed
// value, data a length-delimited payload.
type protoField struct {
	num, wire int
	v         uint64
	data      []byte
}

// fields decodes a protobuf message into its fields.
func fields(b []byte) ([]protoField, error) {
	var out []protoField
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errMalformed
		}
		b = b[n:]
		f := protoField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n = binary.Uvarint(b)
			if n <= 0 {
				return nil, errMalformed
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errMalformed
			}
			f.v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errMalformed
			}
			f.data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errMalformed
			}
			f.v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return nil, errMalformed
		}
		out = append(out, f)
	}
	return out, nil
}

// varints returns a repeated integer field's values, packed or not.
func (f protoField) varints() ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.v}, nil
	}
	var out []uint64
	for b := f.data; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errMalformed
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

func parseProfile(raw []byte) (*profile, error) {
	top, err := fields(raw)
	if err != nil {
		return nil, err
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	for _, f := range top {
		switch f.num {
		case 2: // sample
			var s profSample
			var values []uint64
			sub, err := fields(f.data)
			if err != nil {
				return nil, err
			}
			for _, g := range sub {
				vs, err := g.varints()
				if err != nil {
					return nil, err
				}
				switch g.num {
				case 1: // location_id
					s.locations = append(s.locations, vs...)
				case 2: // value
					values = append(values, vs...)
				}
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			p.samples = append(p.samples, s)
		case 4: // location
			sub, err := fields(f.data)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, g := range sub {
				switch g.num {
				case 1:
					id = g.v
				case 4: // line
					line, err := fields(g.data)
					if err != nil {
						return nil, err
					}
					for _, l := range line {
						if l.num == 1 {
							fns = append(fns, l.v)
						}
					}
				}
			}
			p.locations[id] = fns
		case 5: // function
			sub, err := fields(f.data)
			if err != nil {
				return nil, err
			}
			var id uint64
			var name int64
			for _, g := range sub {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = int64(g.v)
				}
			}
			p.functions[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(f.data))
		}
	}
	for _, name := range p.functions {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, errMalformed
		}
	}
	return p, nil
}
