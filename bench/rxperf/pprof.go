package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// The CPU profile is rolled up per package, the package being the layer:
// each sample is charged to the innermost repro/internal/<pkg> frame on its
// stack, so an allocation counts against the layer that made it. Samples
// with no such frame (GC workers, the runtime's own housekeeping) are
// charged to "gc". The profile.proto format is decoded here directly, to
// keep the benchmark free of module dependencies.

// modulePrefix marks the simulator's layer packages in function names.
const modulePrefix = "repro/internal/"

// cpuProfile is the part of a profile.proto the rollup needs.
type cpuProfile struct {
	samples   []pbSample
	locations map[uint64][]uint64 // location id → function ids, innermost first
	functions map[uint64]int64    // function id → name's string-table index
	strings   []string
}

type pbSample struct {
	locations []uint64 // leaf first
	count     int64
}

// profileMetrics reads the CPU profile at path and returns prof.<pkg>.pct
// for every declared package, prof.gc.pct and prof.samples.
func profileMetrics(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	p, err := decodeProfile(data)
	if err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	counts, total := p.rollup()
	share := func(pkg string) float64 { return 100 * float64(counts[pkg]) / float64(max(total, 1)) }
	m := map[string]float64{"prof.samples": float64(total), "prof.gc.pct": share("gc")}
	for _, pkg := range profPackages {
		m["prof."+pkg+".pct"] = share(pkg)
	}
	return m, nil
}

// rollup returns the sample count charged to each package, and the total.
func (p *cpuProfile) rollup() (map[string]int64, int64) {
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		counts[p.layerOf(s)] += s.count
		total += s.count
	}
	return counts, total
}

// layerOf is the package of the innermost module frame on s's stack, or
// "gc" when it has none.
func (p *cpuProfile) layerOf(s pbSample) string {
	for _, loc := range s.locations {
		for _, fn := range p.locations[loc] {
			idx := p.functions[fn]
			if idx < 0 || int(idx) >= len(p.strings) {
				continue
			}
			name, ok := strings.CutPrefix(p.strings[idx], modulePrefix)
			if !ok {
				continue
			}
			if i := strings.IndexAny(name, "./"); i >= 0 {
				name = name[:i]
			}
			return name
		}
	}
	return "gc"
}

// decodeProfile parses a gzipped profile.proto.
func decodeProfile(data []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &cpuProfile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err = eachField(raw, func(num int, f pbField) error {
		switch num {
		case 2: // Profile.sample
			return p.decodeSample(f.bytes)
		case 4: // Profile.location
			return p.decodeLocation(f.bytes)
		case 5: // Profile.function
			return p.decodeFunction(f.bytes)
		case 6: // Profile.string_table
			p.strings = append(p.strings, string(f.bytes))
		}
		return nil
	})
	return p, err
}

func (p *cpuProfile) decodeSample(b []byte) error {
	var s pbSample
	first := true
	err := eachField(b, func(num int, f pbField) error {
		switch num {
		case 1: // Sample.location_id
			ids, err := f.uints()
			s.locations = append(s.locations, ids...)
			return err
		case 2: // Sample.value; the first is the sample count
			vals, err := f.uints()
			if first && len(vals) > 0 {
				s.count, first = int64(vals[0]), false
			}
			return err
		}
		return nil
	})
	p.samples = append(p.samples, s)
	return err
}

func (p *cpuProfile) decodeLocation(b []byte) error {
	var id uint64
	var fns []uint64
	err := eachField(b, func(num int, f pbField) error {
		switch num {
		case 1: // Location.id
			id = f.varint
		case 4: // Location.line: its function_id (field 1)
			return eachField(f.bytes, func(num int, lf pbField) error {
				if num == 1 {
					fns = append(fns, lf.varint)
				}
				return nil
			})
		}
		return nil
	})
	p.locations[id] = fns
	return err
}

func (p *cpuProfile) decodeFunction(b []byte) error {
	var id uint64
	var name int64
	err := eachField(b, func(num int, f pbField) error {
		switch num {
		case 1: // Function.id
			id = f.varint
		case 2: // Function.name
			name = int64(f.varint)
		}
		return nil
	})
	p.functions[id] = name
	return err
}

// pbField is one protobuf field: a varint, or length-delimited bytes.
type pbField struct {
	wire   int
	varint uint64
	bytes  []byte
}

// uints returns a repeated integer field's values, packed or not.
func (f pbField) uints() ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.varint}, nil
	}
	var out []uint64
	for b := f.bytes; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("bad packed varint")
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

// eachField calls fn for every field of the message encoded in b.
func eachField(b []byte, fn func(num int, f pbField) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		f := pbField{wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.varint, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length-delimited field")
			}
			f.bytes = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", f.wire)
		}
		if err := fn(int(key>>3), f); err != nil {
			return err
		}
	}
	return nil
}
