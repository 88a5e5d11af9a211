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

// cpuLayers maps each cpu.* metric to the repository package whose frames
// it counts. cpu.gc counts the garbage collector's frames instead.
var cpuLayers = []struct{ metric, pkg string }{
	{"cpu.core", "repro/internal/core"},
	{"cpu.des", "repro/internal/des"},
	{"cpu.sched", "repro/internal/sched"},
	{"cpu.fluid", "repro/internal/fluid"},
	{"cpu.platform", "repro/internal/platform"},
	{"cpu.expr", "repro/internal/expr"},
	{"cpu.metrics", "repro/internal/metrics"},
	{"cpu.job", "repro/internal/job"},
}

// isGCFrame reports whether a runtime function does garbage-collection
// work: background and assist marking, sweeping, scavenging.
func isGCFrame(fn string) bool {
	switch fn {
	case "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone":
		return true
	}
	return strings.HasPrefix(fn, "runtime.gc")
}

// funcPackage returns the import path of a symbol such as
// "repro/internal/core.(*Engine).env".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// cpuShares holds profile samples attributed to layers: a sample counts
// for a layer when any frame on its stack (inlined frames included)
// belongs to it, so shares are inclusive and may sum past 1.
type cpuShares struct {
	total   int64
	byLayer map[string]int64
}

func newCPUShares() *cpuShares { return &cpuShares{byLayer: map[string]int64{}} }

// add attributes one gzipped (or raw) pprof CPU profile.
func (s *cpuShares) add(data []byte) error {
	p, err := decodeProfile(data)
	if err != nil {
		return err
	}
	funcName := map[uint64]string{}
	for id, nameIdx := range p.funcs {
		if nameIdx >= 0 && int(nameIdx) < len(p.strings) {
			funcName[id] = p.strings[nameIdx]
		}
	}
	for _, smp := range p.samples {
		if len(smp.values) == 0 {
			continue
		}
		n := smp.values[0]
		s.total += n
		hit := map[string]bool{}
		for _, loc := range smp.locations {
			for _, fid := range p.locations[loc] {
				fn := funcName[fid]
				if isGCFrame(fn) {
					hit["cpu.gc"] = true
				}
				pkg := funcPackage(fn)
				for _, l := range cpuLayers {
					if pkg == l.pkg {
						hit[l.metric] = true
					}
				}
			}
		}
		for m := range hit {
			s.byLayer[m] += n
		}
	}
	return nil
}

// share is a layer's inclusive fraction of all samples.
func (s *cpuShares) share(metric string) float64 {
	return ratio(float64(s.byLayer[metric]), float64(s.total))
}

// addTo reports every cpu.* metric.
func (s *cpuShares) addTo(r *Report) {
	for _, l := range cpuLayers {
		r.add(l.metric, s.share(l.metric), "ratio", int(s.total))
	}
	r.add("cpu.gc", s.share("cpu.gc"), "ratio", int(s.total))
}

// profile is the subset of profile.proto attribution needs.
type profile struct {
	samples   []profSample
	locations map[uint64][]uint64 // location id -> function ids (innermost first)
	funcs     map[uint64]int64    // function id -> name string index
	strings   []string
}

type profSample struct {
	locations []uint64
	values    []int64
}

// decodeProfile parses a pprof profile (gzip-compressed, as runtime/pprof
// writes it, or raw protobuf) with a minimal protobuf reader: the standard
// library ships no decoder for the format.
func decodeProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("decompressing profile: %w", err)
		}
	}
	p := &profile{locations: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch {
		case num == 2 && wire == 2: // sample
			var s profSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locations = appendVarints(s.locations, wire, v, b)
				case 2:
					for _, x := range appendVarints(nil, wire, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case num == 4 && wire == 2: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch {
				case num == 1:
					id = v
				case num == 4 && wire == 2: // line
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case num == 5 && wire == 2: // function
			var id uint64
			var name int64 = -1
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case num == 6 && wire == 2: // string table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("decoding profile: %w", err)
	}
	return p, nil
}

// appendVarints collects a repeated integer field in either encoding:
// one varint per field (wire type 0) or a packed run (wire type 2).
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks the fields of one protobuf message, passing varint
// values in v and length-delimited payloads in b.
func eachField(data []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		data = data[n:]
		num, wire := int(key>>3), int(key&7)
		var (
			v uint64
			b []byte
		)
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errTruncated
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errTruncated
			}
			v = binary.LittleEndian.Uint64(data)
			data = data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errTruncated
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errTruncated
			}
			v = uint64(binary.LittleEndian.Uint32(data))
			data = data[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}
