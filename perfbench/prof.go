package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// profGroups are the groups the CPU profile's flat samples are split
// into: the simulator's layers, the Go runtime's scheduler and channel
// code (goroutine park and handoff), its allocator and collector, and
// everything else.
var profGroups = []string{"sim", "cpu", "cache", "noc", "uli", "wsrt", "mem", "machine", "apps", "runtime", "gc", "other"}

// gcRoots are runtime functions whose presence anywhere on a sample's
// stack makes the sample allocation or garbage-collection work.
var gcRoots = []string{
	"runtime.mallocgc", "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart", "runtime.markroot",
}

// profiler collects CPU profiles over the traced passes of a run and
// sums their samples per group.
type profiler struct {
	buf     bytes.Buffer
	samples map[string]int64
}

func newProfiler() *profiler { return &profiler{samples: make(map[string]int64)} }

func (p *profiler) start() error {
	p.buf.Reset()
	return pprof.StartCPUProfile(&p.buf)
}

// stop ends the current profile and adds its samples.
func (p *profiler) stop() error {
	pprof.StopCPUProfile()
	return addProfile(p.buf.Bytes(), p.samples)
}

// shares returns each group's fraction of all samples.
func (p *profiler) shares() map[string]float64 {
	var total int64
	for _, n := range p.samples {
		total += n
	}
	out := make(map[string]float64, len(profGroups))
	for _, g := range profGroups {
		if total > 0 {
			out[g] = float64(p.samples[g]) / float64(total)
		}
	}
	return out
}

// groupOf maps a leaf function name to its group.
func groupOf(fn string) string {
	path, name := "", fn
	if i := strings.LastIndexByte(fn, '/'); i >= 0 {
		path, name = fn[:i+1], fn[i+1:]
	}
	pkg := name
	if i := strings.IndexByte(name, '.'); i >= 0 {
		pkg = name[:i]
	}
	switch {
	case path == "" && pkg == "runtime", path == "internal/runtime/", strings.HasPrefix(path, "runtime/internal/"):
		return "runtime"
	case path == "bigtiny/internal/":
		for _, g := range profGroups[:9] {
			if pkg == g {
				return g
			}
		}
	}
	return "other"
}

// addProfile decodes a gzipped pprof CPU profile and adds its sample
// counts, attributed to the group of each sample's leaf function (or to
// gc when a gcRoots function is on the stack), to into.
func addProfile(data []byte, into map[string]int64) error {
	if len(data) == 0 {
		return nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	var (
		strs    []string
		funcs   = map[uint64]int64{}    // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		samples []struct {
			locs  []uint64
			count int64
		}
	)
	err = pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s struct {
				locs  []uint64
				count int64
			}
			first := true
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					if vals := appendVarints(nil, v, b); first && len(vals) > 0 {
						s.count, first = int64(vals[0]), false
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return err
	}
	name := func(fid uint64) string {
		if i := funcs[fid]; i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	for _, s := range samples {
		group := "other"
		if len(s.locs) > 0 {
			if fns := locs[s.locs[0]]; len(fns) > 0 {
				group = groupOf(name(fns[0]))
			}
		}
	stack:
		for _, l := range s.locs {
			for _, fid := range locs[l] {
				n := name(fid)
				for _, root := range gcRoots {
					if n == root {
						group = "gc"
						break stack
					}
				}
			}
		}
		into[group] += s.count
	}
	return nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// pbFields walks the fields of one protobuf message, calling fn with
// the field number and either the varint value or the length-delimited
// bytes. Fixed-width fields are skipped.
func pbFields(b []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = varint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := varint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unknown wire type %d", wire)
		}
		if err := fn(field, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values: one value
// when the field was not packed (b == nil), else every packed value.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := varint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// varint decodes one base-128 varint, returning its length (0 when b
// ends first).
func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
