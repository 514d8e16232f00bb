package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the gzip-compressed profile.proto that
// runtime/pprof writes: only the fields needed to turn each sample into a
// stack of function names (sample values, location -> line -> function ->
// name). The module has no dependencies, so github.com/google/pprof is
// not available.

// protoField is one decoded field of a protobuf message.
type protoField struct {
	num  int
	wire int
	val  uint64 // wire type 0, 1, 5
	data []byte // wire type 2
}

// protoFields walks the top-level fields of a message.
func protoFields(b []byte, fn func(protoField) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		b = b[n:]
		f := protoField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint in field %d", f.num)
			}
			f.val, b = v, b[n:]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("profile: short fixed64 in field %d", f.num)
			}
			f.val, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("profile: bad length in field %d", f.num)
			}
			f.data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("profile: short fixed32 in field %d", f.num)
			}
			f.val, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d in field %d", f.wire, f.num)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// repeatedUint reads a repeated integer field, packed or not.
func repeatedUint(f protoField, dst []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.val), nil
	}
	b := f.data
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, fmt.Errorf("profile: bad packed varint in field %d", f.num)
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst, nil
}

// profSample is one stack with its weight (the profile's last sample
// value: CPU nanoseconds for a CPU profile).
type profSample struct {
	stack  []string // function names, leaf first, inlined frames expanded
	weight int64
}

// parseProfile decodes a pprof profile into weighted stacks of names.
func parseProfile(raw []byte) ([]profSample, error) {
	if len(raw) >= 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if raw, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples  []rawSample
		strs     []string
		locFuncs = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcName = map[uint64]uint64{}   // function id -> string index
	)
	err := protoFields(raw, func(f protoField) error {
		switch f.num {
		case 2: // sample
			var s rawSample
			err := protoFields(f.data, func(g protoField) (err error) {
				switch g.num {
				case 1:
					s.locs, err = repeatedUint(g, s.locs)
				case 2:
					s.values, err = repeatedUint(g, s.values)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := protoFields(f.data, func(g protoField) error {
				switch g.num {
				case 1:
					id = g.val
				case 4: // line
					return protoFields(g.data, func(h protoField) error {
						if h.num == 1 {
							fns = append(fns, h.val)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := protoFields(f.data, func(g protoField) error {
				switch g.num {
				case 1:
					id = g.val
				case 2:
					name = g.val
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ps := profSample{weight: int64(s.values[len(s.values)-1])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					ps.stack = append(ps.stack, strs[idx])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// layerOfStack attributes one stack to a layer. Garbage collection and
// allocation are recognised anywhere in the stack, because their leaves
// are anonymous runtime helpers; otherwise the sample belongs to the
// leaf-most frame inside dynmds/internal, so that a map probe or a
// memmove counts for the layer that asked for it. What is left, with no
// frame at all or none in a known layer, is runtime.other.
func layerOfStack(stack []string) string {
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.gcBgMarkWorker") || strings.HasPrefix(fn, "runtime.gcDrain") ||
			strings.HasPrefix(fn, "runtime.gcAssistAlloc") || strings.HasPrefix(fn, "runtime.bgsweep") {
			return "runtime.gc"
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.malloc") || strings.HasPrefix(fn, "runtime.newobject") ||
			strings.HasPrefix(fn, "runtime.growslice") || strings.HasPrefix(fn, "runtime.makeslice") {
			return "runtime.malloc"
		}
	}
	const prefix = "dynmds/internal/"
	for _, fn := range stack {
		rest, ok := strings.CutPrefix(fn, prefix)
		if !ok {
			continue
		}
		pkg, _, _ := strings.Cut(rest, ".")
		for _, l := range profileLayers {
			if l == pkg {
				return pkg
			}
		}
	}
	return "runtime.other"
}

// foldProfile returns each layer's share of the profile's CPU time. The
// shares sum to 1; an empty profile is all runtime.other.
func foldProfile(raw []byte) (map[string]float64, error) {
	samples, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	shares := make(map[string]float64, len(profileLayers))
	var total float64
	for _, s := range samples {
		if s.weight <= 0 {
			continue
		}
		shares[layerOfStack(s.stack)] += float64(s.weight)
		total += float64(s.weight)
	}
	if total == 0 {
		return map[string]float64{"runtime.other": 1}, nil
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}
