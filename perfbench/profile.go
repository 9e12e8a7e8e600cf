package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// flatProfile is a CPU profile reduced to flat (self) time: nanoseconds
// per layer of the leaf function, and per benchmark phase label. charged
// moves time whose leaf is in the Go runtime (allocation, zeroing, map
// access, write barriers) to the nearest calling layer; time with no
// caller outside the runtime, such as the garbage collector's workers,
// stays with the runtime.
type flatProfile struct {
	total   float64
	layer   map[string]float64
	charged map[string]float64
	phase   map[string]float64
}

func newFlatProfile() *flatProfile {
	return &flatProfile{layer: map[string]float64{}, charged: map[string]float64{}, phase: map[string]float64{}}
}

// profiler takes CPU profiles of alternate blocks of iterations and folds
// each into one flat profile.
type profiler struct {
	flat *flatProfile
	buf  bytes.Buffer
	on   bool
}

// toggle starts a profile, or stops the running one.
func (p *profiler) toggle() error {
	if p.on {
		return p.stop()
	}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	p.on = true
	return nil
}

// stop ends the running profile, if any, and adds it to the flat one.
func (p *profiler) stop() error {
	if !p.on {
		return nil
	}
	pprof.StopCPUProfile()
	p.on = false
	err := p.flat.add(p.buf.Bytes())
	p.buf.Reset()
	return err
}

// layerOf maps a function name to the layer that owns its package:
// marlin/internal/<layer>, the Go runtime, the benchmark itself, or other
// (the rest of the standard library).
func layerOf(fn string) string {
	pkg := fn
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		if j := strings.IndexByte(pkg[i:], '.'); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.IndexByte(pkg, '.'); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case strings.HasPrefix(pkg, "marlin/internal/"):
		layer, _, _ := strings.Cut(strings.TrimPrefix(pkg, "marlin/internal/"), "/")
		return layer
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "main":
		return "bench"
	}
	return "other"
}

// add decodes one gzipped pprof CPU profile and accumulates its samples.
// Only the fields flat attribution needs are read: each sample's leaf
// location, its CPU nanoseconds, and its "phase" label.
func (fp *flatProfile) add(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs   []uint64 // leaf first
		ns     int64
		labels [][2]uint64 // (key, value) string-table indices
	}
	var (
		strs    []string
		samples []sample
		locFns  = map[uint64][]uint64{} // location -> functions, innermost first
		fnName  = map[uint64]uint64{}   // function -> name string index
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			var locs, values []uint64
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					locs = appendPacked(locs, v, b)
				case 2:
					values = appendPacked(values, v, b)
				case 3:
					var kv [2]uint64
					if err := eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 || num == 2 {
							kv[num-1] = v
						}
						return nil
					}); err != nil {
						return err
					}
					s.labels = append(s.labels, kv)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(locs) == 0 || len(values) == 0 {
				return nil
			}
			s.locs = locs
			s.ns = int64(values[len(values)-1])
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line: inlined frames, innermost first
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFns[id] = fns
		case 5: // function
			var id, name uint64
			if err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			fnName[id] = name
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	str := func(i uint64) string {
		if i >= uint64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	for _, s := range samples {
		ns := float64(s.ns)
		fp.total += ns
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				frames = append(frames, layerOf(str(fnName[fn])))
			}
		}
		leaf, caller := "other", "runtime"
		if len(frames) > 0 {
			leaf = frames[0]
		}
		for _, l := range frames {
			if l != "runtime" {
				caller = l
				break
			}
		}
		fp.layer[leaf] += ns
		fp.charged[caller] += ns
		ph := "unlabeled"
		for _, kv := range s.labels {
			if str(kv[0]) == "phase" {
				ph = str(kv[1])
			}
		}
		fp.phase[ph] += ns
	}
	return nil
}

// eachField walks a protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			if err := fn(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either unpacked (v)
// or packed (b).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
