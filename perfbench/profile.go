package main

// Optional CPU profile of a run's timed calls (--cpuprofile), with the
// flat (self) CPU time of each Go package printed to stderr, so a
// performance change can cite the profile share of the layer it
// changed. The pprof file is a gzipped protocol buffer; the few fields
// needed are decoded here with the standard library alone.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
)

type profiler struct {
	path string
	f    *os.File
}

// startProfile starts CPU profiling into path; an empty path profiles
// nothing.
func startProfile(path string) (*profiler, error) {
	if path == "" {
		return &profiler{}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &profiler{path: path, f: f}, nil
}

// stop ends profiling and prints the per-package flat shares.
func (p *profiler) stop() error {
	if p.f == nil {
		return nil
	}
	pprof.StopCPUProfile()
	if err := p.f.Close(); err != nil {
		return err
	}
	shares, total, err := packageShares(p.path)
	if err != nil {
		return fmt.Errorf("reading %s: %w", p.path, err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: CPU profile %s: %.2f s sampled; flat share by package:\n", p.path, total)
	for _, s := range shares {
		if s.share >= 0.001 {
			fmt.Fprintf(os.Stderr, "  %6.2f%%  %s\n", 100*s.share, s.pkg)
		}
	}
	return nil
}

type pkgShare struct {
	pkg   string
	share float64
}

// packageShares attributes each sample's CPU time to the package of
// its leaf function (inlined frames count as the function they were
// inlined from), returning shares in decreasing order and the sampled
// CPU seconds.
func packageShares(path string) ([]pkgShare, float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, 0, err
	}
	buf, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	var (
		strs      []string
		funcName  = map[uint64]uint64{} // function id → name string index
		locFunc   = map[uint64]uint64{} // location id → leaf function id
		sampleLoc []uint64              // leaf location per sample
		sampleVal []int64               // last value (CPU ns) per sample
	)
	err = pbFields(buf, func(num, wire int, v uint64, data []byte) error {
		switch num {
		case 2: // Sample
			var locs []uint64
			var vals []uint64
			if err := pbFields(data, func(n, w int, v uint64, d []byte) error {
				switch n {
				case 1:
					locs = append(locs, pbUints(w, v, d)...)
				case 2:
					vals = append(vals, pbUints(w, v, d)...)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(locs) > 0 && len(vals) > 0 {
				sampleLoc = append(sampleLoc, locs[0])
				sampleVal = append(sampleVal, int64(vals[len(vals)-1]))
			}
		case 4: // Location
			var id, fn uint64
			seenLine := false
			if err := pbFields(data, func(n, w int, v uint64, d []byte) error {
				switch {
				case n == 1:
					id = v
				case n == 4 && !seenLine: // Line; the first is the leaf
					seenLine = true
					return pbFields(d, func(n, w int, v uint64, _ []byte) error {
						if n == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // Function
			var id, name uint64
			if err := pbFields(data, func(n, w int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	byPkg := map[string]int64{}
	var total int64
	for i, loc := range sampleLoc {
		name := ""
		if idx := funcName[locFunc[loc]]; idx < uint64(len(strs)) {
			name = strs[idx]
		}
		byPkg[packageOf(name)] += sampleVal[i]
		total += sampleVal[i]
	}
	var out []pkgShare
	for pkg, ns := range byPkg {
		out = append(out, pkgShare{pkg, float64(ns) / float64(max(total, 1))})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].share != out[j].share {
			return out[i].share > out[j].share
		}
		return out[i].pkg < out[j].pkg
	})
	return out, float64(total) / 1e9, nil
}

// packageOf maps a symbol such as
// "llmbench/internal/kvcache.(*Paged).MaxExtendSteps" to its import
// path, "llmbench/internal/kvcache". Type arguments of generic
// instantiations are cut first, since they hold paths of their own;
// symbols without a package (the runtime's assembly, such as
// aeshashbody) count as runtime.
func packageOf(fn string) string {
	if fn == "" {
		return "(unknown)"
	}
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return "runtime"
}

// pbFields walks the top-level fields of a protocol buffer message.
// Varint fields pass their value as v, length-delimited ones their
// bytes as data; fixed-width fields are skipped.
func pbFields(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	errTrunc := errors.New("truncated protocol buffer")
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTrunc
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errTrunc
			}
			b = b[n:]
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(b) < w {
				return errTrunc
			}
			b = b[w:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTrunc
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("unsupported protocol buffer wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// pbUints reads a repeated unsigned field in either encoding: one
// varint, or a packed run of them.
func pbUints(wire int, v uint64, data []byte) []uint64 {
	if wire == 0 {
		return []uint64{v}
	}
	var out []uint64
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		out = append(out, x)
		data = data[n:]
	}
	return out
}
