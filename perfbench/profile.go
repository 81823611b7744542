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

// Host-time attribution. The traced run takes a CPU profile of its own
// process and keeps the samples labelled phase=op, those of the timed
// operations; every such sample's CPU time is charged to the layer of
// the innermost stack frame that belongs to this module. Frames of the
// standard library and the Go runtime are skipped, so math.Pow called
// from the Zipf generator counts toward workloads and an allocation made
// by the kernel model counts toward kernel. Samples with no module frame
// at all go to runtime. Background runtime goroutines (GC mark workers,
// the scavenger) carry no label, so their unlabelled samples are charged
// to runtime in proportion to the timed operations' share of the heap
// allocation that drives them.

// layers lists every host-time layer in report order.
var layers = []string{
	"cache", "dram", "translate", "walk", "kernel", "workloads",
	"container", "sim", "fleet", "experiments", "bench", "other", "runtime",
}

// packageLayer maps each internal package of the simulator to its layer.
var packageLayer = map[string]string{
	"cache": "cache", "cacti": "cache", "memsys": "cache",
	"dram": "dram",
	"mmu":  "translate", "tlb": "translate", "xcache": "translate", "xlatpolicy": "translate",
	"pwc": "walk", "pgtable": "walk",
	"kernel": "kernel", "physmem": "kernel", "faultinject": "kernel",
	"workloads": "workloads", "ycsb": "workloads", "kvstore": "workloads",
	"graph": "workloads", "faasfn": "workloads",
	"container": "container",
	"sim":       "sim", "telemetry": "sim", "metrics": "sim", "obs": "sim",
	"trace": "sim", "memdefs": "sim",
	"fleet": "fleet", "loadgen": "fleet", "par": "fleet",
	"experiments": "experiments",
}

const module = "babelfish"

// symbolPackage returns the import path of a Go function symbol such as
// "babelfish/internal/sim.(*Machine).Run.func1" or "main.main". Type
// arguments of generic instantiations are cut first: they may contain
// dots and slashes of other packages.
func symbolPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerOf returns the layer a function symbol belongs to, or "" for a
// frame outside this module (standard library, runtime).
func layerOf(fn string) string {
	pkg := symbolPackage(fn)
	switch {
	case pkg == "main" || strings.HasPrefix(pkg, module+"/perfbench"):
		return "bench"
	case pkg == module:
		return "sim" // the public facade over sim
	case strings.HasPrefix(pkg, module+"/internal/"):
		name := strings.TrimPrefix(pkg, module+"/internal/")
		if i := strings.IndexByte(name, '/'); i >= 0 {
			name = name[:i]
		}
		if l, ok := packageLayer[name]; ok {
			return l
		}
		return "other"
	case strings.HasPrefix(pkg, module+"/"):
		return "other"
	}
	return ""
}

// attribute returns the layer charged for one stack, given leaf first.
func attribute(stack []string) string {
	for _, fn := range stack {
		if l := layerOf(fn); l != "" {
			return l
		}
	}
	return "runtime"
}

// layerShares attributes the samples of a profile's timed operations
// and returns each layer's share of their CPU time, in percent, plus the
// number of samples used. Unlabelled samples with no module frame count
// toward runtime with weight bgWeight, the timed operations' share of
// the profiled allocation; other unlabelled samples are set-up or the
// benchmark's checks and are left out.
func layerShares(p *cpuProfile, bgWeight float64) (map[string]float64, int) {
	ns := map[string]float64{}
	total := 0.0
	n := 0
	for _, s := range p.samples {
		l, w := attribute(s.stack), 1.0
		if s.labels[opLabel] != opPhase {
			if l != "runtime" {
				continue
			}
			w = bgWeight
		}
		ns[l] += w * float64(s.value)
		total += w * float64(s.value)
		n++
	}
	shares := make(map[string]float64, len(layers))
	for _, l := range layers {
		if total > 0 {
			shares[l] = 100 * ns[l] / total
		} else {
			shares[l] = 0
		}
	}
	return shares, n
}

// cpuProfile is the part of a pprof CPU profile attribution needs: each
// sample's stack of function names (leaf first, inlined frames expanded),
// its string labels and its CPU time in nanoseconds.
type cpuProfile struct {
	samples []profSample
}

type profSample struct {
	stack  []string
	labels map[string]string
	value  int64
}

// parseProfile decodes a gzipped pprof protobuf as written by
// runtime/pprof. Only the standard library is available, so this reads
// the handful of fields it needs straight from the wire format.
func parseProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
		labels [][2]uint64 // key and value string indexes
	}
	var (
		samples []rawSample
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]int64{}    // function id -> string table index
		strs    []string
	)
	err = walkFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s rawSample
			err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, w, v, b)
				case 2:
					var u []uint64
					if err := appendVarints(&u, w, v, b); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				case 3: // label
					var kv [2]uint64
					if err := walkFields(b, func(f, w int, v uint64, b []byte) error {
						if f == 1 || f == 2 {
							kv[f-1] = v
						}
						return nil
					}); err != nil {
						return err
					}
					s.labels = append(s.labels, kv)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walkFields(b, func(f, w int, v uint64, b []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	p := &cpuProfile{}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		var labels map[string]string
		for _, kv := range s.labels {
			if kv[1] != 0 { // string labels only; numeric ones have no str
				if labels == nil {
					labels = map[string]string{}
				}
				labels[str(kv[0])] = str(kv[1])
			}
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fid := range locFns[loc] {
				if i := fnName[fid]; i >= 0 && int(i) < len(strs) {
					stack = append(stack, strs[i])
				}
			}
		}
		// The last value of a CPU profile sample is its CPU time.
		p.samples = append(p.samples, profSample{stack: stack, labels: labels, value: s.values[len(s.values)-1]})
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// walkFields calls fn for every field of one protobuf message: v holds a
// varint or fixed value, b the bytes of a length-delimited field.
func walkFields(msg []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire != 2 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
