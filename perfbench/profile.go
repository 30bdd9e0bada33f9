package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// The traced run charges host self time to simulator layers with a CPU
// profile it starts and stops itself. runtime/pprof writes the profile as
// gzip-compressed protobuf (github.com/google/pprof profile.proto); the
// decoder below reads only the fields bucketing needs, so the benchmark
// depends on the standard library alone.

// internalPrefix marks the simulator's own packages in profile frames.
const internalPrefix = "tlrsim/internal/"

// Buckets that are not a simulator package.
const (
	bucketGC    = "runtime.gc"
	bucketOther = "other"
)

// gcRoots are the runtime's background GC goroutines. Assist work done inside
// an allocating simulator call is not here: it is charged to that caller.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// schedFrames are goroutine switches on the scheduler stack. A sample taken
// there has no simulator frame left to charge, and in tlrsim the goroutines
// that park and wake at a rate that matters are the workload threads handing
// every memory operation to the CPU model (internal/proc), so the switch is
// charged to proc with the channel frames that led to it.
var schedFrames = []string{"runtime.mcall", "runtime.park_m", "runtime.schedule", "runtime.goexit0"}

// bucketOf charges one sample's stack (function names, innermost first) to a
// bucket:
//
//  1. the package of the innermost tlrsim/internal frame, so runtime frames
//     (allocation, channel operations, map access) go to their nearest
//     simulator caller;
//  2. otherwise runtime.gc for the background GC workers;
//  3. otherwise proc for a goroutine switch on the scheduler stack;
//  4. otherwise other (the benchmark itself, idle and system work).
func bucketOf(stack []string) string {
	for _, fn := range stack {
		if pkg, ok := internalPackage(fn); ok {
			return pkg
		}
	}
	for _, fn := range stack {
		if hasAnyPrefix(fn, gcRoots) {
			return bucketGC
		}
	}
	for _, fn := range stack {
		if hasAnyPrefix(fn, schedFrames) {
			return "proc"
		}
	}
	return bucketOther
}

// internalPackage returns "bus" for "tlrsim/internal/bus.(*Bus).resolveSnoop".
func internalPackage(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return "", false
	}
	// The package path ends at the first '.' after its last '/'.
	slash := strings.LastIndexByte(rest, '/')
	dot := strings.IndexByte(rest[slash+1:], '.')
	if dot < 0 {
		return rest, true
	}
	return rest[:slash+1+dot], true
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if s == p || strings.HasPrefix(s, p+".") {
			return true
		}
	}
	return false
}

// shares is a self-time breakdown: samples per bucket and their total.
type shares struct {
	samples map[string]int64
	total   int64
}

// frac returns a bucket's share of all samples (0 when there are none).
func (s shares) frac(bucket string) float64 {
	if s.total == 0 {
		return 0
	}
	return float64(s.samples[bucket]) / float64(s.total)
}

// sorted returns the bucket names, largest share first.
func (s shares) sorted() []string {
	names := make([]string, 0, len(s.samples))
	for b := range s.samples {
		names = append(names, b)
	}
	sort.Slice(names, func(i, j int) bool {
		if s.samples[names[i]] != s.samples[names[j]] {
			return s.samples[names[i]] > s.samples[names[j]]
		}
		return names[i] < names[j]
	})
	return names
}

// bucketProfile decodes a CPU profile and charges each sample's count to
// its bucket.
func bucketProfile(data []byte) (shares, error) {
	stacks, err := decodeProfile(data)
	if err != nil {
		return shares{}, err
	}
	s := shares{samples: map[string]int64{}}
	for _, st := range stacks {
		s.samples[bucketOf(st.frames)] += st.count
		s.total += st.count
	}
	return s, nil
}

// stack is one profile sample: its frames, innermost first, and its count.
type stack struct {
	frames []string
	count  int64
}

// decodeProfile reads the samples of a (possibly gzip-compressed) pprof
// profile. Inlined calls appear as extra frames, innermost first, as pprof
// itself shows them.
func decodeProfile(data []byte) ([]stack, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type sample struct {
		locs, values []uint64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> string table index
		strs      []string
	)
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					ids, err := packed(wire, v, b)
					s.locs = append(s.locs, ids...)
					return err
				case 2:
					vals, err := packed(wire, v, b)
					s.values = append(s.values, vals...)
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, wire int, v uint64, b []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		// values[0] is the sample count (values[1] is CPU nanoseconds).
		st := stack{}
		if len(s.values) > 0 {
			st.count = int64(s.values[0])
		}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				name := ""
				if i := funcNames[fn]; i >= 0 && int(i) < len(strs) {
					name = strs[i]
				}
				st.frames = append(st.frames, name)
			}
		}
		out = append(out, st)
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's number
// and wire type, and its varint value (wire type 0) or payload bytes (wire
// type 2). Fixed-width fields are skipped.
func eachField(b []byte, fn func(num, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			if v, n = varint(b); n == 0 {
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
			if n == 0 || uint64(len(b)-n) < l {
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
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// packed returns a repeated varint field's values, whether encoded packed
// (wire type 2) or as a single element (wire type 0).
func packed(wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == 0 {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := varint(b)
		if n == 0 {
			return nil, errTruncated
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}

// varint decodes a base-128 varint, returning its value and length (0 when
// b ends mid-varint).
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
