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

// modules are the simulator packages (ampom/internal/<module>) CPU time
// is charged to. Two buckets complete the partition: runtime_gc for
// background collector work and other for everything else.
var modules = []string{
	"infod", "eventq", "sim", "simtime", "fabric", "netmodel", "scenario",
	"sched", "cluster", "core", "migrate", "paging", "memory", "hpcc",
	"campaign", "trace", "prng", "harness",
}

const (
	bucketGC    = "runtime_gc"
	bucketOther = "other"
	modulePath  = "ampom/internal/"
)

// shareBuckets lists every cpu_share bucket in report order.
func shareBuckets() []string {
	return append(append([]string(nil), modules...), bucketGC, bucketOther)
}

// gcFrames are the runtime functions at the root of the collector's
// background goroutines and of the work they do.
var gcFrames = []string{
	"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
	"runtime.scanobject", "runtime.sweepone",
}

// moduleOf maps a function name to its simulator module, or "" if the
// function is not in ampom/internal. Packages under ampom/internal that
// are not listed in modules map to other.
func moduleOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, modulePath)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, m := range modules {
		if m == rest {
			return m
		}
	}
	return bucketOther
}

// bucketOf charges one stack, leaf first with inlined frames innermost
// first, to the innermost simulator module on it. A stack with no
// simulator frame is collector work if a collector function is on it.
func bucketOf(stack []string) string {
	gc := false
	for _, fn := range stack {
		if m := moduleOf(fn); m != "" {
			return m
		}
		for _, p := range gcFrames {
			if strings.HasPrefix(fn, p) {
				gc = true
			}
		}
	}
	if gc {
		return bucketGC
	}
	return bucketOther
}

// cpuShares reads a CPU profile as runtime/pprof writes it (gzipped
// profile.proto) and returns each bucket's share of the sampled CPU time,
// with the number of samples. The shares sum to 1 when any sample exists.
func cpuShares(profile []byte) (map[string]float64, int, error) {
	stacks, weights, err := parseProfile(profile)
	if err != nil {
		return nil, 0, err
	}
	shares := make(map[string]float64)
	for _, b := range shareBuckets() {
		shares[b] = 0
	}
	var total float64
	for i, st := range stacks {
		shares[bucketOf(st)] += weights[i]
		total += weights[i]
	}
	if total > 0 {
		for b := range shares {
			shares[b] /= total
		}
	}
	return shares, len(stacks), nil
}

// The subset of profile.proto this decoder reads.
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	valueTypeType = 1

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4

	lineFunctionID = 1

	functionID   = 1
	functionName = 2
)

var errProto = errors.New("malformed profile")

// parseProfile returns every sample's stack of function names (leaf first,
// inlined frames innermost first) and its CPU-time value.
func parseProfile(profile []byte) ([][]string, []float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, nil, fmt.Errorf("reading profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, fmt.Errorf("reading profile: %w", err)
	}

	type sample struct {
		locs   []uint64
		values []uint64
	}
	var (
		valueTypes []uint64 // string index of each sample value's type
		samples    []sample
		locFuncs   = map[uint64][]uint64{} // location id → function ids
		funcNames  = map[uint64]uint64{}   // function id → string index
		strs       []string
	)
	err = eachField(raw, func(num, typ int, v uint64, data []byte) error {
		switch num {
		case profSampleType:
			return eachField(data, func(num, typ int, v uint64, _ []byte) error {
				if num == valueTypeType {
					valueTypes = append(valueTypes, v)
				}
				return nil
			})
		case profSample:
			var s sample
			err := eachField(data, func(num, typ int, v uint64, data []byte) error {
				var err error
				switch num {
				case sampleLocationID:
					s.locs, err = appendVarints(s.locs, typ, v, data)
				case sampleValue:
					s.values, err = appendVarints(s.values, typ, v, data)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(data, func(num, typ int, v uint64, data []byte) error {
				switch num {
				case locationID:
					id = v
				case locationLine:
					return eachField(data, func(num, typ int, v uint64, _ []byte) error {
						if num == lineFunctionID {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case profFunction:
			var id, name uint64
			err := eachField(data, func(num, typ int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case profStringTable:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	// The CPU profile carries samples/count and cpu/nanoseconds; weigh by
	// CPU time, falling back to the last value.
	cpu := len(valueTypes) - 1
	for i, t := range valueTypes {
		if t < uint64(len(strs)) && strs[t] == "cpu" {
			cpu = i
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	stacks := make([][]string, 0, len(samples))
	weights := make([]float64, 0, len(samples))
	for _, s := range samples {
		if cpu < 0 || cpu >= len(s.values) {
			return nil, nil, errProto
		}
		var st []string
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				st = append(st, str(funcNames[f]))
			}
		}
		stacks = append(stacks, st)
		weights = append(weights, float64(int64(s.values[cpu])))
	}
	return stacks, weights, nil
}

// eachField walks the fields of one protobuf message, handing varint
// values as v and length-delimited payloads as data.
func eachField(b []byte, fn func(num, typ int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, typ := int(key>>3), int(key&7)
		var (
			v    uint64
			data []byte
		)
		switch typ {
		case 0: // varint
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1: // fixed64
			if len(b) < 8 {
				return errProto
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2: // length-delimited
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errProto
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5: // fixed32
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProto
		}
		if err := fn(num, typ, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, which the encoder writes
// either packed (one length-delimited run) or one value per field.
func appendVarints(dst []uint64, typ int, v uint64, data []byte) ([]uint64, error) {
	if typ == 0 {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errProto
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst, nil
}
