package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// stackSample is one CPU-profile sample reduced to what attribution needs:
// its call stack as function names, leaf first (inlined frames expanded),
// its CPU time, and its profiler labels.
type stackSample struct {
	funcs  []string
	nanos  int64
	count  int64
	labels map[string]string
}

// decodeCPUProfile parses the gzipped profile.proto that runtime/pprof
// writes. It reads only the messages attribution uses (samples, locations,
// functions, the string table and the sample types), so it stays a page of
// wire-format decoding rather than a dependency.
func decodeCPUProfile(data []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: gunzip: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: gunzip: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []int64
		labels [][2]int64 // string-table indexes of key and value
	}
	var (
		samples     []rawSample
		sampleTypes [][2]int64 // type, unit
		strs        []string
		funcName    = map[uint64]int64{}    // function id → name string index
		locFuncs    = map[uint64][]uint64{} // location id → function ids, leaf first
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var st [2]int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					st[n-1] = int64(v)
				}
				return nil
			})
			sampleTypes = append(sampleTypes, st)
			return err
		case 2: // sample
			var s rawSample
			err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch n {
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
				case 3:
					var kv [2]int64
					err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 || n == 2 {
							kv[n-1] = int64(v)
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line: function_id is field 1
					return eachField(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	countIdx, nanosIdx := -1, -1
	for i, st := range sampleTypes {
		switch str(st[0]) {
		case "samples":
			countIdx = i
		case "cpu":
			nanosIdx = i
		}
	}
	if countIdx < 0 || nanosIdx < 0 {
		return nil, errors.New("profile: not a CPU profile (no samples/cpu sample types)")
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) != len(sampleTypes) {
			return nil, errors.New("profile: sample value count does not match sample types")
		}
		ss := stackSample{nanos: s.values[nanosIdx], count: s.values[countIdx]}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				ss.funcs = append(ss.funcs, str(funcName[fn]))
			}
		}
		if len(s.labels) > 0 {
			ss.labels = make(map[string]string, len(s.labels))
			for _, kv := range s.labels {
				ss.labels[str(kv[0])] = str(kv[1])
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

// eachField walks one protobuf message, calling fn with each field's number,
// wire type, and its varint value or length-delimited payload.
func eachField(b []byte, fn func(num, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: truncated field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: truncated varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: truncated length-delimited field")
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: truncated packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
