package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"
)

// profile is the traced run's CPU profile, written to path.
type profile struct {
	path string
	f    *os.File
}

func startProfile(path string) (*profile, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &profile{path: path, f: f}, nil
}

// stop ends the profile and returns its CPU time split by layer (see
// layerOf).
func (p *profile) stop() (map[string]time.Duration, error) {
	pprof.StopCPUProfile()
	if err := p.f.Close(); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(p.path)
	if err != nil {
		return nil, err
	}
	stacks, err := parseProfile(data)
	if err != nil {
		return nil, fmt.Errorf("reading CPU profile: %w", err)
	}
	split := map[string]time.Duration{}
	for _, s := range stacks {
		split[layerOf(s.funcs)] += s.cpu
	}
	return split, nil
}

// cpuLayers are the profile buckets printed as cpu.<layer>_ms.
var cpuLayers = []string{"engine", "hier", "cache", "memdev", "wal", "design", "workloads", "gc", "crashtest", "recovery", "serve"}

// cpuMetrics prints each layer's CPU time per round.
func cpuMetrics(m map[string]metric, split map[string]time.Duration, rounds float64) {
	for _, l := range cpuLayers {
		m["cpu."+l+"_ms"] = metric{float64(split[l].Nanoseconds()) / 1e6 / rounds, "ms"}
	}
}

// gcRoots mark a sample as garbage-collector work wherever it sits.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.GC"}

// layerOf charges one sample to a layer: garbage collection if any frame is
// a collector entry point, otherwise the program package of the innermost
// frame that belongs to one. Standard-library and runtime frames (allocation,
// zeroing, maps, sorting) are charged to the program code that called them,
// except the service path's own libraries (JSON, HTTP, hashing, files),
// which count as serve.
func layerOf(funcs []string) string {
	for _, f := range funcs {
		for _, g := range gcRoots {
			if f == g {
				return "gc"
			}
		}
	}
	for _, f := range funcs {
		pkg := funcPackage(f)
		switch {
		case strings.HasPrefix(pkg, "dhtm/internal/"):
			switch name := strings.TrimPrefix(pkg, "dhtm/internal/"); name {
			case "core", "baselines", "htm", "locks", "txn":
				return "design"
			case "serve", "resultstore":
				return "serve"
			case "engine", "hier", "cache", "memdev", "wal", "workloads", "crashtest", "recovery":
				return name
			default:
				return "other"
			}
		case pkg == "iter" || strings.HasPrefix(f, "runtime.coro"):
			// Coroutine switches between simulated cores belong to the
			// engine's event loop.
			return "engine"
		case pkg == "encoding/json" || strings.HasPrefix(pkg, "net") || pkg == "crypto/sha256" ||
			pkg == "os" || pkg == "syscall" || pkg == "internal/poll" || pkg == "bufio":
			return "serve"
		}
	}
	return "other"
}

// funcPackage returns the import path of a fully qualified function name
// such as "dhtm/internal/cache.(*Cache).ForEach".
func funcPackage(f string) string {
	slash := strings.LastIndex(f, "/")
	if dot := strings.Index(f[slash+1:], "."); dot >= 0 {
		return f[:slash+1+dot]
	}
	return f
}

// profStack is one profile sample: its CPU time and its function names,
// innermost first (inlined frames included).
type profStack struct {
	cpu   time.Duration
	funcs []string
}

// parseProfile decodes the parts of a gzipped pprof protobuf that the split
// needs: samples (location IDs and values), locations (their line entries'
// function IDs), functions (their name indices) and the string table. The
// CPU value is the sample type whose unit is nanoseconds.
func parseProfile(data []byte) ([]profStack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples     []sample
		locFuncs    = map[uint64][]uint64{}
		funcNames   = map[uint64]int64{}
		strs        []string
		sampleTypes [][2]int64 // type, unit string indices
	)
	err = walkFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			var t [2]int64
			err := walkFields(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 || f == 2 {
					t[f-1] = int64(v)
				}
				return nil
			})
			sampleTypes = append(sampleTypes, t)
			return err
		case 2: // sample
			var s sample
			err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, w, v, b)
				case 2:
					var vals []uint64
					err := appendVarints(&vals, w, v, b)
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var funcs []uint64
			err := walkFields(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walkFields(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = funcs
			return err
		case 5: // function
			var id uint64
			var name int64
			err := walkFields(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
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
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	cpu := -1
	for i, t := range sampleTypes {
		if str(t[1]) == "nanoseconds" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("no nanoseconds sample type")
	}
	out := make([]profStack, 0, len(samples))
	for _, s := range samples {
		if cpu >= len(s.values) {
			continue
		}
		st := profStack{cpu: time.Duration(s.values[cpu])}
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				st.funcs = append(st.funcs, str(funcNames[f]))
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// walkFields calls fn for every field of one protobuf message: the varint
// value for wire type 0, the bytes for wire type 2. Fixed-width fields are
// skipped.
func walkFields(b []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := fn(field, wire, v, nil); err != nil {
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
			if err := fn(field, wire, 0, b[n:n+int(l)]); err != nil {
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

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
