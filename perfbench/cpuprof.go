package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// modules are the repository's internal/ packages the CPU split reports;
// samples in any other internal package count as "other".
var modules = []string{
	"sim", "dram", "cxl", "fabric", "pifs", "osb", "tier", "scenario",
	"trace", "engine", "harness", "memo", "serve",
}

// gcFrames mark a sample as garbage-collector work wherever they appear on
// its stack (background marking, mutator assists, sweeping, scavenging).
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
	"runtime.gcStart":        true,
	"runtime.gcMarkDone":     true,
}

const modulePrefix = "pifsrec/internal/"

// profile accumulates CPU samples over the epochs it is started and
// stopped around.
type profile struct {
	buf     bytes.Buffer
	running bool
	counts  map[string]int64
	err     error
}

func newProfile() *profile {
	p := &profile{counts: map[string]int64{"gc": 0, "other": 0}}
	for _, m := range modules {
		p.counts[m] = 0
	}
	return p
}

// start begins profiling; an error is kept for split to report.
func (p *profile) start() {
	p.buf.Reset()
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		p.err = fmt.Errorf("starting CPU profile: %w", err)
		return
	}
	p.running = true
}

// stop ends profiling, if it is running, and adds the samples to the
// counts. A sample is charged to gc if a collector frame is on its stack,
// otherwise to the innermost pifsrec/internal/<module> frame, so map, sort
// and allocation frames count against the module that called them.
func (p *profile) stop() {
	if !p.running {
		return
	}
	pprof.StopCPUProfile()
	p.running = false
	stacks, err := readProfile(&p.buf)
	if err != nil {
		p.err = err
		return
	}
	for _, st := range stacks {
		p.counts[classify(st.frames)] += st.count
	}
}

// split returns each module's share of the CPU samples in percent, keyed by
// module name plus "gc" and "other".
func (p *profile) split() (map[string]float64, error) {
	p.stop()
	if p.err != nil {
		return nil, p.err
	}
	var total int64
	for _, v := range p.counts {
		total += v
	}
	out := make(map[string]float64, len(p.counts))
	for k, v := range p.counts {
		out[k] = 100 * ratio(float64(v), float64(total))
	}
	return out, nil
}

// readProfile decodes one gzipped CPU profile.
func readProfile(r io.Reader) ([]stack, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("reading CPU profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("reading CPU profile: %w", err)
	}
	return parseProfile(raw)
}

func classify(frames []string) string {
	for _, f := range frames {
		if gcFrames[f] {
			return "gc"
		}
	}
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, modulePrefix); ok {
			mod := rest
			if i := strings.IndexAny(mod, "./"); i >= 0 {
				mod = mod[:i]
			}
			for _, m := range modules {
				if m == mod {
					return m
				}
			}
			return "other"
		}
	}
	return "other"
}

// stack is one profile sample: its frames innermost first and its count.
type stack struct {
	frames []string
	count  int64
}

// parseProfile decodes the uncompressed profile.proto message far enough
// to name every sample's frames (innermost first, inlined frames expanded).
func parseProfile(b []byte) ([]stack, error) {
	type sampleRec struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sampleRec
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcs   = map[uint64]int64{}    // function id -> name string index
		strs    []string
	)
	err := protoFields(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 2: // Sample
			var s sampleRec
			first := true
			err := protoFields(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					s.locs = appendPacked(s.locs, v, d)
				case 2:
					if first {
						vals := appendPacked(nil, v, d)
						if len(vals) > 0 {
							s.count = int64(vals[0])
							first = false
						}
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := protoFields(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // Line
					return protoFields(d, func(ln int, lv uint64, _ []byte) error {
						if ln == 1 {
							fns = append(fns, lv)
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
			err := protoFields(data, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("decoding CPU profile: %w", err)
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{count: s.count}
		for _, l := range s.locs {
			for _, fn := range locs[l] {
				if i := funcs[fn]; i >= 0 && int(i) < len(strs) {
					st.frames = append(st.frames, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// appendPacked appends a repeated varint field that arrived either unpacked
// (v) or packed (data).
func appendPacked(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

// protoFields walks one protobuf message, calling fn with each field's
// number and either its varint value (data nil) or its bytes.
func protoFields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		b = b[n:]
		num, wt := int(key>>3), key&7
		switch wt {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("bad varint in field %d", num)
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("short fixed64 in field %d", num)
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("bad length in field %d", num)
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("short fixed32 in field %d", num)
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d in field %d", wt, num)
		}
	}
	return nil
}
