package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuLayers are the layers a CPU-profile sample can be charged to, in
// report order. A sample goes to the innermost frame in a detournet
// module package; standard-library frames count toward the repo frame
// that called them. Control-journal methods (and the fold behind them)
// count as journal. Background and assist GC work is runtime_gc, and a
// sample with no repo frame, or whose repo frame is in a package not
// listed here, is other.
var cpuLayers = []string{
	"sched", "journal", "telemetry", "health", "detourselect",
	"core", "sdk", "httpsim", "cloudsim", "rsyncx",
	"transport", "tcpmodel", "topology", "bgppol",
	"fluid", "xtraffic", "simclock", "simproc",
	"runtime_gc", "other",
}

const repoPrefix = "detournet/internal/"

var journalFrames = []string{
	repoPrefix + "sched.(*ControlJournal).",
	repoPrefix + "sched.(*foldState).",
	repoPrefix + "sched.NewControlJournal",
	repoPrefix + "sched.newFoldState",
}

var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcMarkDone", "runtime.gcMarkTermination",
}

// layerOf maps one function name to its layer, or "" for a frame that
// is not a repo frame.
func layerOf(fn string) string {
	if !strings.HasPrefix(fn, repoPrefix) {
		return ""
	}
	for _, p := range journalFrames {
		if strings.HasPrefix(fn, p) {
			return "journal"
		}
	}
	pkg := fn[len(repoPrefix):]
	if i := strings.IndexAny(pkg, "./"); i >= 0 {
		pkg = pkg[:i]
	}
	for _, l := range cpuLayers {
		if l == pkg {
			return l
		}
	}
	return "other"
}

// addLayerNanos decodes a gzipped pprof CPU profile and adds each
// layer's sampled CPU nanoseconds to ns.
func addLayerNanos(ns map[string]float64, gz []byte) error {
	p, err := decodeProfile(gz)
	if err != nil {
		return err
	}
	for _, s := range p.samples {
		if len(s.values) > p.cpuIndex {
			ns[p.classify(s.locs)] += float64(s.values[p.cpuIndex])
		}
	}
	return nil
}

// classify charges one sampled stack (leaf first) to a layer.
func (p *profile) classify(locs []uint64) string {
	for _, id := range locs {
		for _, fn := range p.locFuncs[id] {
			for _, g := range gcFrames {
				if strings.HasPrefix(fn, g) {
					return "runtime_gc"
				}
			}
		}
	}
	for _, id := range locs {
		// A location's lines run from the innermost inlined function
		// outward.
		for _, fn := range p.locFuncs[id] {
			if l := layerOf(fn); l != "" {
				return l
			}
		}
	}
	return "other"
}

// --- minimal decoder for the pprof protobuf format ---

type sample struct {
	locs   []uint64
	values []int64
}

type profile struct {
	samples  []sample
	locFuncs map[uint64][]string // location id → function names, innermost first
	cpuIndex int                 // value index holding cpu nanoseconds
}

type pbuf struct {
	b []byte
	i int
}

var errTruncated = errors.New("profile: truncated protobuf")

func (d *pbuf) varint() (uint64, error) {
	var x uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if d.i >= len(d.b) {
			return 0, errTruncated
		}
		c := d.b[d.i]
		d.i++
		x |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return x, nil
		}
	}
	return 0, errors.New("profile: varint overflow")
}

// field reads one field: its number, wire type, varint value (wire type
// 0) or payload (wire type 2).
func (d *pbuf) field() (num int, wt int, v uint64, data []byte, err error) {
	key, err := d.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wt = int(key>>3), int(key&7)
	switch wt {
	case 0:
		v, err = d.varint()
	case 1:
		if d.i+8 > len(d.b) {
			return 0, 0, 0, nil, errTruncated
		}
		d.i += 8
	case 2:
		var n uint64
		if n, err = d.varint(); err != nil {
			return
		}
		if uint64(len(d.b)-d.i) < n {
			return 0, 0, 0, nil, errTruncated
		}
		data = d.b[d.i : d.i+int(n)]
		d.i += int(n)
	case 5:
		if d.i+4 > len(d.b) {
			return 0, 0, 0, nil, errTruncated
		}
		d.i += 4
	default:
		err = fmt.Errorf("profile: wire type %d", wt)
	}
	return
}

// each calls fn for every field of a message.
func each(b []byte, fn func(num, wt int, v uint64, data []byte) error) error {
	d := &pbuf{b: b}
	for d.i < len(d.b) {
		num, wt, v, data, err := d.field()
		if err != nil {
			return err
		}
		if err := fn(num, wt, v, data); err != nil {
			return err
		}
	}
	return nil
}

// uints appends a repeated integer field, packed (wire type 2) or not.
func uints(dst []uint64, wt int, v uint64, data []byte) ([]uint64, error) {
	if wt == 0 {
		return append(dst, v), nil
	}
	d := &pbuf{b: data}
	for d.i < len(d.b) {
		x, err := d.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

func decodeProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs      []string
		types     [][2]uint64 // sample type (type, unit) string indexes
		funcNames = map[uint64]uint64{}
		locLines  = map[uint64][]uint64{} // location → function ids
		p         = &profile{locFuncs: map[uint64][]string{}}
	)
	err = each(raw, func(num, wt int, v uint64, data []byte) error {
		switch num {
		case 1: // sample_type
			var t [2]uint64
			err := each(data, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					t[n-1] = v
				}
				return nil
			})
			types = append(types, t)
			return err
		case 2: // sample
			var s sample
			err := each(data, func(n, wt int, v uint64, d []byte) error {
				var err error
				switch n {
				case 1:
					s.locs, err = uints(s.locs, wt, v, d)
				case 2:
					var vs []uint64
					vs, err = uints(nil, wt, v, d)
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return err
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := each(data, func(n, _ int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return each(d, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := each(data, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	p.cpuIndex = len(types) - 1
	for i, t := range types {
		if str(t[0]) == "cpu" {
			p.cpuIndex = i
		}
	}
	if p.cpuIndex < 0 {
		return nil, errors.New("profile: no sample types")
	}
	for id, fns := range locLines {
		for _, f := range fns {
			p.locFuncs[id] = append(p.locFuncs[id], str(funcNames[f]))
		}
	}
	return p, nil
}
