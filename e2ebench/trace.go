package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of a public function, hook or HTTP exchange. ID names the device
// or job the span belongs to. Parent indexes the enclosing span within
// the span's tree (-1 for the root); in the span file it indexes the
// file's lines.
type span struct {
	ID     string `json:"id"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// recorder folds span trees into per-layer self time and per-name
// totals as they complete, and keeps every keepEvery-th tree in memory
// for the span file written when the run ends. A nil recorder records
// nothing, which is how untraced legs run the same code.
type recorder struct {
	epoch     time.Time
	keepEvery int

	mu     sync.Mutex
	trees  int
	total  int                // spans seen
	selfNs map[string]float64 // by layer
	nameNs map[string]float64 // by span name
	nameN  map[string]int
	kept   []span
}

func newRecorder(keepEvery int) *recorder {
	return &recorder{epoch: time.Now(), keepEvery: keepEvery,
		selfNs: map[string]float64{}, nameNs: map[string]float64{}, nameN: map[string]int{}}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) at(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// addTree records one finished span tree; spans that never ended
// (End < Start) are skipped. A span's self time is its duration minus
// the part of it its children cover.
func (r *recorder) addTree(tree []span) {
	if r == nil {
		return
	}
	kids := make([][]int, len(tree))
	self := make([]float64, len(tree))
	for i, s := range tree {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
		if s.End >= s.Start {
			self[i] = float64(s.End - s.Start)
		}
	}
	var ivs [][2]int64
	for i, s := range tree {
		ivs = ivs[:0]
		for _, c := range kids[i] {
			if cs := tree[c]; cs.End >= cs.Start {
				ivs = append(ivs, [2]int64{max(cs.Start, s.Start), min(cs.End, s.End)})
			}
		}
		self[i] = max(0, self[i]-float64(covered(ivs)))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, s := range tree {
		if s.End < s.Start {
			continue
		}
		r.total++
		r.selfNs[s.Layer] += self[i]
		r.nameNs[s.Name] += float64(s.End - s.Start)
		r.nameN[s.Name]++
	}
	if r.trees%r.keepEvery == 0 {
		base := len(r.kept)
		for _, s := range tree {
			if s.Parent >= 0 {
				s.Parent += base
			}
			r.kept = append(r.kept, s)
		}
	}
	r.trees++
}

// meanUs is the mean duration of the spans named name, in µs.
func (r *recorder) meanUs(name string) float64 {
	return ratio(r.nameNs[name], float64(r.nameN[name])) / 1e3
}

// totalNs sums the durations of the spans named name.
func (r *recorder) totalNs(name string) float64 { return r.nameNs[name] }

// selfShares returns each layer's self time as a share of all self time.
func (r *recorder) selfShares() map[string]float64 {
	var total float64
	for _, v := range r.selfNs {
		total += v
	}
	out := map[string]float64{}
	for k, v := range r.selfNs {
		out[k] = ratio(v, total)
	}
	return out
}

// covered is the length of the union of the intervals.
func covered(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, end int64
	started := false
	for _, iv := range ivs {
		if iv[1] <= iv[0] {
			continue
		}
		switch {
		case !started || iv[0] >= end:
			total += iv[1] - iv[0]
			end = iv[1]
			started = true
		case iv[1] > end:
			total += iv[1] - end
			end = iv[1]
		}
	}
	return total
}

// write stores the kept spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.kept {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// setTraceMetrics reports the span-derived metrics shared by every
// workload and writes the spans out.
func setTraceMetrics(r *result, cfg config, rec *recorder) error {
	for _, l := range spanLayers {
		r.set("self_share."+l, 0)
	}
	for l, v := range rec.selfShares() {
		r.set("self_share."+l, v)
	}
	r.set("trace.spans", float64(rec.total))
	return rec.write(filepath.Join(cfg.outDir, "spans-"+r.Workload+".jsonl"))
}

// profiler wraps a CPU profile and the runtime/metrics GC counters over
// the traced leg.
type profiler struct {
	buf bytes.Buffer
	gc0 []metrics.Sample
}

var gcSampleNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readGC() []metrics.Sample {
	s := make([]metrics.Sample, len(gcSampleNames))
	for i, n := range gcSampleNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func gcValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindFloat64:
		return s.Value.Float64()
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	}
	return 0
}

func startProfile() (*profiler, error) {
	p := &profiler{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	p.gc0 = readGC()
	return p, nil
}

// stop ends the profile and reports the cpu.* fold, gc.cpu_share and
// the GC cycle count over the leg.
func (p *profiler) stop(r *result) (gcCycles float64, err error) {
	gc1 := readGC()
	pprof.StopCPUProfile()
	gcCPU := gcValue(gc1[0]) - gcValue(p.gc0[0])
	allCPU := gcValue(gc1[1]) - gcValue(p.gc0[1])
	r.set("gc.cpu_share", ratio(gcCPU, allCPU))
	shares, err := foldProfile(p.buf.Bytes())
	if err != nil {
		return 0, err
	}
	for _, l := range cpuLayers {
		r.set("cpu."+l, shares[l])
	}
	return gcValue(gc1[2]) - gcValue(p.gc0[2]), nil
}

// layerOf maps a Go package path to the layer its CPU time counts for.
func layerOf(pkg string) string {
	if rest, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		top, _, _ := strings.Cut(rest, "/")
		switch top {
		case "sim", "hw", "core", "accounting", "check", "device", "scenario",
			"corpus", "fleet", "powersig", "obsv", "telemetry", "trace", "jobs":
			return top
		case "serveutil":
			return "jobs"
		default: // activity, service, power, display, broadcast, intent, alarm, app, …
			return "framework"
		}
	}
	switch {
	case pkg == "encoding/json":
		return "encoding_json"
	case pkg == "math/rand":
		return "math_rand"
	case pkg == "net" || strings.HasPrefix(pkg, "net/") || pkg == "internal/poll" || pkg == "syscall":
		return "net"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime"):
		return "runtime"
	}
	return "other"
}

// pkgOf extracts the package path from a symbol such as
// "repro/internal/sim.(*Engine).Step".
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// foldProfile decodes a gzipped pprof CPU profile and returns each
// layer's share of sampled CPU time, attributing every sample to the
// package of its leaf frame.
func foldProfile(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		leaf  uint64
		value int64
	}
	var (
		samples []sample
		strs    []string
		locLeaf = map[uint64]uint64{} // location id → leaf function id
		fnName  = map[uint64]int64{}  // function id → string index
	)
	err = protoFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			first := true
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					ids := protoVarints(v, b)
					if first && len(ids) > 0 {
						s.leaf, first = ids[0], false
					}
				case 2:
					if vals := protoVarints(v, b); len(vals) > 0 {
						s.value = int64(vals[len(vals)-1])
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id, fn uint64
			gotLine := false
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					if gotLine { // the first line is the innermost inlined frame
						return nil
					}
					gotLine = true
					return protoFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locLeaf[id] = fn
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := protoFields(b, func(f int, v uint64, _ []byte) error {
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
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	byLayer := map[string]float64{}
	var total float64
	for _, s := range samples {
		name := ""
		if idx, ok := fnName[locLeaf[s.leaf]]; ok && idx >= 0 && int(idx) < len(strs) {
			name = strs[idx]
		}
		byLayer[layerOf(pkgOf(name))] += float64(s.value)
		total += float64(s.value)
	}
	for k := range byLayer {
		byLayer[k] = ratio(byLayer[k], total)
	}
	return byLayer, nil
}

// protoFields walks the fields of one protobuf message, calling fn with
// the field number and either the varint value or the length-delimited
// payload.
func protoFields(b []byte, fn func(field int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("bad varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("bad length")
			}
			payload := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, payload); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// protoVarints decodes a repeated varint field that may be packed
// (payload set) or a single unpacked value.
func protoVarints(v uint64, payload []byte) []uint64 {
	if payload == nil {
		return []uint64{v}
	}
	var out []uint64
	for len(payload) > 0 {
		x, n := binary.Uvarint(payload)
		if n <= 0 {
			break
		}
		out = append(out, x)
		payload = payload[n:]
	}
	return out
}
