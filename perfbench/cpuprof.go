package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuBuckets are the CPU-share buckets of the traced run, in report
// order. Every simulate-phase sample lands in exactly one of them.
var cpuBuckets = []string{
	"sim_eventq", "sim_sync", "sim_other", "udweave", "kvmsr", "collections",
	"gasmem", "dram", "apps", "serve", "sched", "observers",
	"runtime_sched", "runtime_gc", "runtime_alloc", "other",
}

// repoBuckets maps a repository package to its bucket. Packages not
// listed (arch, prng, graph, the facade) and the standard library are
// passed over: the sample goes to the nearest caller that is listed.
var repoBuckets = map[string]string{
	"updown/internal/udweave":     "udweave",
	"updown/internal/kvmsr":       "kvmsr",
	"updown/internal/collections": "collections",
	"updown/internal/gasmem":      "gasmem",
	"updown/internal/dram":        "dram",
	"updown/internal/serve":       "serve",
	"updown/internal/sched":       "sched",
	"updown/internal/metrics":     "observers",
	"updown/internal/telemetry":   "observers",
}

// simSync lists the engine functions that synchronise shards: barriers,
// window reduction and extension, and the cross-shard outboxes.
var simSync = []string{
	"(*barrier).", "(*pool).", "runParallel", "runMux", "useMux",
	"(*shard).collect", "(*shard).muxCollect", "(*shard).route", "(*shard).resetOut",
	"shardLatencyBounds", "satAdd",
}

// Runtime functions by what they do. Any other runtime function (memmove,
// map access, time) is a helper charged to its caller.
var (
	runtimeAlloc = []string{"mallocgc", "newobject", "newarray", "growslice", "makeslice",
		"makemap", "memclrNoHeapPointers", "(*mcache)", "(*mcentral)", "(*mheap).alloc",
		"nextFreeFast", "heapSetType", "rawstring", "rawbyteslice", "slicebytetostring",
		"concatstring", "deductAssistCredit"}
	runtimeGC = []string{"gc", "scanobject", "scanblock", "scanstack", "scanframe", "markroot",
		"greyobject", "findObject", "sweep", "Sweep", "wbBuf", "bulkBarrier", "scavenge",
		"(*mspan)", "(*mheap)", "(*gcWork)", "(*gcBits)", "spanOf", "stopTheWorld", "startTheWorld"}
	runtimeSched = []string{"schedule", "findRunnable", "park_m", "gopark", "goready", "ready",
		"futex", "notesleep", "notewakeup", "runq", "stealWork", "mcall", "gosched", "Gosched",
		"procyield", "osyield", "usleep", "lock2", "unlock2", "semacquire", "semrelease",
		"wakep", "startm", "stopm", "netpoll", "execute", "mPark", "goexit", "mstart",
		"systemstack", "checkTimers", "handoffp", "acquirep", "releasep", "resetspinning",
		"morestack", "newstack", "casgstatus", "exitsyscall", "entersyscall", "sigprof"}
)

func hasAny(fn string, parts []string) bool {
	for _, p := range parts {
		if strings.Contains(fn, p) {
			return true
		}
	}
	return false
}

// funcPackage returns the import path of a symbol such as
// "updown/internal/sim.(*msgHeap).siftDown".
func funcPackage(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// classify buckets one sample by its stack, leaf first: the first frame
// that is not a runtime helper, standard-library or unlisted frame.
func classify(stack []string) string {
	for _, fn := range stack {
		pkg := funcPackage(fn)
		name := strings.TrimPrefix(fn, pkg+".")
		switch {
		case pkg == "runtime":
			switch {
			case hasAny(name, runtimeAlloc):
				return "runtime_alloc"
			case hasAny(name, runtimeGC):
				return "runtime_gc"
			case hasAny(name, runtimeSched):
				return "runtime_sched"
			}
		case pkg == "updown/internal/sim":
			switch {
			case strings.HasPrefix(name, "(*msgHeap)"):
				return "sim_eventq"
			case hasAny(name, simSync):
				return "sim_sync"
			}
			return "sim_other"
		case strings.HasPrefix(pkg, "updown/internal/apps/"):
			return "apps"
		default:
			if b, ok := repoBuckets[pkg]; ok {
				return b
			}
		}
	}
	return "other"
}

// cpuShares returns each bucket's share of the samples in percent, and
// the sample count. An empty profile gives all-zero shares.
func cpuShares(samples map[string]int64) (map[string]float64, int64) {
	var total int64
	for _, n := range samples {
		total += n
	}
	out := make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		if total > 0 {
			out[b] = 100 * float64(samples[b]) / float64(total)
		} else {
			out[b] = 0
		}
	}
	return out, total
}

// bucketProfile decodes a gzipped runtime/pprof CPU profile and adds
// each sample's count to its bucket.
func bucketProfile(data []byte, into map[string]int64) error {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for _, s := range p.samples {
		stack := make([]string, 0, len(s.locs))
		for _, l := range s.locs {
			// A location lists inlined frames innermost first.
			for _, f := range p.locFuncs[l] {
				stack = append(stack, p.strings[p.funcName[f]])
			}
		}
		if len(s.values) > 0 {
			into[classify(stack)] += s.values[0]
		}
	}
	return nil
}

// The subset of the pprof protobuf (profile.proto) the bucketing needs.
type pprofSample struct {
	locs   []uint64
	values []int64
}

type pprofProfile struct {
	samples  []pprofSample
	locFuncs map[uint64][]uint64
	funcName map[uint64]int64
	strings  []string
}

var errProto = errors.New("malformed protobuf")

// protoFields calls fn for each field of a protobuf message: varint
// fields carry v, length-delimited fields carry b.
func protoFields(buf []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := uvarint(buf)
		if n <= 0 {
			return errProto
		}
		buf = buf[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(buf)
			if n <= 0 {
				return errProto
			}
			buf = buf[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errProto
			}
			if err := fn(field, 0, buf[n:n+int(l)]); err != nil {
				return err
			}
			buf = buf[n+int(l):]
		case 1:
			if len(buf) < 8 {
				return errProto
			}
			buf = buf[8:]
		case 5:
			if len(buf) < 4 {
				return errProto
			}
			buf = buf[4:]
		default:
			return errProto
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// repeatedU64 appends a repeated integer field, packed or not.
func repeatedU64(dst []uint64, v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst, nil
}

func decodeProfile(raw []byte) (*pprofProfile, error) {
	p := &pprofProfile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := protoFields(raw, func(field int, v uint64, b []byte) error {
		var err error
		switch field {
		case 2: // sample
			var s pprofSample
			err = protoFields(b, func(f int, v uint64, b []byte) error {
				var err error
				switch f {
				case 1:
					s.locs, err = repeatedU64(s.locs, v, b)
				case 2:
					var vals []uint64
					vals, err = repeatedU64(nil, v, b)
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return err
			})
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var funcs []uint64
			err = protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return protoFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = funcs
		case 5: // function
			var id uint64
			var name int64
			err = protoFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, n := range p.funcName {
		if n < 0 || n >= int64(len(p.strings)) {
			return nil, errProto
		}
	}
	return p, nil
}
