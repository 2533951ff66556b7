package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place. Empty input yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// median is quantile(xs, 0.5) on a copy, leaving xs untouched.
func median(xs []float64) float64 {
	return quantile(slices.Clone(xs), 0.5)
}

// mean is the arithmetic mean of xs, 0 when xs is empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// sum adds xs.
func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// durQuantile returns the q-quantile of nanosecond durations in
// microseconds; ds is sorted in place.
func durQuantile(ds []int64, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	slices.Sort(ds)
	pos := q * float64(len(ds)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(ds)-1)
	v := float64(ds[lo]) + float64(ds[hi]-ds[lo])*(pos-float64(lo))
	return v / 1e3
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// cpuTime is this process's user+system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeSample is a snapshot of the Go runtime counters the benchmark
// reports: CPU, heap allocations and GC work.
type runtimeSample struct {
	CPU       time.Duration `json:"cpu_ns"`
	Allocs    uint64        `json:"allocs"`
	GCCycles  uint64        `json:"gc_cycles"`
	GCCPU     float64       `json:"gc_cpu_s"`
	TotalCPU  float64       `json:"total_cpu_s"`
	HeapBytes uint64        `json:"heap_bytes"`
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/memory/classes/heap/objects:bytes",
}

// sampleRuntime reads the counters. The CPU-class metrics are updated
// by the runtime only at GC boundaries, so GC CPU share is meaningful
// over spans that contain several cycles.
func sampleRuntime() runtimeSample {
	ms := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	return runtimeSample{
		CPU:       cpuTime(),
		Allocs:    ms[0].Value.Uint64(),
		GCCycles:  ms[1].Value.Uint64(),
		GCCPU:     ms[2].Value.Float64(),
		TotalCPU:  ms[3].Value.Float64(),
		HeapBytes: ms[4].Value.Uint64(),
	}
}

// delta is the counter growth from a to b.
type delta struct {
	CPU      time.Duration
	Allocs   uint64
	GCCycles uint64
	GCCPU    float64
	TotalCPU float64
}

func (b runtimeSample) since(a runtimeSample) delta {
	return delta{
		CPU:      b.CPU - a.CPU,
		Allocs:   b.Allocs - a.Allocs,
		GCCycles: b.GCCycles - a.GCCycles,
		GCCPU:    b.GCCPU - a.GCCPU,
		TotalCPU: b.TotalCPU - a.TotalCPU,
	}
}

// add accumulates another span's growth.
func (d *delta) add(o delta) {
	d.CPU += o.CPU
	d.Allocs += o.Allocs
	d.GCCycles += o.GCCycles
	d.GCCPU += o.GCCPU
	d.TotalCPU += o.TotalCPU
}

// liveHeap collects garbage and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	return sampleRuntime().HeapBytes
}
