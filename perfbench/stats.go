package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// summary condenses latency samples (nanoseconds). Timings are reported
// as the median and as the highest percentile with at least ten
// samples beyond it: p99 when there are enough samples, lower
// otherwise, and the label says which.
type summary struct {
	n         int
	mean      float64
	p50       float64
	high      float64
	highLabel string
}

var highPercentiles = []struct {
	q     float64
	label string
}{{0.99, "p99"}, {0.95, "p95"}, {0.90, "p90"}, {0.50, "p50"}}

// summarize sorts samples in place.
func summarize(samples []int64) summary {
	s := summary{n: len(samples)}
	if s.n == 0 {
		return s
	}
	slices.Sort(samples)
	var sum float64
	for _, v := range samples {
		sum += float64(v)
	}
	s.mean = sum / float64(s.n)
	s.p50 = float64(samples[rank(s.n, 0.5)])
	for _, hp := range highPercentiles {
		i := rank(s.n, hp.q)
		if s.n-(i+1) >= 10 || hp.q == 0.5 {
			s.high, s.highLabel = float64(samples[i]), hp.label
			break
		}
	}
	return s
}

// rank is the nearest-rank index of quantile q among n sorted samples.
func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	return max(0, min(n-1, i))
}

func medianFloat(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func since(t time.Time) int64 { return int64(time.Since(t)) }

// rtProbe brackets a measured phase with Go runtime readings: bytes
// allocated, GC CPU time and GC pauses.
type rtProbe struct {
	alloc   uint64
	numGC   uint32
	gcCPU   float64
	allCPU  float64
	samples []metrics.Sample
}

type rtDelta struct {
	allocBytes   uint64
	gcCPUShare   float64
	gcPauseP99Us float64
	gcs          int
}

func startRT() *rtProbe {
	p := &rtProbe{samples: []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.alloc, p.numGC = ms.TotalAlloc, ms.NumGC
	p.gcCPU, p.allCPU = p.cpu()
	return p
}

func (p *rtProbe) cpu() (gc, all float64) {
	metrics.Read(p.samples)
	return p.samples[0].Value.Float64(), p.samples[1].Value.Float64()
}

func (p *rtProbe) stop() rtDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc, all := p.cpu()
	d := rtDelta{allocBytes: ms.TotalAlloc - p.alloc, gcs: int(ms.NumGC - p.numGC)}
	if all > p.allCPU {
		d.gcCPUShare = (gc - p.gcCPU) / (all - p.allCPU)
	}
	// PauseNs is a ring of the last 256 pauses; the phase's are the
	// newest min(gcs, 256) entries.
	n := min(d.gcs, len(ms.PauseNs))
	pauses := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		pauses = append(pauses, int64(ms.PauseNs[(int(ms.NumGC)-1-i+len(ms.PauseNs))%len(ms.PauseNs)]))
	}
	if len(pauses) > 0 {
		slices.Sort(pauses)
		d.gcPauseP99Us = float64(pauses[rank(len(pauses), 0.99)]) / 1e3
	}
	return d
}

// liveHeapMB is the live heap after a full collection, in MB.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// cpuNow is the CPU time the process has used so far (user + system,
// all threads). Unlike wall time it does not grow while other processes
// or the hypervisor hold the cores.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
