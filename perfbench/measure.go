package main

import (
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// phase is what one timed phase cost the process: wall time, process CPU
// (user+sys over every thread, so GC and the in-process server count), host
// steal, heap allocations and GC cycles.
type phase struct {
	wallS, cpuS, sysS, stealS float64
	mallocs, allocBytes       uint64
	gcCycles                  uint32
}

// meter brackets a timed phase.
type meter struct {
	t0     time.Time
	cpu0   float64
	sys0   float64
	steal0 float64
	ms0    runtime.MemStats
}

func startMeter() *meter {
	m := &meter{}
	runtime.ReadMemStats(&m.ms0)
	m.steal0 = stealSeconds()
	m.cpu0, m.sys0 = cpuSeconds()
	m.t0 = time.Now()
	return m
}

func (m *meter) stop() phase {
	wall := time.Since(m.t0).Seconds()
	cpu, sys := cpuSeconds()
	steal := stealSeconds() - m.steal0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return phase{
		wallS: wall, cpuS: cpu - m.cpu0, sysS: sys - m.sys0, stealS: steal,
		mallocs:    ms.Mallocs - m.ms0.Mallocs,
		allocBytes: ms.TotalAlloc - m.ms0.TotalAlloc,
		gcCycles:   ms.NumGC - m.ms0.NumGC,
	}
}

// cpuSeconds returns the process's user+system CPU time and, of it, the
// system time.
func cpuSeconds() (total, sys float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime), tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// userHZ is the kernel's clock-tick rate for /proc/stat (USER_HZ, 100 on
// every Linux ABI Go supports).
const userHZ = 100

// stealSeconds is the host's cumulative steal time summed over all CPUs,
// from the aggregate "cpu" line of /proc/stat (0 where unavailable).
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / userHZ
}

// liveHeapMB forces a collection and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// sample is a set of durations in milliseconds.
type sample []float64

func (s *sample) add(d time.Duration) { *s = append(*s, d.Seconds()*1000) }

// q returns the q-quantile by linear interpolation between order
// statistics (0 for an empty sample).
func (s sample) q(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	v := append([]float64(nil), s...)
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(pos)
	if lo+1 >= len(v) {
		return v[len(v)-1]
	}
	frac := pos - float64(lo)
	return v[lo]*(1-frac) + v[lo+1]*frac
}

func median(v []float64) float64 { return sample(v).q(0.5) }

// blocksPerPhase is how many consecutive blocks of completed ops a timed
// phase is cut into; each block is followed by a reference-core speed
// sample (refcore.go).
const blocksPerPhase = 50

// tally records a timed phase's completed ops in completion order, the
// process CPU clock at every block boundary and the host speed measured
// right after each block. Safe for concurrent use.
type tally struct {
	mu    sync.Mutex
	every int
	lat   sample
	cpu   []float64 // at the phase start and after every block
	speed []float64 // after every block
	ref   *refCore
}

func newTally(ops int) *tally {
	every := max(1, ops/blocksPerPhase)
	t := &tally{every: every, lat: make(sample, 0, ops), speed: make([]float64, ops/every), ref: newRefCore()}
	c, _ := cpuSeconds()
	t.cpu = []float64{c}
	return t
}

// done records one completed op and its wall time.
func (t *tally) done(d time.Duration) {
	t.mu.Lock()
	t.lat.add(d)
	block := -1
	if len(t.lat)%t.every == 0 {
		c, _ := cpuSeconds()
		t.cpu = append(t.cpu, c)
		block = len(t.cpu) - 2
	}
	t.mu.Unlock()
	if block >= 0 && block < len(t.speed) {
		s := t.ref.speed(1)
		t.mu.Lock()
		t.speed[block] = s
		t.mu.Unlock()
	}
}

// blocks is the number of whole blocks recorded.
func (t *tally) blocks() int { return min(len(t.cpu)-1, len(t.speed)) }

// smoothSpeed returns the host speed for every whole block: the median of
// the samples taken after it and after its two neighbours, so one burst
// that got preempted does not rescale a whole block.
func (t *tally) smoothSpeed() []float64 {
	n := t.blocks()
	out := make([]float64, n)
	for k := range out {
		out[k] = median(t.speed[max(0, k-1):min(n, k+2)])
	}
	return out
}

// rate returns completed ops per reference-core CPU second over the whole
// blocks: each block's process CPU time scaled by the host speed.
func (t *tally) rate() float64 {
	cpu := 0.0
	for k, s := range t.smoothSpeed() {
		cpu += (t.cpu[k+1] - t.cpu[k]) * s
	}
	return float64(t.blocks()*t.every) / cpu
}

// latency returns the op latencies of the whole blocks in reference-core
// milliseconds.
func (t *tally) latency() sample {
	out := make(sample, 0, t.blocks()*t.every)
	for k, s := range t.smoothSpeed() {
		for _, v := range t.lat[k*t.every : (k+1)*t.every] {
			out = append(out, v*s)
		}
	}
	return out
}

// hostSpeed is the median host speed over the phase.
func (t *tally) hostSpeed() float64 { return median(t.speed[:t.blocks()]) }
