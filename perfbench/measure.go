package main

import (
	"bufio"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runtimeMetrics are the runtime/metrics counters read around every
// repetition, in the order snapshot stores them.
var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// snapshot is the process's host-cost counters at one instant.
type snapshot struct {
	wall       time.Time
	cpu        time.Duration // user + system, from getrusage
	allocBytes uint64
	allocObjs  uint64
	gcCycles   uint64
	gcCPU      float64 // runtime estimate, seconds
	totalCPU   float64 // runtime estimate, seconds
}

func takeSnapshot() snapshot {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, n := range runtimeMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	var ru syscall.Rusage
	// getrusage(RUSAGE_SELF) fails only on a bad pointer or flag.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return snapshot{
		wall:       time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: s[0].Value.Uint64(),
		allocObjs:  s[1].Value.Uint64(),
		gcCycles:   s[2].Value.Uint64(),
		gcCPU:      s[3].Value.Float64(),
		totalCPU:   s[4].Value.Float64(),
	}
}

// cost is the host cost of one repetition: the difference between the
// snapshots taken around it.
type cost struct {
	wallS, cpuS float64
	allocBytes  float64
	allocObjs   float64
	gcCycles    float64
	gcCPUFrac   float64
	peakRSS     float64
}

func costBetween(a, b snapshot) cost {
	c := cost{
		wallS:      b.wall.Sub(a.wall).Seconds(),
		cpuS:       (b.cpu - a.cpu).Seconds(),
		allocBytes: float64(b.allocBytes - a.allocBytes),
		allocObjs:  float64(b.allocObjs - a.allocObjs),
		gcCycles:   float64(b.gcCycles - a.gcCycles),
	}
	if total := b.totalCPU - a.totalCPU; total > 0 {
		c.gcCPUFrac = (b.gcCPU - a.gcCPU) / total
	}
	return c
}

// timed runs one repetition between two snapshots. Returning every free
// page to the OS first gives each repetition the heap and resident set a
// fresh process would start from, so its peak resident set is its own.
func timed(r runner, tr *tracer) (outcome, cost) {
	debug.FreeOSMemory()
	reset := resetPeakRSS()
	before := takeSnapshot()
	out := r.run(tr)
	c := costBetween(before, takeSnapshot())
	c.peakRSS = peakRSSBytes(reset)
	return out, c
}

// resetPeakRSS lowers the kernel's resident-set high-water mark to the
// current resident set, reporting whether the kernel allows it.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSBytes is the resident-set high-water mark: since the last reset
// if reset succeeded, else over the process's life (ru_maxrss).
func peakRSSBytes(reset bool) float64 {
	if reset {
		if kb, ok := statusKB("VmHWM"); ok {
			return kb * 1024
		}
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) * 1024 // Linux reports kilobytes
}

// statusKB reads one kilobyte field of /proc/self/status.
func statusKB(field string) (float64, bool) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && k == field {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb, err == nil
		}
	}
	return 0, false
}

// median returns the middle of xs (the mean of the middle pair for an
// even count), or 0 for none.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// medianOf is the median of one field over every repetition.
func medianOf(costs []cost, field func(cost) float64) float64 {
	xs := make([]float64, len(costs))
	for i, c := range costs {
		xs[i] = field(c)
	}
	return median(xs)
}
