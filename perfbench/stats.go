package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice: the smallest sample with at least p% of the samples at or
// below it. It returns NaN for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := nearestRank(p, len(sorted))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// nearestRank is the 1-based rank of the p-th percentile among n samples,
// ceil(p/100*n), with the product's floating-point error rounded away.
func nearestRank(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count) without modifying xs; NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tailStat is the highest reportable latency percentile of a sample: the
// highest of p99.9, p99, p90 and p50 that leaves at least minBeyond samples
// above it, so a tail figure never rests on a handful of observations.
type tailStat struct {
	Label  string  // "p99", "p90", ...
	Value  float64 // in the samples' unit
	N      int     // sample count
	Beyond int     // samples strictly above the percentile's rank
}

const minBeyond = 10

func tailPercentile(sorted []float64) tailStat {
	for _, c := range []struct {
		label string
		p     float64
	}{{"p99.9", 99.9}, {"p99", 99}, {"p90", 90}, {"p50", 50}} {
		if beyond := len(sorted) - nearestRank(c.p, len(sorted)); beyond >= minBeyond {
			return tailStat{Label: c.label, Value: percentile(sorted, c.p), N: len(sorted), Beyond: beyond}
		}
	}
	return tailStat{Label: "none", Value: math.NaN(), N: len(sorted)}
}

// processCPU returns the process's user+system CPU time so far: every
// goroutine of the benchmark — clients, in-process peers, HTTP servers and
// the garbage collector — is charged here.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostCPU is a reading of the machine-wide CPU counters in /proc/stat, in
// clock ticks: the total over all states and the share stolen by the
// hypervisor for other guests.
type hostCPU struct {
	total, steal uint64
	ok           bool
}

func readHostCPU() hostCPU {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return hostCPU{}
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return hostCPU{}
	}
	var h hostCPU
	// user nice system idle iowait irq softirq steal; guest time is already
	// counted inside user and nice.
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(fields[i], 10, 64)
		if err != nil {
			return hostCPU{}
		}
		h.total += v
		if i == 8 {
			h.steal = v
		}
	}
	h.ok = true
	return h
}

// stealShare returns the fraction of machine CPU time stolen between two
// readings, or NaN when /proc/stat was unreadable or nothing elapsed.
func stealShare(a, b hostCPU) float64 {
	if !a.ok || !b.ok || b.total <= a.total {
		return math.NaN()
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// fmtFloat prints a metric value with every significant digit kept.
func fmtFloat(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Sprint(v)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
