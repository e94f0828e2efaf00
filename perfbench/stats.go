package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks. xs is not modified. An empty input gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio divides, answering 0 for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set so far, in MiB
// (getrusage reports ru_maxrss in KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// latencyWindow is the number of consecutive samples each latency
// window holds. A window's p99 has two samples beyond it; the median
// over a run's many windows is the p99 of a typical stretch, which one
// stall of the shared host does not move. The whole-phase p99, with
// its count of samples beyond, is in the report.
const latencyWindow = 200

// latencyReport describes the samples behind a phase's latency metrics:
// their count, the windows, and the whole-phase p99 with the number of
// samples beyond it.
func latencyReport(lat []float64) map[string]any {
	p99 := quantile(lat, 0.99)
	beyond := 0
	for _, v := range lat {
		if v > p99 {
			beyond++
		}
	}
	return map[string]any{
		"samples": len(lat), "windows": max(len(lat)/latencyWindow, 1),
		"phase_p99_ms": p99, "phase_beyond_p99": beyond,
	}
}

// windowedQuantile splits xs (in arrival order) into consecutive windows
// of size samples — the last one absorbing the remainder — and returns
// the median over windows of each window's q-quantile: the quantile of
// a typical stretch of the run, so one stall of the shared host moves
// one window, not the result.
func windowedQuantile(xs []float64, q float64, size int) float64 {
	n := len(xs) / size
	if n <= 1 {
		return quantile(xs, q)
	}
	per := make([]float64, n)
	for i := range per {
		end := (i + 1) * size
		if i == n-1 {
			end = len(xs)
		}
		per[i] = quantile(xs[i*size:end], q)
	}
	return median(per)
}
