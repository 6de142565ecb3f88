package main

import (
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// epoch is read at package initialisation, before main runs: set-up time
// is measured from it, and mono's readings count from it.
var epoch = time.Now()

// preEpoch is how long package initialisation ran before epoch, from the
// time package's own: time.Now's monotonic reading counts from there,
// and Time.String prints it as "m=+<seconds>". It covers every imported
// package that depends on time, which includes every one that uses fmt
// or os. Set-up time adds it, so that work moved into package
// initialisation still shows.
var preEpoch = monotonicReading(epoch)

// monotonicReading returns t's monotonic clock reading in ns, 0 if t
// has none.
func monotonicReading(t time.Time) int64 {
	s := t.String()
	i := strings.LastIndex(s, " m=")
	if i < 0 {
		return 0
	}
	sec, err := strconv.ParseFloat(s[i+len(" m="):], 64)
	if err != nil {
		return 0
	}
	return int64(sec * 1e9)
}

// mono is the benchmark's clock: monotonic nanoseconds since epoch. One
// read costs one monotonic clock call, half of what time.Now costs.
func mono() int64 { return int64(time.Since(epoch)) }

// at converts a mono reading back to wall time, for span timestamps.
func at(ns int64) time.Time { return epoch.Add(time.Duration(ns)) }

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs,
// sorting xs in place; 0 for an empty sample.
func percentile(xs []int64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	k := int(p*float64(len(xs))+0.999999999) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(xs) {
		k = len(xs) - 1
	}
	return float64(xs[k])
}

// median returns the median of xs the way Python's statistics.median
// does (the mean of the middle two for an even count); 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs with the method
// of Python's statistics.quantiles(xs, n=4) (method "exclusive"), which
// is how the spread of repeated runs is judged. With one value both are
// that value.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// cpuNS returns the process's user plus system CPU time and its peak
// resident set in bytes.
func cpuNS() (cpu int64, maxRSS int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano(), ru.Maxrss * 1024
}
