// Package obs is the repo's observability substrate: atomic counters,
// streaming histograms with fixed bucket boundaries, and a lock-free
// ring-buffered event trace, collected in a Registry whose Snapshot is
// deterministic in structure (metric names, types, and bucket boundaries
// never depend on timing or scheduling, only the observed values do).
//
// The layer is stdlib-only and designed around two constraints:
//
//   - Nil safety. Every instrument is a pointer type whose methods are
//     no-ops on a nil receiver, and every Registry accessor returns nil
//     from a nil registry. Instrumented packages therefore hold plain
//     handles and call them unconditionally; when no registry is
//     attached the calls cost under 5 ns each (BenchmarkObsDisabled*
//     proves it, CI publishes the numbers in BENCH_obs.json). That
//     holds because every exported per-event method is a nil check
//     small enough to inline, with its enabled body in an unexported
//     helper; TestDisabledPathInlines checks the compiler agrees.
//
//   - Concurrency. All instruments are safe for concurrent use from any
//     number of goroutines without locks on the hot path: counters and
//     histogram buckets are atomics, float accumulators are CAS loops
//     on bit patterns, and the trace ring publishes immutable events
//     through atomic pointers. The whole package is exercised under the
//     race detector.
//
// OBSERVABILITY.md documents every metric the repo emits — names,
// types, units, bucket boundaries, and the emitting package — and a
// test asserts that contract against a live Snapshot.
package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// Counter is a monotonically-increasing (by convention) atomic counter.
// All methods are safe for concurrent use and are no-ops on a nil
// receiver, so disabled instrumentation costs only the nil check.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Value returns the current count; 0 on a nil receiver.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// atomicFloat64 accumulates a float64 via CAS on its bit pattern, so
// histogram sums need no lock. The zero value is 0.
type atomicFloat64 struct {
	bits atomic.Uint64
}

func (a *atomicFloat64) add(v float64) {
	for {
		old := a.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if a.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (a *atomicFloat64) load() float64 { return math.Float64frombits(a.bits.Load()) }

func (a *atomicFloat64) store(v float64) { a.bits.Store(math.Float64bits(v)) }

// min/max via CAS: update only when v improves on the current extreme.
func (a *atomicFloat64) updateMin(v float64) {
	for {
		old := a.bits.Load()
		if v >= math.Float64frombits(old) {
			return
		}
		if a.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func (a *atomicFloat64) updateMax(v float64) {
	for {
		old := a.bits.Load()
		if v <= math.Float64frombits(old) {
			return
		}
		if a.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Start returns the current time when h is non-nil and the zero Time
// otherwise, so disabled instrumentation skips the clock read entirely.
// Pair with ObserveSince.
func Start(h *Histogram) time.Time {
	if h == nil {
		return time.Time{}
	}
	return time.Now()
}

// ObserveSince records the elapsed nanoseconds since start into h. It is
// a no-op when h is nil or start is the zero Time (the disabled-path
// partner of Start), so the pattern
//
//	start := obs.Start(m.latency)
//	...work...
//	obs.ObserveSince(m.latency, start)
//
// costs two sub-5ns calls when m.latency is nil.
func ObserveSince(h *Histogram, start time.Time) {
	if h == nil {
		return
	}
	h.observeSince(start)
}

// observeSince is ObserveSince's enabled body, zero-start check included.
func (h *Histogram) observeSince(start time.Time) {
	if start.IsZero() {
		return
	}
	h.observe(float64(time.Since(start)))
}

// ObserveSinceWindowed records the elapsed nanoseconds since start into
// both the cumulative histogram h and its windowed sibling w with a
// single clock read, keeping the two views of one latency in lockstep.
// Like ObserveSince it is a no-op when start is the zero Time; each
// instrument is individually nil-safe, so any subset may be attached.
func ObserveSinceWindowed(h *Histogram, w *WindowedHistogram, start time.Time) {
	if h == nil && w == nil {
		return
	}
	observeSinceWindowed(h, w, start)
}

// observeSinceWindowed is ObserveSinceWindowed's enabled body, zero-start
// check included.
func observeSinceWindowed(h *Histogram, w *WindowedHistogram, start time.Time) {
	if start.IsZero() {
		return
	}
	d := float64(time.Since(start))
	h.Observe(d)
	w.Observe(d)
}

// LatencyBuckets returns the standard duration bucket boundaries, in
// nanoseconds: a 1-2.5-5 progression from 250 ns to 10 s. Fixed
// boundaries keep Snapshot output deterministic for tests and make
// run-over-run histograms directly comparable. The slice is fresh on
// every call; callers may keep it.
func LatencyBuckets() []float64 {
	return []float64{
		250, 500,
		1e3, 2.5e3, 5e3,
		1e4, 2.5e4, 5e4,
		1e5, 2.5e5, 5e5,
		1e6, 2.5e6, 5e6,
		1e7, 2.5e7, 5e7,
		1e8, 2.5e8, 5e8,
		1e9, 2.5e9, 5e9,
		1e10,
	}
}

// FractionBuckets returns bucket boundaries for values in [0,1] (commit
// points, utilizations): 0.05 steps. The slice is fresh on every call.
func FractionBuckets() []float64 {
	out := make([]float64, 20)
	for i := range out {
		out[i] = float64(i+1) / 20
	}
	return out
}

// DepthBuckets returns bucket boundaries for queue depths and other
// small non-negative integers: 0, 1, 2, then powers of two to 1024.
// The slice is fresh on every call.
func DepthBuckets() []float64 {
	return []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
}
