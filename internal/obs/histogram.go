package obs

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Histogram is a streaming histogram over fixed bucket boundaries: the
// boundaries are set at registration and never change, so two snapshots
// of the same registry are structurally identical regardless of what was
// observed. Bucket i counts observations v with bounds[i-1] < v <=
// bounds[i]; one extra overflow bucket counts v > bounds[len-1].
//
// Observe is lock-free (one atomic add per observation plus CAS loops
// for the sum and extremes) and safe for concurrent use from any number
// of goroutines. All methods are no-ops (or return zero values) on a nil
// receiver.
type Histogram struct {
	bounds []float64      // immutable after construction, ascending
	counts []atomic.Int64 // len(bounds)+1; last is the overflow bucket
	count  atomic.Int64
	sum    atomicFloat64
	min    atomicFloat64 // +Inf until the first observation
	max    atomicFloat64 // -Inf until the first observation
	// exemplars holds the last exemplar recorded per bucket (nil until
	// the bucket's first ObserveExemplar), published through atomic
	// pointers so readers never see a torn record.
	exemplars []atomic.Pointer[Exemplar]
}

// Exemplar links one bucket of a histogram to the concrete event that
// last landed in it: the observed value, the span ID of the trace it
// belongs to (obs.Span.ID — follow it into the span buffer / Chrome
// trace), the flight-recorder bundle sequence when the gesture was
// captured (0 when not), and the wall-clock record time. This is the
// p99-outlier-to-trace-to-replayable-bundle link OBSERVABILITY.md's
// "Exemplars" section documents. Bucket is the index into the owning
// HistogramSnap's Counts.
type Exemplar struct {
	Bucket int     `json:"bucket"`
	Value  float64 `json:"value"`
	SpanID uint64  `json:"span_id,omitempty"`
	Seq    uint64  `json:"seq,omitempty"`
	At     int64   `json:"at"`
}

// newHistogram builds a histogram over a defensive copy of the given
// ascending boundaries.
func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	h := &Histogram{
		bounds:    b,
		counts:    make([]atomic.Int64, len(b)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(b)+1),
	}
	h.min.store(math.Inf(1))
	h.max.store(math.Inf(-1))
	return h
}

// Observe records one value. NaN observations are ignored (a poisoned
// measurement must not poison the sum). No-op on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.observe(v)
}

// observe is Observe's enabled body. It returns v's bucket index, or -1
// when v is NaN and was dropped.
func (h *Histogram) observe(v float64) int {
	if math.IsNaN(v) {
		return -1
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.add(v)
	h.min.updateMin(v)
	h.max.updateMax(v)
	return i
}

// ObserveExemplar records v exactly like Observe and additionally
// retains an exemplar on v's bucket: the (span ID, flight-bundle seq)
// identity of the event that produced the observation, so an outlier
// bucket links straight to its trace and replayable bundle. The bucket
// keeps only the most recent exemplar (one small allocation per call —
// use it from per-gesture or per-frame call sites, not per-point hot
// loops). Zero spanID/seq mean "no trace"/"not captured". No-op on a
// nil receiver; NaN observations are ignored.
func (h *Histogram) ObserveExemplar(v float64, spanID, seq uint64) {
	if h == nil {
		return
	}
	h.observeExemplar(v, spanID, seq)
}

// observeExemplar is ObserveExemplar's enabled body.
func (h *Histogram) observeExemplar(v float64, spanID, seq uint64) {
	if i := h.observe(v); i >= 0 {
		h.exemplars[i].Store(&Exemplar{Bucket: i, Value: v, SpanID: spanID, Seq: seq, At: time.Now().UnixNano()})
	}
}

// Count returns the number of observations; 0 on a nil receiver.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations; 0 on a nil receiver.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.load()
}

// Quantile estimates the q-quantile of the live histogram from its
// current bucket counts — see HistogramSnap.Quantile for the estimator
// and its upper-bound caveat. It snapshots the buckets first, so the
// answer is internally consistent under concurrent Observes. Returns 0
// on a nil receiver or an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	return h.snapshot("").Quantile(q)
}

// snapshot captures the histogram's current state. Buckets race benignly
// with concurrent Observes: each bucket load is atomic, so totals may be
// mid-update by a handful of events but never torn.
func (h *Histogram) snapshot(name string) HistogramSnap {
	s := HistogramSnap{
		Name:   name,
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.sum.load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	for i := range h.exemplars {
		if ex := h.exemplars[i].Load(); ex != nil {
			s.Exemplars = append(s.Exemplars, *ex)
		}
	}
	if s.Count > 0 {
		s.Min = h.min.load()
		s.Max = h.max.load()
	}
	return s
}

// HistogramSnap is the point-in-time state of one histogram inside a
// Snapshot. Counts has one entry per bucket: Counts[i] holds
// observations in (Bounds[i-1], Bounds[i]], and the final entry counts
// overflow beyond the last boundary. Min and Max are 0 when Count is 0.
// Exemplars carries the buckets' retained exemplars in bucket order
// (only buckets that ever received an ObserveExemplar appear; empty for
// histograms fed by Observe alone).
type HistogramSnap struct {
	Name      string     `json:"name"`
	Count     int64      `json:"count"`
	Sum       float64    `json:"sum"`
	Min       float64    `json:"min"`
	Max       float64    `json:"max"`
	Bounds    []float64  `json:"bounds"`
	Counts    []int64    `json:"counts"`
	Exemplars []Exemplar `json:"exemplars,omitempty"`
}

// Mean returns the arithmetic mean of the observations, or 0 when empty.
func (s HistogramSnap) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-quantile (q in [0,1]) from the bucket counts
// by linear interpolation inside the containing bucket, clamped to the
// observed min/max. This is the per-gesture-distribution signal the
// text report surfaces (p50/p95/p99). The estimate is an upper-bound
// estimate in the usual bucket-histogram sense: the true quantile lies
// in the same bucket, so the reported value never exceeds the bucket's
// upper boundary and the error is at most one bucket width.
func (s HistogramSnap) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q <= 0 {
		return s.Min
	}
	if q >= 1 {
		return s.Max
	}
	rank := q * float64(s.Count)
	var cum int64
	for i, c := range s.Counts {
		if float64(cum+c) < rank {
			cum += c
			continue
		}
		// The rank falls in bucket i. Interpolate across its span.
		lo := s.Min
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Max
		if i < len(s.Bounds) {
			hi = s.Bounds[i]
		}
		if lo < s.Min {
			lo = s.Min
		}
		if hi > s.Max {
			hi = s.Max
		}
		if c == 0 || hi < lo {
			return lo
		}
		frac := (rank - float64(cum)) / float64(c)
		return lo + frac*(hi-lo)
	}
	return s.Max
}
