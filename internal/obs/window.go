package obs

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Clock is the time source windowed instruments rotate on. It matches
// serve.Clock (fault.ManualClock implements both), so the serving
// engine's virtual clock can drive window rotation deterministically in
// tests: serve.New forwards its Options.Clock to the registry via
// SetClock.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
}

// Window sizing defaults, used when a windowed instrument is registered
// with non-positive slot duration or slot count.
const (
	// DefaultWindowSlot is the default slot (bucket) duration of a
	// windowed instrument: 10 s of resolution.
	DefaultWindowSlot = 10 * time.Second
	// DefaultWindowSlots is the default slot count: 180 slots of
	// DefaultWindowSlot give a 30-minute ring. SLO windows longer than
	// the ring evaluate over what the ring covers (see internal/slo).
	DefaultWindowSlots = 180
)

// clockBox boxes a Clock so clockSource can publish it through an
// atomic.Pointer (an interface value is two words and cannot be stored
// atomically). A nil box means the wall clock.
type clockBox struct{ c Clock }

// clockSource is the registry's swappable time source, shared by
// reference with every windowed instrument it registers. The atomic
// pointer stays encapsulated here so SetClock is safe against concurrent
// observations.
type clockSource struct{ p atomic.Pointer[clockBox] }

// now reads the clock: the wall clock until set installs another.
func (cs *clockSource) now() time.Time {
	if b := cs.p.Load(); b != nil {
		return b.c.Now()
	}
	return time.Now()
}

// set installs c as the time source; nil restores the wall clock.
func (cs *clockSource) set(c Clock) {
	if c == nil {
		cs.p.Store(nil)
		return
	}
	cs.p.Store(&clockBox{c: c})
}

// WindowedCounter is a rate-of-change counter: a lock-free ring of
// fixed-duration slots, each counting the events observed during its
// time slice. Where Counter answers "how many since process start",
// WindowedCounter answers "how many in the last N seconds" — the signal
// SLO burn rates and the gtop dashboard are built on.
//
// Slot rotation is driven lazily by the observing goroutines (no
// background ticker): each Add computes the current epoch from the
// registry clock and CAS-claims the slot if it is stale. An observation
// racing a rotation boundary may land in the outgoing slot or be lost;
// the error is bounded by one rotation per slot and the totals-since-
// start live in the cumulative sibling instrument, not here.
//
// All methods are safe for concurrent use and no-ops on a nil receiver
// (the same <5 ns disabled-path contract as Counter, enforced by
// BenchmarkObsDisabledWindowedCounterAdd).
type WindowedCounter struct {
	slotNS int64
	slots  []winSlot
	clk    *clockSource
}

// winSlot is one counter slot: the epoch it currently represents and its
// count. Both atomic, so rotation and observation need no lock.
type winSlot struct {
	epoch atomic.Int64
	count atomic.Int64
}

func newWindowedCounter(slot time.Duration, n int, clk *clockSource) *WindowedCounter {
	slot, n = windowDefaults(slot, n)
	return &WindowedCounter{slotNS: int64(slot), slots: make([]winSlot, n), clk: clk}
}

// windowDefaults applies the Default* fallbacks for non-positive sizing.
func windowDefaults(slot time.Duration, n int) (time.Duration, int) {
	if slot <= 0 {
		slot = DefaultWindowSlot
	}
	if n <= 0 {
		n = DefaultWindowSlots
	}
	return slot, n
}

// slotIndex maps an epoch onto the ring (non-negative even for negative
// epochs, which only a virtual clock before 1970 could produce).
func slotIndex(epoch int64, n int) int {
	i := int(epoch % int64(n))
	if i < 0 {
		i += n
	}
	return i
}

// rotate claims the slot for epoch if it is stale, zeroing it. The CAS
// winner zeroes; a loser re-reads and proceeds. Returns true once the
// slot's epoch matches.
func (s *winSlot) rotate(epoch int64) {
	for {
		old := s.epoch.Load()
		if old == epoch {
			return
		}
		if s.epoch.CompareAndSwap(old, epoch) {
			s.count.Store(0)
			return
		}
	}
}

// Add counts n events into the current slot. No-op on a nil receiver.
func (w *WindowedCounter) Add(n int64) {
	if w == nil {
		return
	}
	w.add(n)
}

// add is Add's enabled body.
func (w *WindowedCounter) add(n int64) {
	epoch := w.clk.now().UnixNano() / w.slotNS
	s := &w.slots[slotIndex(epoch, len(w.slots))]
	s.rotate(epoch)
	s.count.Add(n)
}

// Inc counts one event into the current slot. No-op on a nil receiver.
func (w *WindowedCounter) Inc() { w.Add(1) }

// snapshot captures the live slots (those within the ring's span of the
// current epoch), oldest first.
func (w *WindowedCounter) snapshot(name string) WindowSnap {
	epoch := w.clk.now().UnixNano() / w.slotNS
	ws := WindowSnap{
		Name:   name,
		SlotNS: w.slotNS,
		Slots:  len(w.slots),
		Epoch:  epoch,
	}
	for i := range w.slots {
		s := &w.slots[i]
		e := s.epoch.Load()
		if e <= epoch-int64(len(w.slots)) || e > epoch {
			continue // stale (never rotated since falling out of the span)
		}
		if c := s.count.Load(); c != 0 || e == epoch {
			ws.Live = append(ws.Live, WindowSlotSnap{Epoch: e, Count: c})
		}
	}
	sort.Slice(ws.Live, func(i, j int) bool { return ws.Live[i].Epoch < ws.Live[j].Epoch })
	return ws
}

// WindowedHistogram is the distribution sibling of WindowedCounter: a
// ring of fixed-duration slots, each a full fixed-bucket histogram with
// its own count/sum/min/max. Merging the trailing K live slots yields
// the last-K×slot distribution — live p99 over the last minute instead
// of since process start. Bucket boundaries are fixed at registration,
// exactly like Histogram.
//
// The rotation contract, concurrency contract, and nil-safety are those
// of WindowedCounter; the enabled path performs no allocation
// (TestWindowedEnabledPathZeroAlloc) so hot paths can observe into a
// windowed histogram under the same rules as a cumulative one.
type WindowedHistogram struct {
	bounds []float64
	slotNS int64
	slots  []winHistSlot
	clk    *clockSource
}

// winHistSlot is one histogram slot. All fields atomic; counts has
// len(bounds)+1 entries (the last is the overflow bucket).
type winHistSlot struct {
	epoch  atomic.Int64
	count  atomic.Int64
	sum    atomicFloat64
	min    atomicFloat64 // +Inf until the slot's first observation
	max    atomicFloat64 // -Inf until the slot's first observation
	counts []atomic.Int64
}

func newWindowedHistogram(bounds []float64, slot time.Duration, n int, clk *clockSource) *WindowedHistogram {
	slot, n = windowDefaults(slot, n)
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	w := &WindowedHistogram{bounds: b, slotNS: int64(slot), slots: make([]winHistSlot, n), clk: clk}
	for i := range w.slots {
		s := &w.slots[i]
		s.counts = make([]atomic.Int64, len(b)+1)
		s.min.store(math.Inf(1))
		s.max.store(math.Inf(-1))
	}
	return w
}

// rotate claims the slot for epoch if it is stale, zeroing its counts
// and resetting the extremes. Same CAS discipline as winSlot.rotate.
func (s *winHistSlot) rotate(epoch int64) {
	for {
		old := s.epoch.Load()
		if old == epoch {
			return
		}
		if s.epoch.CompareAndSwap(old, epoch) {
			for i := range s.counts {
				s.counts[i].Store(0)
			}
			s.count.Store(0)
			s.sum.store(0)
			s.min.store(math.Inf(1))
			s.max.store(math.Inf(-1))
			return
		}
	}
}

// Observe records one value into the current slot. NaN observations are
// ignored. No-op on a nil receiver.
func (w *WindowedHistogram) Observe(v float64) {
	if w == nil {
		return
	}
	w.observe(v)
}

// observe is Observe's enabled body, NaN drop included.
func (w *WindowedHistogram) observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	epoch := w.clk.now().UnixNano() / w.slotNS
	s := &w.slots[slotIndex(epoch, len(w.slots))]
	s.rotate(epoch)
	i := sort.SearchFloat64s(w.bounds, v)
	s.counts[i].Add(1)
	s.count.Add(1)
	s.sum.add(v)
	s.min.updateMin(v)
	s.max.updateMax(v)
}

// snapshot captures the live slots, oldest first.
func (w *WindowedHistogram) snapshot(name string) WindowSnap {
	epoch := w.clk.now().UnixNano() / w.slotNS
	ws := WindowSnap{
		Name:   name,
		SlotNS: w.slotNS,
		Slots:  len(w.slots),
		Epoch:  epoch,
		Bounds: append([]float64(nil), w.bounds...),
	}
	for i := range w.slots {
		s := &w.slots[i]
		e := s.epoch.Load()
		if e <= epoch-int64(len(w.slots)) || e > epoch {
			continue
		}
		c := s.count.Load()
		if c == 0 && e != epoch {
			continue
		}
		sl := WindowSlotSnap{Epoch: e, Count: c, Sum: s.sum.load(), Counts: make([]int64, len(s.counts))}
		for j := range s.counts {
			sl.Counts[j] = s.counts[j].Load()
		}
		if c > 0 {
			sl.Min = s.min.load()
			sl.Max = s.max.load()
		}
		ws.Live = append(ws.Live, sl)
	}
	sort.Slice(ws.Live, func(i, j int) bool { return ws.Live[i].Epoch < ws.Live[j].Epoch })
	return ws
}

// WindowSlotSnap is one live slot inside a WindowSnap: the epoch it
// covers (slot start = Epoch × SlotNS in unix nanoseconds) and what was
// observed during it. Counter windows carry Count only; histogram
// windows also carry Sum, per-bucket Counts, and the slot extremes.
type WindowSlotSnap struct {
	Epoch  int64   `json:"epoch"`
	Count  int64   `json:"count"`
	Sum    float64 `json:"sum,omitempty"`
	Min    float64 `json:"min,omitempty"`
	Max    float64 `json:"max,omitempty"`
	Counts []int64 `json:"counts,omitempty"`
}

// WindowSnap is the point-in-time state of one windowed instrument
// inside a Snapshot: the ring geometry, the epoch current at snapshot
// time, and the live slots (oldest first; empty non-current slots are
// elided, so an idle instrument snapshots small). Bounds is nil for
// counter windows.
type WindowSnap struct {
	Name   string           `json:"name"`
	SlotNS int64            `json:"slot_ns"`
	Slots  int              `json:"slots"`
	Epoch  int64            `json:"epoch"`
	Bounds []float64        `json:"bounds,omitempty"`
	Live   []WindowSlotSnap `json:"live"`
}

// covering returns how many trailing slots a window of duration d spans,
// capped at the ring size. Non-positive d means one slot.
func (w WindowSnap) covering(d time.Duration) int64 {
	if w.SlotNS <= 0 {
		return 1
	}
	k := (int64(d) + w.SlotNS - 1) / w.SlotNS
	if k < 1 {
		k = 1
	}
	if k > int64(w.Slots) {
		k = int64(w.Slots)
	}
	return k
}

// Covered reports the slot-granular duration a trailing window of d
// actually evaluates over: ceil(d/slot)×slot, capped at the ring span.
// SLO windows longer than the ring are conservatively evaluated over
// the whole ring — Covered is how callers surface that truncation.
func (w WindowSnap) Covered(d time.Duration) time.Duration {
	return time.Duration(w.covering(d) * w.SlotNS)
}

// Total sums the counts of the live slots within the trailing window d.
func (w WindowSnap) Total(d time.Duration) int64 {
	k := w.covering(d)
	var total int64
	for _, s := range w.Live {
		if s.Epoch > w.Epoch-k {
			total += s.Count
		}
	}
	return total
}

// Rate returns events per second over the trailing window d: Total
// divided by the slot-granular covered duration. 0 when nothing is
// covered.
func (w WindowSnap) Rate(d time.Duration) float64 {
	cov := w.Covered(d).Seconds()
	if cov <= 0 {
		return 0
	}
	return float64(w.Total(d)) / cov
}

// Merge aggregates the live slots of the trailing window d into one
// HistogramSnap (bucket counts summed elementwise, extremes combined),
// ready for Quantile/Mean. Only meaningful for histogram windows; a
// counter window merges to a bucketless snap carrying Count and Sum.
func (w WindowSnap) Merge(d time.Duration) HistogramSnap {
	k := w.covering(d)
	m := HistogramSnap{
		Name:   w.Name,
		Bounds: append([]float64(nil), w.Bounds...),
		Counts: make([]int64, len(w.Bounds)+1),
		Min:    math.Inf(1),
		Max:    math.Inf(-1),
	}
	for _, s := range w.Live {
		if s.Epoch <= w.Epoch-k {
			continue
		}
		m.Count += s.Count
		m.Sum += s.Sum
		for j, c := range s.Counts {
			if j < len(m.Counts) {
				m.Counts[j] += c
			}
		}
		if s.Count > 0 {
			if s.Min < m.Min {
				m.Min = s.Min
			}
			if s.Max > m.Max {
				m.Max = s.Max
			}
		}
	}
	if m.Count == 0 {
		m.Min, m.Max = 0, 0
	}
	return m
}
