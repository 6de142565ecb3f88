package obs

import (
	"sort"
	"sync/atomic"
	"time"
)

// Event is one trace entry: a named occurrence with an optional free-form
// detail (session ID, class name, ...). Events are immutable once
// emitted; Seq is a global per-ring sequence number, At a wall-clock
// unix-nanosecond timestamp.
type Event struct {
	Seq    uint64 `json:"seq"`
	At     int64  `json:"at"`
	Name   string `json:"name"`
	Detail string `json:"detail,omitempty"`
}

// Ring is a lock-free bounded event trace: the last Cap events emitted,
// oldest overwritten first. Writers claim a slot with one atomic add and
// publish an immutable Event through an atomic pointer, so emission
// never blocks and never tears; readers (Events, snapshots) see a
// consistent best-effort view. All methods are safe for concurrent use
// and no-ops on a nil receiver.
type Ring struct {
	slots []atomic.Pointer[Event]
	next  atomic.Uint64
}

// defaultRingCap is the trace capacity used when a ring is registered
// with a non-positive capacity.
const defaultRingCap = 1024

func newRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = defaultRingCap
	}
	return &Ring{slots: make([]atomic.Pointer[Event], capacity)}
}

// Emit appends one event to the trace, overwriting the oldest entry when
// the ring is full. No-op on a nil receiver.
func (r *Ring) Emit(name, detail string) {
	if r == nil {
		return
	}
	r.emit(name, detail)
}

// emit is Emit's enabled body.
func (r *Ring) emit(name, detail string) {
	seq := r.next.Add(1) - 1
	e := &Event{Seq: seq, At: time.Now().UnixNano(), Name: name, Detail: detail}
	r.slots[seq%uint64(len(r.slots))].Store(e)
}

// Cap returns the ring's capacity; 0 on a nil receiver.
func (r *Ring) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.slots)
}

// Events returns the retained events in sequence order (oldest first).
// The view is best-effort under concurrent emission: an event being
// overwritten at read time appears either as its old or its new value,
// never torn. Returns nil on a nil receiver.
func (r *Ring) Events() []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, 0, len(r.slots))
	for i := range r.slots {
		if e := r.slots[i].Load(); e != nil {
			out = append(out, *e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// TraceSnap is the point-in-time state of one trace ring inside a
// Snapshot: its capacity, the total number of events ever emitted, and
// the retained tail in sequence order.
type TraceSnap struct {
	Name    string  `json:"name"`
	Cap     int     `json:"cap"`
	Emitted uint64  `json:"emitted"`
	Events  []Event `json:"events"`
}

func (r *Ring) snapshot(name string) TraceSnap {
	return TraceSnap{Name: name, Cap: r.Cap(), Emitted: r.next.Load(), Events: r.Events()}
}
