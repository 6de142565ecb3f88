package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/recognizer"
)

// spanEvery samples the traced window's spans: one gesture (and one
// frame) in spanEvery records its spans. Every call is still timed; the
// sampling only bounds what span recording allocates.
const spanEvery = 8

// spanCapacity bounds the in-memory span ring written at the end.
const spanCapacity = 1 << 15

// tracer is the traced run's timing state. All timing lives here and in
// the wrappers below, around calls into the program's public functions.
type tracer struct {
	tau   float64 // cost of one empty timed region, ns, subtracted per timed call
	reg   *obs.Registry
	spans *obs.SpanBuffer
	keys  map[[2]float64]int32       // first point of each pool gesture → gesture
	roots []atomic.Pointer[obs.Span] // per gesture: its open root span, sampled gestures only

	// Per pool event (offset[g]+i): when the direct phase last called
	// Engine.Submit with it. The call happens before the shard receives
	// the event, and the event's gesture is not drawn again before its
	// Result, so the wrapped stream's Add reads the stamp of its own
	// serving.
	offset []int32
	subAt  []int64
}

func newTracer(p *pool) (*tracer, error) {
	tr := &tracer{
		tau:    calibrate(),
		reg:    obs.New(),
		keys:   make(map[[2]float64]int32, p.gestures()),
		roots:  make([]atomic.Pointer[obs.Span], p.gestures()),
		offset: make([]int32, p.gestures()+1),
	}
	tr.spans = tr.reg.Spans("servebench.spans", spanCapacity)
	for g, evs := range p.events {
		k := [2]float64{evs[0].X, evs[0].Y}
		if _, dup := tr.keys[k]; dup {
			return nil, fmt.Errorf("gestures %d and %d start at the same point", tr.keys[k], g)
		}
		tr.keys[k] = int32(g)
		tr.offset[g+1] = tr.offset[g] + int32(len(evs))
	}
	tr.subAt = make([]int64, tr.offset[p.gestures()])
	return tr, nil
}

// calibrate measures the apparent length of an empty timed region: the
// median over batches of back-to-back mono reads.
func calibrate() float64 {
	const batches, per = 9, 20000
	var means []float64
	for b := 0; b < batches; b++ {
		var sum int64
		for i := 0; i < per; i++ {
			t0 := mono()
			sum += mono() - t0
		}
		means = append(means, float64(sum)/per)
	}
	return median(means)
}

// corrected returns the time total that calls timed regions measured,
// less the clock's own cost in each.
func (tr *tracer) corrected(total, calls int64) float64 {
	return float64(total) - tr.tau*float64(calls)
}

// gestureOf maps a stroke's first point to its pool gesture, -1 if none.
func (tr *tracer) gestureOf(x, y float64) int32 {
	if g, ok := tr.keys[[2]float64{x, y}]; ok {
		return g
	}
	return -1
}

// startGesture opens a sampled gesture's root span when its down event
// goes into a frame; the wrapped stream hangs its calls under it.
func (tr *tracer) startGesture(u *user) {
	if u.g%spanEvery != 0 {
		return
	}
	sp := tr.spans.Start("gesture")
	sp.SetAttrInt("gesture", int64(u.g))
	sp.SetAttr("session", u.session)
	u.root = sp
	tr.roots[u.g].Store(sp)
}

// endGesture closes a gesture's root span when its Result arrives.
func (tr *tracer) endGesture(u *user, resultAt int64) {
	tr.roots[u.g].Store(nil)
	u.root.EndAt(at(resultAt))
	u.root = nil
}

// frameSpans records a sampled frame's encode and socket calls.
func (tr *tracer) frameSpans(seq, e0, t0, t1, events int64) {
	if seq%spanEvery != 0 {
		return
	}
	root := tr.spans.StartAt("client.frame", at(e0))
	root.SetAttrInt("events", events)
	enc := root.ChildAt("wire.encode", at(e0))
	enc.EndAt(at(t0))
	sock := root.ChildAt("client.socket", at(t0))
	sock.EndAt(at(t1))
	root.EndAt(at(t1))
}

// writeSpans writes the recorded spans as a Chrome trace.
func (tr *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	if err := tr.reg.Snapshot().WriteChromeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}

// commit is the point at which a stream committed to a class: the count
// of points it had consumed, at a firing Add or at End.
type commit struct{ g, at int32 }

// timedBackend wraps a backend so its streams time and count Add and End
// (the engine accepts any recognizer.Backend).
type timedBackend struct {
	recognizer.Backend
	tr        *tracer
	addName   string // span names, e.g. "eager.add"
	endName   string
	stampAdds bool // each Add samples its event's queue wait in the direct phase

	mu      sync.Mutex
	streams []*timedStream
}

func newTimedBackend(b recognizer.Backend, tr *tracer, stampAdds bool) *timedBackend {
	name := b.Caps().Name
	return &timedBackend{Backend: b, tr: tr, addName: name + ".add", endName: name + ".end", stampAdds: stampAdds}
}

// NewStream wraps one of the backend's streams.
func (b *timedBackend) NewStream() (recognizer.Stream, error) {
	s, err := b.Backend.NewStream()
	if err != nil {
		return nil, err
	}
	ts := &timedStream{Stream: s, b: b, g: -1}
	b.mu.Lock()
	b.streams = append(b.streams, ts)
	b.mu.Unlock()
	return ts, nil
}

// streamTotals sums the streams' tallies. Call once nothing drives them.
type streamTotals struct {
	addNS, adds, endNS, ends, fired int64
	commits                         []commit
	waits                           reservoir // queue waits, ns, when stamped
}

func (b *timedBackend) totals() streamTotals {
	b.mu.Lock()
	defer b.mu.Unlock()
	var t streamTotals
	for _, s := range b.streams {
		t.addNS += s.addNS
		t.adds += s.adds
		t.endNS += s.endNS
		t.ends += s.ends
		t.fired += s.fired
		t.commits = append(t.commits, s.commits...)
		t.waits.merge(&s.waits)
	}
	return t
}

// timedStream is one wrapped stream. Like the stream it wraps, it is
// driven by one goroutine at a time.
type timedStream struct {
	recognizer.Stream
	b       *timedBackend
	g       int32 // pool gesture of the current stroke, -1 if unknown
	n       int32 // points added in the current stroke
	decided bool
	root    *obs.Span

	addNS, adds, endNS, ends, fired int64
	commits                         []commit
	waits                           reservoir // Submit call to Add start, ns
}

// Add times the wrapped Add and notes a commit.
func (s *timedStream) Add(p geom.TimedPoint) (bool, string, error) {
	if s.n == 0 {
		s.g = s.b.tr.gestureOf(p.X, p.Y)
		if s.g >= 0 {
			s.root = s.b.tr.roots[s.g].Load()
		}
	}
	t0 := mono()
	fired, class, err := s.Stream.Add(p)
	t1 := mono()
	s.addNS += t1 - t0
	s.adds++
	s.n++
	if s.b.stampAdds && s.g >= 0 {
		s.waits.add(max(t0-s.b.tr.subAt[s.b.tr.offset[s.g]+s.n-1], 0))
	}
	if s.root != nil {
		sp := s.root.ChildAt(s.b.addName, at(t0))
		sp.EndAt(at(t1))
	}
	if fired && !s.decided {
		s.decided = true
		s.fired++
		s.commits = append(s.commits, commit{g: s.g, at: s.n})
	}
	return fired, class, err
}

// End times the wrapped End; a stroke that never fired commits here.
func (s *timedStream) End() (string, error) {
	t0 := mono()
	class, err := s.Stream.End()
	t1 := mono()
	s.endNS += t1 - t0
	s.ends++
	if s.root != nil {
		sp := s.root.ChildAt(s.b.endName, at(t0))
		sp.EndAt(at(t1))
	}
	if !s.decided {
		s.decided = true
		s.commits = append(s.commits, commit{g: s.g, at: s.n})
	}
	return class, err
}

// Reset starts a new stroke.
func (s *timedStream) Reset() {
	s.Stream.Reset()
	s.g, s.n, s.decided, s.root = -1, 0, false, nil
}
