package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/flight"
	"repro/internal/multipath"
	"repro/internal/obs"
	"repro/internal/recognizer"
	"repro/internal/serve"
)

// directSender submits each event of the batch straight into
// Engine.Submit, without wire or ingest, retrying a full queue the way
// ingest's default Submitter policy does (yield, try again).
type directSender struct {
	eng *serve.Engine
	tr  *tracer // stamps each Submit call when the phase measures queue wait

	subNS, accepted, refused int64
}

func (d *directSender) send(l *loop, _ bool) (sentAt, timed int64, err error) {
	for i := range l.batch {
		ev := &l.batch[i]
		sev := serve.Event{
			Session: ev.Session, Finger: multipath.FingerID(ev.Finger), Kind: multipath.EventKind(ev.Kind),
			X: ev.X, Y: ev.Y, T: ev.Seconds(),
		}
		for {
			t0 := mono()
			if d.tr != nil {
				r := l.refs[i]
				d.tr.subAt[d.tr.offset[r.g]+r.i] = t0
			}
			err := d.eng.Submit(sev)
			t1 := mono()
			if err == nil {
				d.subNS += t1 - t0
				d.accepted++
				if i == 0 {
					sentAt = t0
				}
				break
			}
			if !errors.Is(err, serve.ErrQueueFull) {
				return 0, 0, fmt.Errorf("direct submit: %w", err)
			}
			d.refused++
			runtime.Gosched()
		}
	}
	return sentAt, 0, nil
}

// directStats are one direct phase's tallies.
type directStats struct {
	events, gestures int64
	wallNS           int64 // first Submit to last Result
	cpuNS            int64
	subNS, accepted  int64
	spans            uint64  // spans the registry's buffers recorded
	captured         uint64  // bundles the flight recorder kept
	waits            []int64 // sampled queue waits, ns, when stamped
}

// direct runs the same closed-loop users straight into a fresh engine
// for d: the engine with backend, plus reg and rec when non-nil, as the
// workloads configure it. With stamp, every serving of every event
// samples its queue wait: from the Submit call to its Add's start.
func (b *bench) direct(backend recognizer.Backend, reg *obs.Registry, rec *flight.Recorder, d time.Duration, stamp bool) (directStats, error) {
	var st directStats
	tr := b.tr
	tb := newTimedBackend(backend, tr, stamp)
	tl := newTimeline(0, d, 1)
	served := newServedSet(b.pool.gestures())
	perLoop := b.cfg.users / numConns
	loops := make([]*loop, numConns)
	for i := range loops {
		loops[i] = newLoop(b.pool, tl, nil, i*perLoop, perLoop, served)
	}
	rt := newRouter(b.pool, loops, perLoop)
	eng, err := serve.New(nil, serve.Options{Backend: tb, OnResult: rt.onResult, Obs: reg, Flight: rec})
	if err != nil {
		return st, fmt.Errorf("direct engine: %w", err)
	}
	senders := make([]*directSender, numConns)
	for i := range senders {
		senders[i] = &directSender{eng: eng}
		if stamp {
			senders[i].tr = tr
		}
	}
	cpu0, _ := cpuNS()
	start := mono()
	errc := make(chan error, numConns)
	for i := range loops {
		l, s := loops[i], senders[i]
		go func() {
			err := l.run(s)
			if err != nil {
				tl.abort.Store(true)
			}
			errc <- err
		}()
	}
	var first error
	for range loops {
		if err := <-errc; err != nil && first == nil {
			first = err
		}
	}
	cpu1, _ := cpuNS()
	if err := eng.Close(); err != nil && first == nil {
		first = err
	}
	if first != nil {
		return st, fmt.Errorf("direct phase: %w", first)
	}
	t := tallies{stats: eng.Stats(), unknown: rt.unknown.Load(), overflow: rt.overflow.Load(), observed: reg != nil, decoded: -1}
	var last int64
	for i, l := range loops {
		t.events += l.events
		t.gestures += l.gestures
		t.results += l.absorbed
		t.refused += senders[i].refused
		t.overflow += int64(len(l.results))
		st.subNS += senders[i].subNS
		st.accepted += senders[i].accepted
		if l.lastAt > last {
			last = l.lastAt
		}
	}
	if reg != nil {
		t.completed = reg.Counter("serve.sessions.completed").Value()
		for _, sp := range reg.Snapshot().Spans {
			st.spans += sp.Recorded
		}
	}
	t.offered, st.captured = rec.Stats()
	if err := checkTallies(t); err != nil {
		return st, fmt.Errorf("direct phase: %w", err)
	}
	st.events, st.gestures = t.events, t.gestures
	st.wallNS, st.cpuNS = last-start, cpu1-cpu0
	st.waits = tb.totals().waits.xs
	return st, nil
}
