package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/eager"
	"repro/internal/features"
	"repro/internal/flight"
	"repro/internal/geom"
	"repro/internal/gesture"
	"repro/internal/linalg"
	"repro/internal/multipath"
	"repro/internal/obs"
	"repro/internal/recognizer"
	"repro/internal/wire"
)

// layers measures the per-layer metrics after a traced served phase: two
// direct phases (without and with gserve's instrumentation) and offline
// replays of the run's frames and gestures, all single-threaded except
// the direct phases.
func (b *bench) layers(ss servedStats) ([]metric, error) {
	tr := b.tr
	kind := b.cfg.workload.backend
	other := "template"
	if kind == "template" {
		other = "eager"
	}
	trainMS := map[string]float64{kind: float64(b.trainNS) / 1e6}

	// Direct phases. The one matching the workload's instrumentation
	// stamps queue wait; both carry the same timing wrapper, so their
	// difference in CPU per event is the instrumentation's.
	plain := servedBackend(b.backend)
	if b.reg != nil {
		var err error
		if plain, _, err = train(kind, b.set, nil); err != nil {
			return nil, err
		}
	}
	oreg := obs.New()
	orec := flight.NewRecorder(flight.Options{Trigger: flight.TriggerAlways, LatencyThreshold: 10 * time.Millisecond})
	observed, _, err := train(kind, b.set, oreg)
	if err != nil {
		return nil, err
	}
	dPlain, err := b.direct(plain, nil, nil, b.cfg.direct, b.reg == nil)
	if err != nil {
		return nil, err
	}
	dObs, err := b.direct(observed, oreg, orec, b.cfg.direct, b.reg != nil)
	if err != nil {
		return nil, err
	}
	dServed := dPlain
	if b.reg != nil {
		dServed = dObs
	}

	// Replays.
	replay := b.replaySet(kind)
	decodeNS, err := b.decodeReplay(ss.recorded)
	if err != nil {
		return nil, err
	}
	handleNS, err := b.multipathReplay(b.backend, replay)
	if err != nil {
		return nil, err
	}
	runNS, err := b.runReplay(b.backend, replay)
	if err != nil {
		return nil, err
	}
	otherBackend, otherTrain, err := train(other, b.set, nil)
	if err != nil {
		return nil, err
	}
	trainMS[other] = float64(otherTrain) / 1e6
	otherStreams, err := b.streamReplay(otherBackend, b.replaySet(other))
	if err != nil {
		return nil, err
	}
	eagerRec, ok := b.backend.(*eager.Recognizer)
	if !ok {
		eagerRec, ok = otherBackend.(*eager.Recognizer)
	}
	if !ok {
		return nil, errors.New("no eager recognizer to replay features and AUC through")
	}
	updateNS, aucNS, err := b.eagerReplay(eagerRec, b.replaySet("eager"))
	if err != nil {
		return nil, err
	}

	// Served-window figures.
	perEvent := func(x float64, n int64) float64 {
		if n == 0 {
			return 0
		}
		return x / float64(n)
	}
	cpuPerEvent := perEvent(float64(ss.cpuNS), ss.a.events)
	encodeNS := perEvent(tr.corrected(ss.encNS, ss.encFrames), ss.sentB)
	// The loop's own clock reads outside the sender's timed span cost
	// about two timed regions per batch.
	clientNS := perEvent(float64(ss.clientNS)-2*tr.tau*float64(ss.clientIters), ss.clientEvents)
	submitNS := perEvent(tr.corrected(dServed.subNS, dServed.accepted), dServed.accepted)
	st := ss.streams
	var wrapped int64
	for _, c := range st.commits {
		if c.g >= 0 {
			wrapped += int64(len(b.pool.events[c.g]))
		}
	}
	backendPerEvent := perEvent(tr.corrected(st.addNS, st.adds)+tr.corrected(st.endNS, st.ends), wrapped)
	served := backendStats{addNS: perEvent(tr.corrected(st.addNS, st.adds), st.adds), endNS: perEvent(tr.corrected(st.endNS, st.ends), st.ends), early: perEvent(float64(st.fired), int64(len(st.commits)))}
	ot := otherStreams
	others := backendStats{addNS: perEvent(tr.corrected(ot.addNS, ot.adds), ot.adds), endNS: perEvent(tr.corrected(ot.endNS, ot.ends), ot.ends), early: perEvent(float64(ot.fired), int64(len(ot.commits)))}
	byKind := map[string]backendStats{kind: served, other: others}
	rateA := perEvent(float64(ss.a.events), ss.aLen)
	rateB := perEvent(float64(ss.b.events), ss.bLen)
	overhead := 0.0
	if rateA > 0 {
		overhead = 1 - rateB/rateA
	}
	unexplained := cpuPerEvent - (clientNS + encodeNS + decodeNS + submitNS + handleNS + backendPerEvent)

	// Result latency comes from the untraced half. In the closed loop it
	// is the events in flight over the throughput, so it carries the
	// machine's drift as events_per_s does and is reported here, ungated.
	return []metric{
		{"result_p50_us", percentile(ss.a.latency.xs, 0.50) / 1e3, "us"},
		{"result_p99_us", percentile(ss.a.latency.xs, 0.99) / 1e3, "us"},
		{"wire.encode_ns", encodeNS, "ns/event"},
		{"wire.decode_ns", decodeNS, "ns/event"},
		{"wire.bytes_per_event", perEvent(float64(ss.bytes), ss.aEvents), "bytes"},
		{"ingest.ack_p50_us", percentile(ss.ack, 0.50) / 1e3, "us"},
		{"ingest.ack_p99_us", percentile(ss.ack, 0.99) / 1e3, "us"},
		{"ingest.events_per_frame", perEvent(float64(ss.aEvents), ss.frames), "events"},
		{"serve.submit_ns", submitNS, "ns/event"},
		{"serve.direct_events_per_s", perEvent(float64(dServed.events), dServed.wallNS) * 1e9, "events/s"},
		{"serve.queue_wait_p50_us", percentile(dServed.waits, 0.50) / 1e3, "us"},
		{"serve.queue_wait_p99_us", percentile(dServed.waits, 0.99) / 1e3, "us"},
		{"serve.allocs_per_event", perEvent(float64(ss.mallocs), ss.a.events), "allocs"},
		{"multipath.handle_ns", handleNS, "ns/event"},
		{"recognizer.run_ns", runNS, "ns/point"},
		{"eager.add_ns", byKind["eager"].addNS, "ns/point"},
		{"eager.end_ns", byKind["eager"].endNS, "ns/gesture"},
		{"eager.early_commits", byKind["eager"].early, "commits/gesture"},
		{"eager.train_ms", trainMS["eager"], "ms"},
		{"features.update_ns", updateNS, "ns/point"},
		{"classifier.auc_ns", aucNS, "ns/point"},
		{"template.add_ns", byKind["template"].addNS, "ns/point"},
		{"template.end_ns", byKind["template"].endNS, "ns/gesture"},
		{"template.early_commits", byKind["template"].early, "commits/gesture"},
		{"template.train_ms", trainMS["template"], "ms"},
		{"obs.spans_per_event", perEvent(float64(dObs.spans), dObs.events), "spans/event"},
		{"obs.overhead_ns", perEvent(float64(dObs.cpuNS), dObs.events) - perEvent(float64(dPlain.cpuNS), dPlain.events), "ns/event"},
		{"flight.captured_per_gesture", perEvent(float64(dObs.captured), dObs.gestures), "bundles/gesture"},
		{"process.cpu_ns", cpuPerEvent, "ns/event"},
		{"client.ns", clientNS, "ns/event"},
		{"trace.unexplained_ns", unexplained, "ns/event"},
		{"trace.overhead", overhead, "fraction"},
	}, nil
}

// backendStats are one backend's wrapped-stream figures.
type backendStats struct{ addNS, endNS, early float64 }

// replaySet is the gestures a single-threaded replay through the given
// backend takes: the whole pool, or its first cfg.templateReplay
// gestures for the template backend.
func (b *bench) replaySet(kind string) []int32 {
	n := b.pool.gestures()
	if kind == "template" {
		n = min(n, b.cfg.templateReplay)
	}
	gs := make([]int32, n)
	for i := range gs {
		gs[i] = int32(i)
	}
	return gs
}

// repeat runs pass until it has run at least 3 times and 200 ms in all,
// and returns the median over passes of the pass's ns per unit.
func repeat(pass func() (ns, units int64, err error)) (float64, error) {
	var per []float64
	var total int64
	for len(per) < 3 || (total < 200e6 && len(per) < 50) {
		ns, units, err := pass()
		if err != nil {
			return 0, err
		}
		if units == 0 {
			return 0, errors.New("replay had nothing to measure")
		}
		total += ns
		per = append(per, float64(ns)/float64(units))
	}
	return median(per), nil
}

// decodeReplay times wire.Decoder.Decode over the recorded frames of one
// connection, from its first frame, with a fresh decoder each pass.
func (b *bench) decodeReplay(frames [][]byte) (float64, error) {
	var all []byte
	for _, f := range frames {
		all = append(all, f...)
	}
	var payloads [][]byte
	fr := wire.NewFrameReader(bufio.NewReader(bytes.NewReader(all)))
	for {
		p, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, fmt.Errorf("decode replay: %w", err)
		}
		payloads = append(payloads, append([]byte(nil), p...))
	}
	dst := make([]wire.Event, 0, wire.MaxBatch)
	return repeat(func() (int64, int64, error) {
		dec := wire.NewDecoder()
		var n int64
		t0 := mono()
		for _, p := range payloads {
			evs, err := dec.Decode(p, dst[:0])
			if err != nil {
				return 0, 0, fmt.Errorf("decode replay: %w", err)
			}
			n += int64(len(evs))
		}
		return mono() - t0, n, nil
	})
}

// multipathReplay times multipath.Session.Handle over the gestures'
// events, as a shard drives it, minus the wrapped stream's time.
func (b *bench) multipathReplay(backend recognizer.Backend, gs []int32) (float64, error) {
	tb := newTimedBackend(backend, b.tr, false)
	sess := multipath.NewSession(tb)
	return repeat(func() (int64, int64, error) {
		var events, calls int64
		before := tb.totals()
		t0 := mono()
		for _, g := range gs {
			for _, ev := range b.pool.events[g] {
				sess.Handle(multipath.Event{Finger: multipath.FingerID(ev.Finger), Kind: multipath.EventKind(ev.Kind), X: ev.X, Y: ev.Y, T: ev.Seconds()})
			}
			if !sess.Completed() {
				return 0, 0, fmt.Errorf("multipath replay: gesture %d did not complete", g)
			}
			sess.Reset()
			events += int64(len(b.pool.events[g]))
		}
		total := mono() - t0
		after := tb.totals()
		calls = after.adds + after.ends - before.adds - before.ends
		stream := after.addNS + after.endNS - before.addNS - before.endNS
		// Each timed stream call adds its clock reads to the total too.
		return int64(float64(total-stream) - b.tr.tau*float64(calls)), events, nil
	})
}

// runReplay times the backend's batch Run, the single-threaded baseline.
func (b *bench) runReplay(r runner, gs []int32) (float64, error) {
	gestures := make([]gesture.Gesture, len(gs))
	var points int64
	for i, g := range gs {
		gestures[i] = b.pool.gesture(int(g))
		points += int64(gestures[i].Len())
	}
	return repeat(func() (int64, int64, error) {
		t0 := mono()
		for _, gst := range gestures {
			if _, _, err := r.Run(gst); err != nil {
				return 0, 0, fmt.Errorf("run replay: %w", err)
			}
		}
		return mono() - t0, points, nil
	})
}

// streamReplay drives the gestures through wrapped streams of a backend
// the workload does not serve, in the order a multipath session calls
// them: Adds until the stream fires, End if it never does.
func (b *bench) streamReplay(backend recognizer.Backend, gs []int32) (streamTotals, error) {
	tb := newTimedBackend(backend, b.tr, false)
	s, err := tb.NewStream()
	if err != nil {
		return streamTotals{}, err
	}
	for _, g := range gs {
		s.Reset()
		fired := false
		for _, p := range b.pool.gesture(int(g)).Points {
			f, _, err := s.Add(p)
			if err != nil {
				return streamTotals{}, fmt.Errorf("stream replay: %w", err)
			}
			if f {
				fired = true
				break
			}
		}
		if !fired {
			if _, err := s.End(); err != nil {
				return streamTotals{}, fmt.Errorf("stream replay: %w", err)
			}
		}
	}
	return tb.totals(), nil
}

// eagerReplay times the eager recognizer's two per-point layers the way
// an eager session calls them (eager.Session.add): the feature
// extractor's Add on every point the session consumes, up to its commit,
// and from MinSubgesture points on VectorInto and the AUC's ClassifyInto
// on each prefix. Both are reported per consumed point.
func (b *bench) eagerReplay(rec *eager.Recognizer, gs []int32) (updateNS, aucNS float64, err error) {
	paths := make([]geom.Path, len(gs))
	var points int64
	for i, g := range gs {
		gst := b.pool.gesture(int(g))
		_, firedAt, err := rec.Run(gst)
		if err != nil {
			return 0, 0, fmt.Errorf("eager replay: %w", err)
		}
		paths[i] = gst.Points[:firedAt]
		points += int64(firedAt)
	}
	ext, err := features.NewExtractor(rec.Full.Opts)
	if err != nil {
		return 0, 0, err
	}
	judged := rec.Opts.MinSubgesture
	dim := rec.Full.Opts.Dim()
	buf := make(linalg.Vec, dim)
	var vecs []float64
	for _, path := range paths {
		ext.Reset()
		for i, p := range path {
			ext.Add(p)
			if i+1 < judged {
				continue
			}
			if v, err := ext.VectorInto(buf); err == nil {
				vecs = append(vecs, v...)
			}
		}
	}
	updateNS, err = repeat(func() (int64, int64, error) {
		t0 := mono()
		for _, path := range paths {
			ext.Reset()
			for i, p := range path {
				ext.Add(p)
				if i+1 >= judged {
					ext.VectorInto(buf)
				}
			}
		}
		return mono() - t0, points, nil
	})
	if err != nil {
		return 0, 0, err
	}
	scores := make([]float64, rec.AUC.NumClasses())
	aucNS, err = repeat(func() (int64, int64, error) {
		t0 := mono()
		for i := 0; i+dim <= len(vecs); i += dim {
			if _, _, err := rec.AUC.ClassifyInto(vecs[i:i+dim], scores); err != nil {
				return 0, 0, fmt.Errorf("auc replay: %w", err)
			}
		}
		return mono() - t0, points, nil
	})
	return updateNS, aucNS, err
}
