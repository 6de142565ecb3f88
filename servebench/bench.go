package main

import (
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/flight"
	"repro/internal/gesture"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/serve"
)

// config is one run's settings. main fixes everything but the workload,
// seed, window and tracing; the tests shrink the population.
type config struct {
	workload    workload
	seed        int64
	window      time.Duration // one measured window; a traced run has two
	trace       bool
	users       int
	gesturesPer int
	warmPer     int           // warm-up Results per user, on average
	direct      time.Duration // length of each direct phase (traced runs)
	// templateReplay bounds the gestures the traced run's single-threaded
	// replays take through a template backend, at tens of µs a point.
	templateReplay int
	outDir         string // where the traced run writes its spans
}

func defaultConfig(w workload, seed int64, seconds time.Duration, trace bool, outDir string) config {
	// A traced run measures as long as an untraced one: half the time
	// untraced, for the tracing overhead, half with the timing wrappers.
	window := seconds
	if trace {
		window /= 2
	}
	direct := window / 5
	direct = min(max(direct, 50*time.Millisecond), 2*time.Second)
	return config{
		workload: w, seed: seed, window: window, trace: trace,
		users: numUsers, gesturesPer: gesturesPerUser, warmPer: warmGesturesPer,
		direct: direct, templateReplay: 64, outDir: outDir,
	}
}

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
}

// outcome is a finished run: the operations it attempted (gestures sent
// through the wire) and its metrics, in report order.
type outcome struct {
	attempted int64
	metrics   []metric
}

// bench is one run's state.
type bench struct {
	cfg     config
	pool    *pool
	set     *gesture.Set
	tr      *tracer
	backend servedBackend
	reg     *obs.Registry
	rec     *flight.Recorder
	trainNS int64
}

// servedStats are the served phase's measurements.
type servedStats struct {
	a, b             windowStats
	aLen, bLen       int64 // window lengths, ns
	cpuNS, mallocs   int64 // over window A
	rss              int64 // peak resident set at the end of window A
	ack              []int64
	frames, aEvents  int64 // frames and events sent in window A
	bytes            int64
	encNS, encFrames int64 // traced window: encoder time and frames
	sentB            int64 // events sent in the traced window
	clientNS         int64 // traced window: the loops' own time, raw
	clientIters      int64
	clientEvents     int64
	streams          streamTotals // wrapped streams, traced window
	recorded         [][]byte     // connection 0's first frames
	served           *servedSet
	gestures         int64 // started, all of them checked
	firstResult      int64 // mono time of the first Result
}

// run executes one workload run: generate the inputs, set up (train,
// engine, ingest, connections, warm-up), measure, drain, and check.
func run(cfg config) (outcome, error) {
	g0 := mono()
	b := &bench{cfg: cfg}
	b.pool = newPool(cfg.seed, cfg.users, cfg.gesturesPer)
	b.set = trainingSet(trainSeed)
	if cfg.trace {
		var err error
		if b.tr, err = newTracer(b.pool); err != nil {
			return outcome{}, err
		}
	}
	genNS := mono() - g0

	if cfg.workload.observed {
		// cmd/gserve's default instrumentation: one registry for
		// training, recognizer, engine and ingest, and a flight recorder
		// keeping every gesture.
		b.reg = obs.New()
		b.rec = flight.NewRecorder(flight.Options{Trigger: flight.TriggerAlways, LatencyThreshold: 10 * time.Millisecond})
	}
	backend, trainDur, err := train(cfg.workload.backend, b.set, b.reg)
	if err != nil {
		return outcome{}, err
	}
	b.backend, b.trainNS = backend, int64(trainDur)

	ss, err := b.serve()
	if err != nil {
		return outcome{}, err
	}
	// Set-up runs from package initialisation to the first Result: the
	// model is trained, the engine and listener are up, the connections
	// are made and one gesture has been served cold. The warm-up after
	// it is left out, because its length follows throughput, which
	// events_per_s already measures.
	setupNS := preEpoch + ss.firstResult - genNS

	// Checks on the served phase.
	refs, err := references(b.backend, b.pool)
	if err != nil {
		return outcome{}, err
	}
	if err := checkClasses(ss.served.class, ss.served.seen, refs); err != nil {
		return outcome{}, err
	}
	if err := checkAccuracy(ss.served, b.pool.labels, accuracyFloor[cfg.workload.backend]); err != nil {
		return outcome{}, err
	}
	if cfg.trace {
		if err := checkCommits(ss.streams.commits, refs); err != nil {
			return outcome{}, err
		}
	}

	out := outcome{attempted: ss.gestures}
	if !cfg.trace {
		var fired float64
		for _, r := range refs {
			fired += float64(r.firedAt)
		}
		if ss.a.events == 0 {
			return outcome{}, errors.New("no Result arrived inside the measured window")
		}
		out.metrics = []metric{
			{"setup_s", float64(setupNS) / 1e9, "s"},
			{"events_per_s", float64(ss.a.events) / (float64(ss.aLen) / 1e9), "events/s"},
			{"points_examined", fired / float64(len(refs)), "points/gesture"},
			{"max_rss_mb", float64(ss.rss) / (1 << 20), "MB"},
		}
		return out, nil
	}
	layers, err := b.layers(ss)
	if err != nil {
		return outcome{}, err
	}
	out.metrics = layers
	path := filepath.Join(cfg.outDir, fmt.Sprintf("trace-%s-%d.json", cfg.workload.name, cfg.seed))
	if err := b.tr.writeSpans(path); err != nil {
		return outcome{}, err
	}
	return out, nil
}

// serve runs the served phase: engine and ingest as cmd/gserve sets them
// up by default, the users over numConns connections, warm-up, the
// measured window (and, traced, a second window with the timing
// wrappers), then drain.
func (b *bench) serve() (ss servedStats, err error) {
	cfg := b.cfg
	perLoop := cfg.users / numConns
	windows := int64(1)
	if cfg.trace {
		windows = 2
	}
	tl := newTimeline(int64(cfg.users*cfg.warmPer), cfg.window, windows)
	ss.served = newServedSet(b.pool.gestures())
	loops := make([]*loop, numConns)
	for i := range loops {
		loops[i] = newLoop(b.pool, tl, b.tr, i*perLoop, perLoop, ss.served)
	}
	rt := newRouter(b.pool, loops, perLoop)
	eng, err := serve.New(nil, serve.Options{Backend: b.backend, OnResult: rt.onResult, Obs: b.reg, Flight: b.rec})
	if err != nil {
		return ss, fmt.Errorf("engine: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.Close()
		return ss, fmt.Errorf("listen: %w", err)
	}
	srv := ingest.Serve(ln, eng, ingest.Options{Obs: b.reg, IdleTimeout: 2 * time.Minute, WriteTimeout: 10 * time.Second})
	senders := make([]*wireSender, 0, numConns)
	errc := make(chan error, numConns)
	running := 0
	closed := false
	// shutdown stops the loops, the connections, ingest and the engine,
	// in that order, and waits for each; it runs once on every path.
	shutdown := func() error {
		if closed {
			return nil
		}
		closed = true
		var first error
		for ; running > 0; running-- {
			if e := <-errc; e != nil && first == nil {
				first = e
			}
		}
		for _, s := range senders {
			s.c.Close()
		}
		srv.Close()
		if e := eng.Close(); e != nil && first == nil {
			first = e
		}
		return first
	}
	defer func() {
		if err != nil {
			tl.abort.Store(true)
			for _, s := range senders {
				s.c.Close() // unblocks a loop waiting on its socket
			}
			shutdown()
		}
	}()
	recordMax := 0
	if cfg.trace {
		recordMax = 2048
	}
	for range loops {
		s, err := dialSender(srv.Addr().String(), b.tr, recordMax)
		if err != nil {
			return ss, err
		}
		senders = append(senders, s)
		recordMax = 0 // the decode replay needs one connection's frames
	}
	for i := range loops {
		l, s := loops[i], senders[i]
		running++
		go func() {
			err := l.run(s)
			if err != nil {
				tl.abort.Store(true)
			}
			errc <- err
		}()
	}
	// wait sleeps until mono time t, returning early with a loop's error.
	wait := func(t int64) error {
		timer := time.NewTimer(time.Duration(t - mono()))
		defer timer.Stop()
		for {
			select {
			case <-timer.C:
				return nil
			case e := <-errc:
				running--
				if e != nil {
					return e
				}
				if running == 0 {
					return errors.New("loops stopped before the window ended")
				}
			}
		}
	}
	select {
	case <-tl.opened:
	case e := <-errc:
		running--
		if e == nil {
			e = errors.New("loops stopped before the warm-up ended")
		}
		return ss, fmt.Errorf("warm-up: %w", e)
	}
	w0 := tl.w0.Load()
	if err = wait(w0); err != nil {
		return ss, err
	}
	var ms runtime.MemStats
	cpu0, _ := cpuNS()
	runtime.ReadMemStats(&ms)
	mallocs0 := int64(ms.Mallocs)
	if err = wait(w0 + int64(cfg.window)); err != nil {
		return ss, err
	}
	cpu1, rss := cpuNS()
	runtime.ReadMemStats(&ms)
	ss.cpuNS, ss.mallocs, ss.rss = cpu1-cpu0, int64(ms.Mallocs)-mallocs0, rss
	var tb *timedBackend
	if cfg.trace {
		tb = newTimedBackend(b.backend, b.tr, false)
		eng.Swap(tb)
		tl.b0.Store(mono())
	}
	if err = shutdown(); err != nil {
		return ss, err
	}
	ss.aLen = tl.window
	if cfg.trace {
		ss.bLen = tl.stop.Load() - tl.b0.Load()
		ss.streams = tb.totals()
	}

	t := tallies{stats: eng.Stats(), unknown: rt.unknown.Load(), overflow: rt.overflow.Load(), observed: b.reg != nil}
	for i, l := range loops {
		t.events += l.events
		t.gestures += l.gestures
		t.results += l.absorbed
		t.overflow += int64(len(l.results)) // Results after the drain
		ss.a.add(&l.a)
		ss.b.add(&l.b)
		ss.clientNS += l.clientNS
		ss.clientIters += l.clientIters
		ss.clientEvents += l.clientEvents
		s := senders[i]
		ss.ack = append(ss.ack, s.ack...)
		ss.frames += s.frames
		ss.aEvents += s.events
		ss.bytes += s.size
		ss.encNS += s.encNS
		ss.encFrames += s.tracedFrames
		ss.sentB += s.tracedEvents
	}
	ss.recorded = senders[0].recorded
	if b.reg != nil {
		t.decoded = b.reg.Counter("wire.events.decoded").Value()
		t.completed = b.reg.Counter("serve.sessions.completed").Value()
	}
	t.offered, _ = b.rec.Stats()
	if err = checkTallies(t); err != nil {
		return ss, err
	}
	ss.gestures = t.gestures
	ss.firstResult = tl.first.Load()
	return ss, nil
}
