package main

import (
	"fmt"
	"time"

	"repro/internal/eager"
	"repro/internal/geom"
	"repro/internal/gesture"
	"repro/internal/obs"
	"repro/internal/recognizer"
	"repro/internal/synth"
	"repro/internal/template"
	"repro/internal/wire"
)

// The make-up of every workload's inputs (README, "Inputs"). The same
// population serves every workload, so the workloads differ only in the
// backend and its instrumentation.
const (
	numConns        = 2  // wire connections; one client goroutine each
	numUsers        = 16 // closed-loop users, split evenly over the connections
	gesturesPerUser = 32 // each user cycles through its own gestures
	warmGesturesPer = 50 // warm-up: numUsers*warmGesturesPer Results before the window
	trainPerClass   = 10 // the paper's training protocol (EXPERIMENTS.md, E2)
	frameEvents     = 64 // events per wire frame, at most
	trainSeed       = 42 // the training set is the same for every run (EXPERIMENTS.md's seed)
)

// workload is one served configuration.
type workload struct {
	name     string
	backend  string // "eager" or "template"
	observed bool   // gserve's default instrumentation attached
}

var workloads = []workload{
	{name: "eager", backend: "eager"},
	{name: "template", backend: "template"},
	{name: "eager-observed", backend: "eager", observed: true},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want eager, template or eager-observed)", name)
}

// pool is the traffic: every gesture every user will draw, generated
// before the measured window. Gesture g belongs to user g/gesturesPer,
// so one gesture is never in flight twice at once.
type pool struct {
	gesturesPer int
	sessions    []string       // per user
	events      [][]wire.Event // per gesture: down, moves, up
	labels      []string       // per gesture: the generator's class
}

// newPool generates users*gesturesPer GDP gestures from seed, classes
// assigned round-robin. Each gesture becomes down at its first point, a
// move per later point and up at the last point, with the generator's
// timestamps carried as the wire's microseconds.
func newPool(seed int64, users, gesturesPer int) *pool {
	gen := synth.NewGenerator(synth.DefaultParams(seed))
	classes := synth.GDPClasses()
	p := &pool{gesturesPer: gesturesPer}
	for u := 0; u < users; u++ {
		sess := fmt.Sprintf("u%03d", u)
		p.sessions = append(p.sessions, sess)
		for k := 0; k < gesturesPer; k++ {
			s := gen.Sample(classes[len(p.labels)%len(classes)])
			pts := s.G.Points
			evs := make([]wire.Event, 0, len(pts)+1)
			for i, pt := range pts {
				kind := wire.KindMove
				if i == 0 {
					kind = wire.KindDown
				}
				evs = append(evs, wire.Event{Session: sess, Kind: kind, X: pt.X, Y: pt.Y, TMicros: wire.Micros(pt.T)})
			}
			up := evs[len(evs)-1]
			up.Kind = wire.KindUp
			p.events = append(p.events, append(evs, up))
			p.labels = append(p.labels, s.Class)
		}
	}
	return p
}

// gestures returns the number of gestures in the pool.
func (p *pool) gestures() int { return len(p.events) }

// gesture returns gesture g's points exactly as the engine receives them:
// (x, y) bit for bit and t as the wire's microseconds carry it.
func (p *pool) gesture(g int) gesture.Gesture {
	evs := p.events[g]
	pts := make(geom.Path, 0, len(evs)-1)
	for _, ev := range evs[:len(evs)-1] {
		pts = append(pts, geom.TimedPoint{X: ev.X, Y: ev.Y, T: ev.Seconds()})
	}
	return gesture.New(pts)
}

// trainingSet generates the paper's training set: trainPerClass
// examples of each GDP class.
func trainingSet(seed int64) *gesture.Set {
	set, _ := synth.NewGenerator(synth.DefaultParams(seed)).Set("gdp-train", synth.GDPClasses(), trainPerClass)
	return set
}

// runner is the batch reference path both backends provide.
type runner interface {
	Run(g gesture.Gesture) (class string, firedAt int, err error)
}

// servedBackend is what the benchmark needs from a trained backend.
type servedBackend interface {
	recognizer.Backend
	runner
}

// train trains one backend the way cmd/gserve does: with reg attached to
// training and the recognizer when reg is non-nil.
func train(kind string, set *gesture.Set, reg *obs.Registry) (servedBackend, time.Duration, error) {
	start := time.Now()
	switch kind {
	case "eager":
		opts := eager.DefaultOptions()
		opts.Obs = reg
		rec, _, err := eager.Train(set, opts)
		if err != nil {
			return nil, 0, fmt.Errorf("train eager: %w", err)
		}
		return rec, time.Since(start), nil
	case "template":
		rec, err := template.Train(set, template.DefaultOptions())
		if err != nil {
			return nil, 0, fmt.Errorf("train template: %w", err)
		}
		if reg != nil {
			rec.Instrument(reg)
		}
		return rec, time.Since(start), nil
	}
	return nil, 0, fmt.Errorf("unknown backend %q", kind)
}

// reference is one gesture's class and commit point on the reference
// path: the backend's own Run, with no wire, ingest, engine or multipath.
type reference struct {
	class   string
	firedAt int
}

// references replays every pool gesture through r.Run.
func references(r runner, p *pool) ([]reference, error) {
	refs := make([]reference, p.gestures())
	for g := range refs {
		gs := p.gesture(g)
		class, firedAt, err := r.Run(gs)
		if err != nil {
			return nil, fmt.Errorf("reference replay of gesture %d: %w", g, err)
		}
		refs[g] = reference{class: class, firedAt: firedAt}
	}
	return refs, nil
}
