package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/wire"
)

// userState is where a simulated user is in its closed loop.
type userState uint8

const (
	idle     userState = iota // between gestures
	drawing                   // events of its gesture still to send
	awaiting                  // up sent, Result outstanding
)

// user is one simulated user: it draws its own pool gestures in turn,
// one at a time, and starts the next only after the engine's OnResult
// has reported the previous one.
type user struct {
	session string
	first   int32     // its first pool gesture
	next    int32     // offset of the gesture it draws next
	g       int32     // gesture in flight
	pos     int       // next event of g to send
	upSent  int64     // mono time the batch carrying g's up was sent
	root    *obs.Span // g's root span, for sampled gestures of a traced window
	state   userState
}

// result is one engine Result routed to its user's loop.
type result struct {
	user    int32 // index within the loop
	class   string
	outcome serve.Outcome
	at      int64 // mono time OnResult ran
}

// evRef names one event of the pool: gesture g's i-th event.
type evRef struct{ g, i int32 }

// timeline is the run's shared schedule. The window opens a fixed lead
// after the warm-up's last Result, so every Result stamped inside the
// window is absorbed after its start is published.
type timeline struct {
	warmTarget int64         // Results before the window opens
	window     int64         // measured window length, ns
	windows    int64         // 1, or 2 for a traced run (untraced, then traced)
	done       atomic.Int64  // Results absorbed by all loops
	first      atomic.Int64  // mono time of the first Result absorbed, 0 until then
	w0         atomic.Int64  // window start, 0 until the warm-up ends
	b0         atomic.Int64  // traced window start, 0 when none
	stop       atomic.Int64  // no gesture starts from this time on, 0 = not yet
	abort      atomic.Bool   // a loop failed; the others give up
	opened     chan struct{} // closed when w0 is published
	openOnce   sync.Once
}

// windowLead is the gap between the warm-up's last Result and the window.
const windowLead = 20 * time.Millisecond

func newTimeline(warmTarget int64, window time.Duration, windows int64) *timeline {
	tl := &timeline{warmTarget: warmTarget, window: int64(window), windows: windows, opened: make(chan struct{})}
	if warmTarget <= 0 {
		tl.open(mono())
	}
	return tl
}

// open publishes the window start w0 and the stop time.
func (tl *timeline) open(w0 int64) {
	tl.openOnce.Do(func() {
		tl.w0.Store(w0)
		tl.stop.Store(w0 + tl.windows*tl.window)
		close(tl.opened)
	})
}

// inA reports whether t lies in the first (untraced) window.
func (tl *timeline) inA(t int64) bool {
	w0 := tl.w0.Load()
	return w0 != 0 && t >= w0 && t < w0+tl.window
}

// inB reports whether t lies in the traced window.
func (tl *timeline) inB(t int64) bool {
	b0 := tl.b0.Load()
	return b0 != 0 && t >= b0 && t < tl.stop.Load()
}

var errAborted = errors.New("aborted: another loop failed")

// windowStats are the tallies of one window, kept by one loop.
type windowStats struct {
	events  int64     // events of the gestures whose Results were stamped in the window
	latency reservoir // up-batch send to Result, ns
}

func (w *windowStats) add(o *windowStats) {
	w.events += o.events
	w.latency.merge(&o.latency)
}

// record tallies one Result.
func (w *windowStats) record(events, latency int64) {
	w.events += events
	w.latency.add(latency)
}

// reservoirSize bounds the latencies one loop keeps per window: a
// uniform sample of them once a window has more Results, so memory does
// not grow with throughput.
const reservoirSize = 1 << 15

// reservoir is a uniform random sample of a stream of values (Vitter's
// algorithm R) with a fixed-seed generator.
type reservoir struct {
	xs   []int64
	seen int64
	rng  uint64
}

func (r *reservoir) add(x int64) {
	r.seen++
	if len(r.xs) < reservoirSize {
		r.xs = append(r.xs, x)
		return
	}
	r.rng = r.rng*6364136223846793005 + 1442695040888963407
	if j := int64((r.rng >> 33) % uint64(r.seen)); j < reservoirSize {
		r.xs[j] = x
	}
}

// merge pools another sample into this one. The samples merged come
// from loops of one window or streams of one phase, which see similar
// rates, so they are pooled as is.
func (r *reservoir) merge(o *reservoir) {
	r.xs = append(r.xs, o.xs...)
	r.seen += o.seen
}

// sender delivers the loop's current batch to the engine. It returns
// when the batch was sent and, in a traced window, how long its own
// timed calls took, so the loop can count the rest as client time.
type sender interface {
	send(l *loop, traced bool) (sentAt, timed int64, err error)
}

// loop drives one connection's users (or, in the direct phase, one
// producer's): it interleaves their events round-robin into batches of
// up to frameEvents and hands each batch to a sender.
type loop struct {
	p       *pool
	tl      *timeline
	tr      *tracer // nil when untraced
	users   []user
	results chan result
	free    []int32 // idle users, started at the next batch
	rr      int
	drawing int
	await   int
	batch   []wire.Event
	refs    []evRef
	ups     []int32
	served  *servedSet

	// Tallies for the checks.
	gestures, events, absorbed int64
	lastAt                     int64 // latest Result's time
	// Window tallies; b is the traced window.
	a, b windowStats
	// Traced-window client time: the loop's own work, outside the
	// sender's encode and socket calls and outside waits for Results.
	clientNS, clientIters, clientEvents int64
}

// newLoop builds a loop over users [first, first+n) of the pool.
func newLoop(p *pool, tl *timeline, tr *tracer, first, n int, served *servedSet) *loop {
	l := &loop{
		p: p, tl: tl, tr: tr, served: served,
		users:   make([]user, n),
		results: make(chan result, n), // one outstanding Result per user
		batch:   make([]wire.Event, 0, frameEvents),
		refs:    make([]evRef, 0, frameEvents),
		ups:     make([]int32, 0, frameEvents),
	}
	for i := range l.users {
		u := first + i
		l.users[i] = user{session: p.sessions[u], first: int32(u * p.gesturesPer)}
		l.free = append(l.free, int32(i))
	}
	return l
}

// run drives the loop until the timeline's stop time has passed and
// every started gesture has its Result.
func (l *loop) run(s sender) error {
	for {
		if l.tl.abort.Load() {
			return errAborted
		}
		t0 := mono()
		traced := l.tr != nil && l.tl.inB(t0)
		if err := l.drain(); err != nil {
			return err
		}
		l.start(t0)
		if l.drawing == 0 {
			if l.await == 0 {
				return nil // stopped and drained
			}
			if err := l.wait(); err != nil {
				return err
			}
			continue
		}
		l.fill(traced)
		sentAt, timed, err := s.send(l, traced)
		if err != nil {
			return err
		}
		for _, ui := range l.ups {
			l.users[ui].upSent = sentAt
		}
		if traced {
			l.clientNS += mono() - t0 - timed
			l.clientIters++
			l.clientEvents += int64(len(l.batch))
		}
	}
}

// drain absorbs every Result already delivered.
func (l *loop) drain() error {
	for {
		select {
		case r := <-l.results:
			if err := l.absorb(r); err != nil {
				return err
			}
		default:
			return nil
		}
	}
}

// resultTimeout is the longest a loop waits for one Result before it
// reports the Result missing.
const resultTimeout = 30 * time.Second

// wait blocks for one Result; a Result that never comes is a failure.
func (l *loop) wait() error {
	const poll = 50 * time.Millisecond
	t := time.NewTicker(poll)
	defer t.Stop()
	for waited := time.Duration(0); waited < resultTimeout; waited += poll {
		select {
		case r := <-l.results:
			return l.absorb(r)
		case <-t.C:
			if l.tl.abort.Load() {
				return errAborted
			}
		}
	}
	return fmt.Errorf("no Result within %v: %w", resultTimeout, checkIdle(l.users))
}

// absorb checks one Result and returns its user to the idle set.
func (l *loop) absorb(r result) error {
	if int(r.user) >= len(l.users) {
		return fmt.Errorf("Result routed to unknown user %d", r.user)
	}
	u := &l.users[r.user]
	if err := checkResult(u, r); err != nil {
		return err
	}
	g := u.g
	if l.served.seen[g] && l.served.class[g] != r.class {
		return fmt.Errorf("gesture %d (session %s) classified %q, earlier %q", g, u.session, r.class, l.served.class[g])
	}
	l.served.class[g], l.served.seen[g] = r.class, true
	l.absorbed++
	l.lastAt = max(l.lastAt, r.at)
	n := int64(len(l.p.events[g]))
	switch {
	case l.tl.inA(r.at):
		l.a.record(n, r.at-u.upSent)
	case l.tl.inB(r.at):
		l.b.record(n, r.at-u.upSent)
	}
	if u.root != nil {
		l.tr.endGesture(u, r.at)
	}
	u.state = idle
	l.await--
	l.free = append(l.free, r.user)
	done := l.tl.done.Add(1)
	if done == 1 {
		l.tl.first.Store(r.at)
	}
	if done == l.tl.warmTarget {
		l.tl.open(mono() + int64(windowLead))
	}
	return nil
}

// start begins the next gesture of every idle user, unless the timeline
// has stopped.
func (l *loop) start(now int64) {
	if stop := l.tl.stop.Load(); stop != 0 && now >= stop {
		return
	}
	for _, ui := range l.free {
		u := &l.users[ui]
		u.g = u.first + u.next
		u.next = (u.next + 1) % int32(l.p.gesturesPer)
		u.pos = 0
		u.state = drawing
		l.drawing++
		l.gestures++
	}
	l.free = l.free[:0]
}

// fill builds the next batch: one event per drawing user in turn,
// round-robin, until the batch is full or no user has events left.
func (l *loop) fill(traced bool) {
	l.batch, l.refs, l.ups = l.batch[:0], l.refs[:0], l.ups[:0]
	for len(l.batch) < frameEvents && l.drawing > 0 {
		ui := l.rr
		if l.rr++; l.rr == len(l.users) {
			l.rr = 0
		}
		u := &l.users[ui]
		if u.state != drawing {
			continue
		}
		evs := l.p.events[u.g]
		if u.pos == 0 && traced {
			l.tr.startGesture(u)
		}
		l.batch = append(l.batch, evs[u.pos])
		l.refs = append(l.refs, evRef{g: u.g, i: int32(u.pos)})
		u.pos++
		if u.pos == len(evs) {
			u.state = awaiting
			l.drawing--
			l.await++
			l.ups = append(l.ups, int32(ui))
		}
	}
	l.events += int64(len(l.batch))
}

// servedSet is shared by a phase's loops: per pool gesture, whether it
// was served and the class of its Results. Loops own disjoint gestures.
type servedSet struct {
	class []string
	seen  []bool
}

func newServedSet(n int) *servedSet {
	return &servedSet{class: make([]string, n), seen: make([]bool, n)}
}

// router hands each engine Result to the loop that owns its session.
// OnResult runs on shard goroutines; it never blocks them.
type router struct {
	loops    []*loop
	perLoop  int
	userOf   map[string]int32 // session → user index; read-only once serving
	unknown  atomic.Int64     // Results for sessions no user owns
	overflow atomic.Int64     // Results beyond one per user outstanding
}

func newRouter(p *pool, loops []*loop, perLoop int) *router {
	rt := &router{loops: loops, perLoop: perLoop, userOf: make(map[string]int32, len(p.sessions))}
	for i, s := range p.sessions {
		rt.userOf[s] = int32(i)
	}
	return rt
}

func (rt *router) onResult(r serve.Result) {
	now := mono()
	u, ok := rt.userOf[r.Session]
	if !ok {
		rt.unknown.Add(1)
		return
	}
	l := rt.loops[int(u)/rt.perLoop]
	select {
	case l.results <- result{user: u % int32(rt.perLoop), class: r.Class, outcome: r.Outcome, at: now}:
	default:
		rt.overflow.Add(1)
	}
}
