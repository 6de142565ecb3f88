// Package fault is the deterministic fault-injection subsystem behind
// the serving engine's chaos tests (and the obsdemo's scripted failure
// segment). It decides — reproducibly, from a seed — which events of
// which sessions get corrupted, dropped, duplicated, reordered,
// stalled, poisoned, or panicked, so the hardening in internal/serve
// (Submit validation, idle reaper, panic isolation, degraded mode) can
// be exercised under -race against exact invariants.
//
// Two injection points, two hook types:
//
//   - Producer side: a test harness consults Schedule.Fate once per
//     event it is about to submit and applies the returned Kind itself
//     (skip the submit for KindDrop, submit twice for KindDup, set a
//     coordinate to NaN for KindNaN, ...). Fate's decision is a pure
//     function of (seed, session, index), so two runs with the same
//     seed inject exactly the same faults regardless of goroutine
//     scheduling.
//
//   - Engine side: serve.Options.Fault accepts anything implementing
//     the engine's Injector hook (both Schedule and Script do); the
//     engine consults it once per dispatched event, inside the shard
//     goroutine, where it can corrupt coordinates after Submit-time
//     validation (simulating internal corruption) or force a panic
//     (exercising per-shard panic isolation).
//
// Every applied injection counts into the fault.injected.* counters
// (see OBSERVABILITY.md) when Instrument attached a registry, so a
// chaos run can check that each scheduled fault is visible end to end.
// All hooks are nil-safe no-ops: a nil *Schedule (or *Script, or a nil
// serve.Options.Fault) costs a nil check and nothing else, holding the
// sub-5ns disabled-path contract (benchmark-enforced, like
// internal/obs).
package fault

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"repro/internal/obs"
)

// Kind enumerates the injectable faults.
type Kind int

// Fault kinds. The first group is producer-side (applied by the
// harness before Submit), the second engine-side (applied by the
// engine's dispatch hook, after Submit-time validation).
const (
	// KindNone is the no-fault decision.
	KindNone Kind = iota
	// KindDrop deletes the event (never submitted).
	KindDrop
	// KindDup submits the event twice.
	KindDup
	// KindNaN sets a coordinate to NaN (Submit must reject it).
	KindNaN
	// KindInf sets a coordinate to +Inf (Submit must reject it).
	KindInf
	// KindNegT sets the timestamp negative (Submit must reject it).
	KindNegT
	// KindReorder swaps the event with its successor in submission order.
	KindReorder
	// KindStall abandons the session mid-stroke: this event and every
	// later one (including the FingerUp) are never submitted, leaving
	// the session idle until the engine's deadline reaper finishes it.
	KindStall
	// KindPanic makes the engine's dispatch hook panic, exercising
	// per-shard panic isolation.
	KindPanic
	// KindPoison corrupts the event's coordinates to NaN inside the
	// engine — past Submit validation — poisoning the eager extractor
	// and exercising the degraded-classification fallback.
	KindPoison

	kindCount
)

// producerKinds are the kinds Fate can return, in rate-table order.
var producerKinds = []Kind{KindDrop, KindDup, KindNaN, KindInf, KindNegT, KindReorder, KindStall}

// engineKinds are the kinds Dispatch can apply, in rate-table order.
var engineKinds = []Kind{KindPanic, KindPoison}

// String names the kind as it appears in the fault.injected.* metric
// suffix ("drop", "dup", "nan", "inf", "neg_t", "reorder", "stall",
// "panic", "poison"; KindNone is "none").
func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindDrop:
		return "drop"
	case KindDup:
		return "dup"
	case KindNaN:
		return "nan"
	case KindInf:
		return "inf"
	case KindNegT:
		return "neg_t"
	case KindReorder:
		return "reorder"
	case KindStall:
		return "stall"
	case KindPanic:
		return "panic"
	case KindPoison:
		return "poison"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Plan declares a seeded fault mix: the per-event probability of each
// kind. Producer kinds and engine kinds are drawn independently (an
// event can be both reordered by the producer and poisoned by the
// engine); within each group the rates must sum to at most 1.
type Plan struct {
	// Seed selects the deterministic decision stream. Two Schedules
	// built from equal Plans make identical decisions.
	Seed int64
	// Rates maps each Kind to its per-event injection probability in
	// [0, 1]. Absent kinds have rate 0.
	Rates map[Kind]float64
}

// injectMetrics is the shared per-kind counter set. The zero value
// (all nil) is the uninstrumented state: every note is a nil-safe
// no-op.
type injectMetrics struct {
	byKind [kindCount]*obs.Counter // fault.injected.<kind>
	total  *obs.Counter            // fault.injected.total
}

func (im *injectMetrics) instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	for _, k := range producerKinds {
		im.byKind[k] = reg.Counter("fault.injected." + k.String())
	}
	for _, k := range engineKinds {
		im.byKind[k] = reg.Counter("fault.injected." + k.String())
	}
	im.total = reg.Counter("fault.injected.total")
}

func (im *injectMetrics) note(k Kind) {
	if k <= KindNone || k >= kindCount {
		return
	}
	im.byKind[k].Inc()
	im.total.Inc()
}

// Schedule makes deterministic, order-independent fault decisions: the
// fate of event index i of session s depends only on (seed, s, i), via
// FNV-1a, never on call order or timing. Safe for concurrent use (the
// decision is a pure function; the counters are atomic), and nil-safe:
// a nil *Schedule never injects.
type Schedule struct {
	seed    int64
	prodCum []float64 // cumulative rates aligned with producerKinds
	dispCum []float64 // cumulative rates aligned with engineKinds
	m       injectMetrics
}

// NewSchedule validates a Plan and builds its Schedule. Rates outside
// [0, 1], unknown kinds, or a group summing past 1 are errors.
func NewSchedule(p Plan) (*Schedule, error) {
	known := map[Kind]bool{}
	for _, k := range producerKinds {
		known[k] = true
	}
	for _, k := range engineKinds {
		known[k] = true
	}
	kinds := make([]Kind, 0, len(p.Rates))
	for k := range p.Rates {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	for _, k := range kinds {
		r := p.Rates[k]
		if !known[k] {
			return nil, fmt.Errorf("fault: rate for unknown kind %v", k)
		}
		if math.IsNaN(r) || r < 0 || r > 1 {
			return nil, fmt.Errorf("fault: rate for %v must be in [0, 1], got %v", k, r)
		}
	}
	s := &Schedule{seed: p.Seed}
	cum := 0.0
	for _, k := range producerKinds {
		cum += p.Rates[k]
		s.prodCum = append(s.prodCum, cum)
	}
	if cum > 1 {
		return nil, fmt.Errorf("fault: producer-side rates sum to %v > 1", cum)
	}
	cum = 0
	for _, k := range engineKinds {
		cum += p.Rates[k]
		s.dispCum = append(s.dispCum, cum)
	}
	if cum > 1 {
		return nil, fmt.Errorf("fault: engine-side rates sum to %v > 1", cum)
	}
	return s, nil
}

// Instrument attaches the fault.injected.* counters (one per kind plus
// a total; see OBSERVABILITY.md) to the registry. Call before serving;
// a nil registry (or receiver) is a no-op.
func (s *Schedule) Instrument(reg *obs.Registry) {
	if s == nil {
		return
	}
	s.m.instrument(reg)
}

// roll returns a uniform [0, 1) draw for one (domain, session, index)
// triple, the deterministic coin behind every decision. Separate
// domains keep the producer and engine decision streams independent.
func (s *Schedule) roll(domain byte, session string, index int) float64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(s.seed))
	h.Write(buf[:])
	h.Write([]byte{domain})
	h.Write([]byte(session))
	binary.LittleEndian.PutUint64(buf[:], uint64(index))
	h.Write(buf[:])
	// Top 53 bits -> [0, 1) with full double precision.
	return float64(h.Sum64()>>11) / (1 << 53)
}

// Fate decides the producer-side fault, if any, for event index of the
// session. The caller owns applying it (and therefore every returned
// non-None kind is counted as injected). Nil-safe: returns KindNone.
func (s *Schedule) Fate(session string, index int) Kind {
	if s == nil {
		return KindNone
	}
	return s.fate(session, index)
}

// fate is Fate's enabled body, split out so the nil check inlines into
// callers.
func (s *Schedule) fate(session string, index int) Kind {
	if len(s.prodCum) == 0 || s.prodCum[len(s.prodCum)-1] == 0 {
		return KindNone
	}
	u := s.roll('p', session, index)
	for i, c := range s.prodCum {
		if u < c {
			k := producerKinds[i]
			s.m.note(k)
			return k
		}
	}
	return KindNone
}

// Dispatch is the engine-side hook (serve.Options.Fault): consulted
// once per dispatched event with the session, the session's 0-based
// dispatch index, and the event coordinates. It returns possibly
// corrupted coordinates plus panicNow, which asks the engine to panic
// in place of dispatching. Nil-safe: passes coordinates through.
func (s *Schedule) Dispatch(session string, index int, x, y float64) (fx, fy float64, panicNow bool) {
	fx, fy = x, y
	if s != nil {
		fx, fy, panicNow = s.dispatch(session, index, x, y)
	}
	return
}

// dispatch is Dispatch's enabled body. Dispatch assigns through its named
// results because that form stays within the inlining budget.
func (s *Schedule) dispatch(session string, index int, x, y float64) (fx, fy float64, panicNow bool) {
	if len(s.dispCum) == 0 || s.dispCum[len(s.dispCum)-1] == 0 {
		return x, y, false
	}
	u := s.roll('e', session, index)
	for i, c := range s.dispCum {
		if u < c {
			k := engineKinds[i]
			s.m.note(k)
			switch k {
			case KindPanic:
				return x, y, true
			case KindPoison:
				return math.NaN(), math.NaN(), false
			}
		}
	}
	return x, y, false
}

// Script is the targeted counterpart of Schedule: explicit
// (session, dispatch index) -> Kind rules for the engine-side hook,
// used where a workload needs exactly one fault in exactly one place
// (the obsdemo's deterministic failure segment). Configure with Set
// before serving; Dispatch is then read-only and safe for concurrent
// use. Nil-safe like Schedule.
type Script struct {
	rules map[string]map[int]Kind
	m     injectMetrics
}

// NewScript returns an empty script (injects nothing until Set).
func NewScript() *Script {
	return &Script{rules: map[string]map[int]Kind{}}
}

// Set schedules kind at the session's 0-based dispatch index and
// returns the script for chaining. Only engine-side kinds (KindPanic,
// KindPoison) have any effect. Not safe concurrently with Dispatch —
// finish scripting before serving.
func (sc *Script) Set(session string, index int, k Kind) *Script {
	byIdx := sc.rules[session]
	if byIdx == nil {
		byIdx = map[int]Kind{}
		sc.rules[session] = byIdx
	}
	byIdx[index] = k
	return sc
}

// Instrument attaches the fault.injected.* counters to the registry,
// exactly as Schedule.Instrument does. Nil-safe.
func (sc *Script) Instrument(reg *obs.Registry) {
	if sc == nil {
		return
	}
	sc.m.instrument(reg)
}

// Dispatch implements the engine-side hook for scripted faults; see
// Schedule.Dispatch for the signature contract.
func (sc *Script) Dispatch(session string, index int, x, y float64) (fx, fy float64, panicNow bool) {
	fx, fy = x, y
	if sc != nil {
		fx, fy, panicNow = sc.dispatch(session, index, x, y)
	}
	return
}

// dispatch is Dispatch's enabled body, split out like Schedule.dispatch.
func (sc *Script) dispatch(session string, index int, x, y float64) (fx, fy float64, panicNow bool) {
	switch sc.rules[session][index] {
	case KindPanic:
		sc.m.note(KindPanic)
		return x, y, true
	case KindPoison:
		sc.m.note(KindPoison)
		return math.NaN(), math.NaN(), false
	}
	return x, y, false
}
