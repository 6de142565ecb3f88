package main

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/serve"
)

// Accuracy floors against the generator's labels (README, "Checks"),
// over the distinct gestures served. Over traffic seeds 1-40 the eager
// backend scored 88.5-94.1 % and the template backend 96.9-98.8 %
// (seeds 1-12); the floors sit below those with margin, so they catch a
// broken model or mixed-up Results, not seed-to-seed spread.
var accuracyFloor = map[string]float64{
	"eager":    0.85,
	"template": 0.93,
}

// checkResult validates one Result against the user it is routed to:
// that user must be waiting for exactly one Result, and the session must
// have completed normally.
func checkResult(u *user, r result) error {
	if u.state != awaiting {
		return fmt.Errorf("session %s: Result (%q) with no gesture awaiting one: duplicated or unexpected", u.session, r.class)
	}
	if r.outcome != serve.OutcomeCompleted {
		return fmt.Errorf("session %s: gesture %d finished %s, want completed", u.session, u.g, r.outcome)
	}
	return nil
}

// checkIdle reports the users still drawing or waiting: their Results
// are missing.
func checkIdle(users []user) error {
	var missing []string
	for i := range users {
		if users[i].state != idle {
			missing = append(missing, fmt.Sprintf("%s (gesture %d)", users[i].session, users[i].g))
		}
	}
	if len(missing) == 0 {
		return nil
	}
	if len(missing) > 5 {
		missing = append(missing[:5], fmt.Sprintf("and %d more", len(missing)-5))
	}
	return fmt.Errorf("missing Result for %s", strings.Join(missing, ", "))
}

// tallies are the client's counts next to the program's own.
type tallies struct {
	events, gestures, results int64 // sent, started, and Results absorbed by the client
	refused                   int64 // direct Submits refused with ErrQueueFull, retried
	stats                     serve.Stats
	unknown, overflow         int64 // Results no user owned, or beyond one outstanding

	observed  bool   // the registry and recorder below are attached
	decoded   int64  // wire.events.decoded (served phase only; -1 to skip)
	completed int64  // serve.sessions.completed
	offered   uint64 // bundles offered to the flight recorder
}

// checkTallies requires the client's counts to match the program's.
func checkTallies(t tallies) error {
	var errs []error
	mismatch := func(what string, client, program int64) {
		if client != program {
			errs = append(errs, fmt.Errorf("%s: client %d, program %d", what, client, program))
		}
	}
	mismatch("events vs Stats.Submitted", t.events, t.stats.Submitted)
	mismatch("gestures vs Stats.Completed", t.gestures, t.stats.Completed)
	mismatch("gestures vs Results", t.gestures, t.results)
	mismatch("refused Submits vs Stats.Rejected", t.refused, t.stats.Rejected)
	mismatch("Stats.Bad", 0, t.stats.Bad)
	mismatch("Stats.Active", 0, t.stats.Active)
	mismatch("Results for unknown sessions", 0, t.unknown)
	mismatch("Results beyond one per gesture", 0, t.overflow)
	if t.observed {
		if t.decoded >= 0 {
			mismatch("events vs wire.events.decoded", t.events, t.decoded)
		}
		mismatch("gestures vs serve.sessions.completed", t.gestures, t.completed)
		mismatch("gestures vs bundles offered to the flight recorder", t.gestures, int64(t.offered))
	}
	return errors.Join(errs...)
}

// checkClasses requires every served gesture with a reference to have
// been given the reference's class.
func checkClasses(served []string, seen []bool, refs []reference) error {
	checked := 0
	for g, ref := range refs {
		if !seen[g] {
			continue
		}
		if served[g] != ref.class {
			return fmt.Errorf("gesture %d served as %q, reference path says %q", g, served[g], ref.class)
		}
		checked++
	}
	if checked == 0 {
		return errors.New("no served gesture had a reference to check against")
	}
	return nil
}

// checkAccuracy requires the share of served gestures whose class
// matches the generator's label to reach floor.
func checkAccuracy(served *servedSet, labels []string, floor float64) error {
	var correct, total int
	for g, seen := range served.seen {
		if !seen {
			continue
		}
		total++
		if served.class[g] == labels[g] {
			correct++
		}
	}
	if total == 0 {
		return errors.New("accuracy: no gesture served")
	}
	if acc := float64(correct) / float64(total); acc < floor {
		return fmt.Errorf("accuracy %.4f (%d of %d gestures) below the floor %.2f", acc, correct, total, floor)
	}
	return nil
}

// checkCommits compares the commit point the wrapper saw for each
// served gesture with the reference replay's firedAt.
func checkCommits(commits []commit, refs []reference) error {
	for _, c := range commits {
		if c.g < 0 || int(c.g) >= len(refs) {
			return errors.New("a traced stroke started at no pool gesture's first point")
		}
		if at := refs[c.g].firedAt; int(c.at) != at {
			return fmt.Errorf("gesture %d committed after %d points served, after %d on the reference path", c.g, c.at, at)
		}
	}
	if len(commits) == 0 {
		return errors.New("no traced gesture to check commit points against")
	}
	return nil
}
