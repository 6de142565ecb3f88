package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

func TestCheckResultRejectsDuplicateAndAbnormalResults(t *testing.T) {
	u := &user{session: "u000", state: awaiting}
	if err := checkResult(u, result{class: "line", outcome: serve.OutcomeCompleted}); err != nil {
		t.Fatalf("awaited Result rejected: %v", err)
	}
	u.state = idle
	if err := checkResult(u, result{class: "line", outcome: serve.OutcomeCompleted}); err == nil {
		t.Error("a Result for a user awaiting none (duplicate) passed")
	}
	u.state = awaiting
	if err := checkResult(u, result{class: "line", outcome: serve.OutcomeDrained}); err == nil {
		t.Error("a drained session passed as completed")
	}
}

func TestLoopRejectsDuplicateAndChangedResults(t *testing.T) {
	p := newPool(1, 2, 2)
	tl := newTimeline(0, time.Second, 1)
	l := newLoop(p, tl, nil, 0, 2, newServedSet(p.gestures()))
	l.start(mono())
	for l.drawing > 0 {
		l.fill(false)
	}
	g := l.users[0].g
	if err := l.absorb(result{user: 0, class: p.labels[g], outcome: serve.OutcomeCompleted}); err != nil {
		t.Fatalf("first Result: %v", err)
	}
	if err := l.absorb(result{user: 0, class: p.labels[g], outcome: serve.OutcomeCompleted}); err == nil {
		t.Error("duplicated Result passed")
	}
	// The same gesture served again must get the same class.
	l.users[0].state, l.users[0].g = awaiting, g
	if err := l.absorb(result{user: 0, class: "not-" + p.labels[g], outcome: serve.OutcomeCompleted}); err == nil {
		t.Error("a gesture classified differently on its second serving passed")
	}
	if err := checkIdle(l.users); err == nil {
		t.Error("user 1 is still awaiting its Result, but checkIdle passed")
	}
}

func TestCheckClassesRejectsWrongClass(t *testing.T) {
	refs := []reference{{class: "line"}, {class: "rect"}, {class: "dot"}}
	served := []string{"line", "rect", ""}
	seen := []bool{true, true, false}
	if err := checkClasses(served, seen, refs); err != nil {
		t.Fatalf("matching classes rejected: %v", err)
	}
	served[1] = "ellipse"
	if err := checkClasses(served, seen, refs); err == nil {
		t.Error("a wrong class passed")
	}
	if err := checkClasses(served, []bool{false, false, false}, refs); err == nil {
		t.Error("a run that checked no gesture passed")
	}
}

func TestCheckCommitsRejectsMovedCommitPoint(t *testing.T) {
	refs := []reference{{class: "line", firedAt: 7}, {class: "rect", firedAt: 12}}
	if err := checkCommits([]commit{{g: 0, at: 7}, {g: 1, at: 12}}, refs); err != nil {
		t.Fatalf("matching commit points rejected: %v", err)
	}
	if err := checkCommits([]commit{{g: 0, at: 7}, {g: 1, at: 11}}, refs); err == nil {
		t.Error("a commit one point early passed")
	}
	if err := checkCommits([]commit{{g: -1, at: 3}}, refs); err == nil {
		t.Error("a stroke from no pool gesture passed")
	}
}

func TestCheckTalliesRejectsDisagreement(t *testing.T) {
	good := tallies{
		events: 100, gestures: 4, results: 4,
		stats:    serve.Stats{Submitted: 100, Completed: 4},
		observed: true, decoded: 100, completed: 4, offered: 4,
	}
	if err := checkTallies(good); err != nil {
		t.Fatalf("agreeing tallies rejected: %v", err)
	}
	for name, mutate := range map[string]func(*tallies){
		"submitted":       func(t *tallies) { t.stats.Submitted-- },
		"completed":       func(t *tallies) { t.stats.Completed++ },
		"missing result":  func(t *tallies) { t.results-- },
		"bad":             func(t *tallies) { t.stats.Bad = 1 },
		"rejected":        func(t *tallies) { t.stats.Rejected = 1 },
		"active":          func(t *tallies) { t.stats.Active = 1 },
		"unknown session": func(t *tallies) { t.unknown = 1 },
		"extra result":    func(t *tallies) { t.overflow = 1 },
		"decoded":         func(t *tallies) { t.decoded = 99 },
		"sessions":        func(t *tallies) { t.completed = 5 },
		"offered":         func(t *tallies) { t.offered = 3 },
	} {
		bad := good
		mutate(&bad)
		if err := checkTallies(bad); err == nil {
			t.Errorf("%s: disagreeing tallies passed", name)
		}
	}
}

func TestCheckAccuracy(t *testing.T) {
	labels := []string{"line", "rect", "dot", "move"}
	served := newServedSet(4)
	if err := checkAccuracy(served, labels, 0.5); err == nil {
		t.Error("no gesture served, but accuracy passed")
	}
	served.class = []string{"line", "rect", "line", ""}
	served.seen = []bool{true, true, true, false}
	if err := checkAccuracy(served, labels, 0.6); err != nil {
		t.Errorf("2 of 3 against a 0.6 floor: %v", err)
	}
	if err := checkAccuracy(served, labels, 0.7); err == nil {
		t.Error("2 of 3 passed a 0.7 floor")
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), the spread the benchmark is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{2.5}, 2.5, 2.5},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// TestMonotonicReading pins the parse of Time.String's "m=" field, which
// set-up time adds for package initialisation.
func TestMonotonicReading(t *testing.T) {
	before := monotonicReading(time.Now())
	time.Sleep(time.Millisecond)
	after := monotonicReading(time.Now())
	if !(before > 0) || after-before < int64(time.Millisecond) {
		t.Errorf("monotonic readings %d then %d, 1 ms apart", before, after)
	}
	if r := monotonicReading(time.Now().Round(0)); r != 0 {
		t.Errorf("reading of a time without a monotonic clock = %d, want 0", r)
	}
	if !(preEpoch > 0) {
		t.Errorf("preEpoch = %d, want > 0", preEpoch)
	}
}

func TestCLIRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "eager", "--seconds", "0"},
		{"--workload", "eager", "--trace", "2"},
		{"--bogus"},
	} {
		var out, errb bytes.Buffer
		if code := cli(args, &out, &errb); code != 2 {
			t.Errorf("cli(%q) = %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("cli(%q) printed a result: %q", args, out.String())
		}
	}
}

// benchmarkMetrics reads the metric names BENCHMARK.json lists.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer []string, workloads map[string]bool) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	workloads = map[string]bool{}
	for _, w := range spec.Workloads {
		workloads[w.Name] = true
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer, workloads
}

// TestSmallRuns runs every workload, untraced and traced, on a small
// population with every output check on, and requires each run to
// print exactly the metrics BENCHMARK.json lists for it.
func TestSmallRuns(t *testing.T) {
	endToEnd, perLayer, listed := benchmarkMetrics(t)
	for _, w := range workloads {
		if w.backend == "eager" && !listed[w.name] {
			t.Errorf("workload %s is not in BENCHMARK.json", w.name)
		}
		for _, trace := range []bool{false, true} {
			cfg := defaultConfig(w, 3, 300*time.Millisecond, trace, t.TempDir())
			// 128 gestures: enough for the accuracy floor to hold on
			// a small pool, with few of them replayed through the
			// template backend, which is slow under the race detector.
			cfg.users, cfg.gesturesPer, cfg.warmPer = 4, 32, 2
			cfg.direct, cfg.templateReplay = 50*time.Millisecond, 4
			o, err := run(cfg)
			if err != nil {
				t.Errorf("%s trace=%v: %v", w.name, trace, err)
				continue
			}
			if o.attempted < int64(cfg.users*cfg.warmPer) {
				t.Errorf("%s trace=%v: attempted %d gestures, fewer than the warm-up", w.name, trace, o.attempted)
			}
			var names []string
			for _, m := range o.metrics {
				names = append(names, m.name)
			}
			sort.Strings(names)
			want := endToEnd
			if trace {
				want = perLayer
			}
			if strings.Join(names, " ") != strings.Join(want, " ") {
				t.Errorf("%s trace=%v prints %v, BENCHMARK.json lists %v", w.name, trace, names, want)
			}
			// Set-up ends at the first Result, and the direct phase
			// samples a queue wait for every event it serves.
			for _, m := range o.metrics {
				if (m.name == "setup_s" || m.name == "serve.queue_wait_p50_us") && !(m.value > 0) {
					t.Errorf("%s trace=%v: %s = %v, want > 0", w.name, trace, m.name, m.value)
				}
			}
			line, err := report(o)
			if err != nil {
				t.Errorf("%s trace=%v: %v", w.name, trace, err)
				continue
			}
			var r resultLine
			if err := json.Unmarshal([]byte(line), &r); err != nil || !r.Correct || r.Failed != 0 || r.Attempted != o.attempted {
				t.Errorf("%s trace=%v: result line %s (%v)", w.name, trace, line, err)
			}
			if trace {
				spans, err := os.ReadFile(cfg.outDir + "/trace-" + w.name + "-3.json")
				if err != nil || !bytes.Contains(spans, []byte(`"traceEvents"`)) {
					t.Errorf("%s: spans file: %v", w.name, err)
				}
			}
		}
	}
}
