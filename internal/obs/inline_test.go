package obs_test

import (
	"os/exec"
	"strings"
	"testing"
)

// perEventEntryPoints are the nil-safe calls instrumented code makes per
// event, spelled as `go build -gcflags=-m` prints them. Each must be a nil
// check the compiler inlines, so a nil handle costs a compare and a branch
// at the call site rather than a function call.
var perEventEntryPoints = []string{
	"(*Counter).Add", "(*Counter).Inc",
	"(*Gauge).Set", "(*Gauge).Add",
	"(*Histogram).Observe", "(*Histogram).ObserveExemplar",
	"Start", "ObserveSince", "ObserveSinceWindowed",
	"(*Ring).Emit",
	"(*SpanBuffer).Start", "(*SpanBuffer).StartAt",
	"(*Span).Child", "(*Span).ChildAt", "(*Span).Event",
	"(*Span).SetAttr", "(*Span).SetAttrInt", "(*Span).SetAttrFloat",
	"(*Span).End", "(*Span).EndAt",
	"(*WindowedCounter).Add", "(*WindowedCounter).Inc",
	"(*WindowedHistogram).Observe",
}

// TestDisabledPathInlines is the deterministic guard behind
// TestDisabledPathUnderFiveNanoseconds, which skips under -race. It reads
// the compiler's inlining decisions for this package (the -gcflags=-m
// stream cmd/glint -escape also parses) and fails for every per-event
// entry point that does not inline. The fix for a failure is to move the
// entry point's enabled body into an unexported helper, leaving only the
// nil check and the call.
func TestDisabledPathInlines(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go tool not found: %v", err)
	}
	out, err := exec.Command(goTool, "build", "-gcflags=-m", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	inlinable := map[string]bool{}
	for _, line := range strings.Split(string(out), "\n") {
		if _, fn, ok := strings.Cut(line, ": can inline "); ok {
			inlinable[fn] = true
		}
	}
	for _, fn := range perEventEntryPoints {
		if !inlinable[fn] {
			t.Errorf("%s does not inline; `go build -gcflags=-m=2 ./internal/obs` shows its cost", fn)
		}
	}
}
