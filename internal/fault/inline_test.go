package fault_test

import (
	"os/exec"
	"strings"
	"testing"
)

// TestDisabledFaultPathInlines is the deterministic guard behind
// TestDisabledFaultPathUnderFiveNanoseconds, which skips under -race. It
// reads the compiler's inlining decisions for this package (the
// -gcflags=-m stream cmd/glint -escape also parses) and fails for every
// per-event hook that does not inline, since only an inlined nil check
// keeps a nil hook free at the call site.
func TestDisabledFaultPathInlines(t *testing.T) {
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
	for _, fn := range []string{"(*Schedule).Fate", "(*Schedule).Dispatch", "(*Script).Dispatch"} {
		if !inlinable[fn] {
			t.Errorf("%s does not inline; `go build -gcflags=-m=2 ./internal/fault` shows its cost", fn)
		}
	}
}
