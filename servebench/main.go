// Command servebench is the serving benchmark: it trains a recognizer,
// serves it through serve.Engine behind ingest.Serve on a loopback
// listener in its own process, and plays synthetic GDP gestures at it
// over two wire connections from a closed loop of simulated users. It
// checks every Result and prints the run's metrics as one JSON line.
//
//	servebench --workload eager --seed 1 --seconds 10 --trace 0
//	servebench --workload template --seed 1 --seconds 10 --spread 5
//
// --trace 1 reruns the workload with timing around each layer's calls
// and prints the per-layer metrics instead; --spread k runs the workload
// k times in fresh processes (seeds seed..seed+k-1) and prints each
// metric's median and quartiles. README.md describes the workloads,
// metrics and checks; run.sh builds the command from a checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// cli parses the flags and runs one workload, or its spread.
func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: eager, template or eager-observed")
	seed := fs.Int64("seed", 1, "traffic seed: generates the users' gestures (the training set is fixed)")
	seconds := fs.Float64("seconds", 10, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced rerun instead")
	spread := fs.Int("spread", 0, "run the workload this many times in fresh processes and print medians and quartiles")
	out := fs.String("out", ".servebench", "directory for the spans and spread files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 2
	}
	if *seconds <= 0 || *seconds > 600 || (*trace != 0 && *trace != 1) || *spread < 0 {
		fmt.Fprintln(stderr, "servebench: want 0 < --seconds <= 600, --trace 0 or 1, --spread >= 0")
		return 2
	}
	// go1.24 sizes GOMAXPROCS from the CPUs it may run on, not from a CPU
	// quota; state the intent explicitly.
	runtime.GOMAXPROCS(runtime.NumCPU())
	if *spread > 0 {
		return spreadRuns(w, *seed, *seconds, *trace, *spread, *out, stdout, stderr)
	}
	length := time.Duration(*seconds * float64(time.Second))
	o, err := run(defaultConfig(w, *seed, length, *trace == 1, *out))
	if err != nil {
		fmt.Fprintln(stderr, "servebench: check failed:", err)
		return 1
	}
	line, err := report(o)
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	return 0
}

// value is one metric in the report.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the report: the last line of standard output.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report renders a passing run's result line. Every gesture attempted
// passed the checks, or the run would have failed before reporting.
func report(o outcome) (string, error) {
	r := resultLine{Correct: true, Attempted: o.attempted, Metrics: make(map[string]value, len(o.metrics))}
	for _, m := range o.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return "", fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		r.Metrics[m.name] = value{Value: m.value, Unit: m.unit}
	}
	b, err := json.Marshal(r)
	return string(b), err
}
