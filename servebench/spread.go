package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// spreadStat is one metric's spread over repeated runs.
type spreadStat struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	IQR    float64   `json:"iqr_share"` // (q3-q1)/median
	Values []float64 `json:"values"`
}

// spreadRuns runs the workload k times, each in a fresh process with its
// own seed, and reports each metric's median and quartiles: the figure
// that decides whether the workload is steady, and what a later change
// is compared against.
func spreadRuns(w workload, seed int64, seconds float64, trace, k int, outDir string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 1
	}
	var lines []resultLine
	for i := 0; i < k; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace), "--out", outDir)
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "servebench: run with seed %d: %v\n", s, err)
			return 1
		}
		text := strings.TrimSpace(out.String())
		var r resultLine
		if err := json.Unmarshal([]byte(text[strings.LastIndexByte(text, '\n')+1:]), &r); err != nil {
			fmt.Fprintf(stderr, "servebench: run with seed %d: result line: %v\n", s, err)
			return 1
		}
		fmt.Fprintf(stdout, "seed %d: %s\n", s, text[strings.LastIndexByte(text, '\n')+1:])
		lines = append(lines, r)
	}
	stats := summarize(lines)
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%-30s %14s %14s %14s %9s\n", "metric", "median", "q1", "q3", "iqr/med")
	for _, n := range names {
		st := stats[n]
		fmt.Fprintf(stdout, "%-30s %14.6g %14.6g %14.6g %8.2f%%  %s\n", n, st.Median, st.Q1, st.Q3, 100*st.IQR, st.Unit)
	}
	path := filepath.Join(outDir, fmt.Sprintf("spread-%s-trace%d-seed%d-k%d.json", w.name, trace, seed, k))
	if err := writeJSON(path, stats); err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, "wrote", path)
	return 0
}

// summarize computes each metric's spread over the runs.
func summarize(lines []resultLine) map[string]spreadStat {
	stats := map[string]spreadStat{}
	for _, r := range lines {
		for n, v := range r.Metrics {
			st := stats[n]
			st.Unit = v.Unit
			st.Values = append(st.Values, v.Value)
			stats[n] = st
		}
	}
	for n, st := range stats {
		st.Median = median(st.Values)
		st.Q1, st.Q3 = quartiles(st.Values)
		if st.Median != 0 {
			st.IQR = (st.Q3 - st.Q1) / st.Median
		}
		stats[n] = st
	}
	return stats
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
