package main

import (
	"fmt"
	"strings"

	"tia/internal/core"
	"tia/internal/workloads"
)

// committedE1 is the triggered fabric's cycle count per kernel in the
// E1 suite at seed 1, as committed in EXPERIMENTS.md. A change that only
// speeds up the simulator cannot move any of them.
var committedE1 = map[string]int64{
	"aes": 9776, "dmm": 1221, "fft": 4665, "graph500": 1490,
	"kmp": 2589, "mergesort": 516, "sha256": 5377, "smvm": 1349,
}

// paperSpeedup is the paper's headline speedup of triggered over
// PC-style control.
const paperSpeedup = 2.0

// driftGate runs the E1 suite at seed 1 and checks it against want.
func driftGate(want map[string]int64) (string, error) {
	rows, err := core.RunSuite(workloads.Params{Seed: 1})
	if err != nil {
		return "", fmt.Errorf("E1 suite: %w", err)
	}
	return checkDrift(rows, want)
}

// checkDrift compares every kernel's triggered cycle count with want.
// A mismatch is behaviour drift, not a slowdown: the simulated machine
// changed. The summary gives the suite's geomean speedup beside the
// paper's.
func checkDrift(rows []*core.Row, want map[string]int64) (string, error) {
	var b strings.Builder
	var bad []string
	seen := map[string]bool{}
	for _, r := range rows {
		seen[r.Name] = true
		w, ok := want[r.Name]
		switch {
		case !ok:
			bad = append(bad, fmt.Sprintf("%s: no committed cycle count", r.Name))
		case r.TIACycles != w:
			bad = append(bad, fmt.Sprintf("%s: %d cycles, committed %d", r.Name, r.TIACycles, w))
		}
		fmt.Fprintf(&b, "%s=%d ", r.Name, r.TIACycles)
	}
	for name := range want {
		if !seen[name] {
			bad = append(bad, fmt.Sprintf("%s: missing from the suite", name))
		}
	}
	g := core.Summarize(rows).GeomeanSpeedup
	fmt.Fprintf(&b, "geomean %.2fX (paper %.1fX, error %+.1f%%)", g, paperSpeedup, 100*(g-paperSpeedup)/paperSpeedup)
	if len(bad) > 0 {
		return b.String(), fmt.Errorf("behaviour drift in E1 at seed 1: %s", strings.Join(bad, "; "))
	}
	return b.String(), nil
}
