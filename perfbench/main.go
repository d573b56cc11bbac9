// Command perfbench is the repository's benchmark. It drives the real
// service in-process over loopback HTTP on one of three seeded
// workloads, checks every output, and prints the end-to-end metrics or,
// with --trace 1, the per-layer metrics. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.
//
//	bash perfbench/run.sh --workload service-mix --seed 1 --seconds 10 --trace 0
//
// See README.md beside this file for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// setups is how many times a run builds its servers and warms them
// up; setup_s is the median.
const setups = 5

func main() {
	wlName := flag.String("workload", "service-mix", "suite-cold, service-mix or campaign")
	seed := flag.Int64("seed", 1, "seed of the generated requests")
	seconds := flag.Float64("seconds", 10, "length of the timed window")
	traced := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	flag.Parse()

	wl, ok := workloadDefs[*wlName]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *wlName, *seconds, *traced)
		os.Exit(2)
	}
	cfg := runConfig{wl: wl, seed: *seed, window: time.Duration(*seconds * float64(time.Second)), setups: setups}
	if *traced == 1 {
		cfg.spansPath = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", wl.name, *seed))
	}

	fmt.Println(metaLine(wl, *seed))
	drift, err := driftGate(committedE1)
	fmt.Println("drift gate: E1 seed 1:", drift)
	var rep *report
	if err == nil {
		rep, err = run(cfg, *traced == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep.print(os.Stdout)
	line, err := json.Marshal(rep.result())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.correct() {
		os.Exit(1)
	}
}
