// Command tiabench regenerates every table and figure of the paper's
// evaluation: per-workload speedups over the PC-style baseline (E1),
// critical-path instruction reductions (E2), area-normalized performance
// versus a general-purpose core (E3), the fabric configuration (E4),
// workload characterization (E5), per-kernel resource requirements (E6)
// and the sensitivity sweeps (E7/E8).
//
// Usage:
//
//	tiabench [-size N] [-seed S] [-timeout D] [-experiment all|e1|e2|e3|e4|e5|e6|e7|e8]
//	tiabench -listing <kernel>   # disassemble a kernel's programs
//	tiabench -json               # machine-readable suite results
//	tiabench -faults [-fault-runs N] [-fault-seed S] [-state FILE]   # resilience campaigns
//	tiabench -gen SEED [-size N]   # benchmark a generated netlist (internal/gen)
//
// Every simulation steps on one goroutine; -workers sets how many
// independent design points run at once. Fault campaigns (-faults)
// also spread their runs over up to 8 reused instances, one worker per
// GOMAXPROCS, with results identical to serial.
//
// Simulator speed is measured by the repository benchmark in
// perfbench/ (same-machine A/B, with the E1 cycle counts checked), not
// here; -gen is the one timing mode, for ad-hoc runs on generated
// netlists.
//
// With -faults -state FILE, each kernel's finished campaign row is
// persisted after it completes; rerunning the same command after an
// interruption (timeout, ^C, crash) resumes the sweep, printing the
// recorded rows without re-simulating them.
//
// -timeout bounds the total wall-clock time: when it expires, running
// simulations are cancelled mid-flight and whatever finished is printed,
// clearly labeled partial.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"tia/internal/core"
	"tia/internal/fabric"
	"tia/internal/workloads"
)

func main() {
	size := flag.Int("size", 0, "workload scale (0 = per-kernel default)")
	seed := flag.Int64("seed", 1, "input generator seed")
	exp := flag.String("experiment", "all", "which experiment to run (all, e1..e8)")
	listing := flag.String("listing", "", "print a kernel's compiled programs instead of running experiments")
	jsonOut := flag.Bool("json", false, "emit the suite results as JSON instead of tables")
	faults := flag.Bool("faults", false, "run seeded fault-injection campaigns instead of the experiments")
	faultRuns := flag.Int("fault-runs", 10, "perturbed runs per campaign (with -faults)")
	faultSeed := flag.Int64("fault-seed", 4242, "fault plan seed (with -faults)")
	faultState := flag.String("state", "", "campaign progress file: finished kernels are recorded and an interrupted sweep resumes (with -faults)")
	workers := flag.Int("workers", 0, "max concurrent design-point simulations (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 0, "total wall-clock budget; expiry cancels simulations and prints partial results (0 = none)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	genSeed := flag.Int64("gen", 0, "benchmark a generated netlist with this seed (internal/gen; scaled by -size) instead of the experiments")
	flag.Parse()
	genSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "gen" {
			genSet = true
		}
	})

	core.MaxWorkers = *workers
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tiabench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "tiabench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "tiabench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "tiabench:", err)
			}
		}()
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	p := workloads.Params{Size: *size, Seed: *seed}
	if genSet {
		if err := runGenerated(ctx, os.Stdout, *genSeed, *size); err != nil {
			fmt.Fprintln(os.Stderr, "tiabench:", err)
			os.Exit(1)
		}
		return
	}
	if *jsonOut {
		if err := emitJSON(ctx, p); err != nil {
			fmt.Fprintln(os.Stderr, "tiabench:", err)
			os.Exit(1)
		}
		return
	}
	if *listing != "" {
		if err := printListing(p, *listing); err != nil {
			fmt.Fprintln(os.Stderr, "tiabench:", err)
			os.Exit(1)
		}
		return
	}
	if *faults {
		if err := runFaultCampaigns(ctx, os.Stdout, p, *faultRuns, *faultSeed, *faultState); err != nil {
			fmt.Fprintln(os.Stderr, "tiabench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(ctx, p, *exp); err != nil {
		fmt.Fprintln(os.Stderr, "tiabench:", err)
		os.Exit(1)
	}
}

// partialOK eats a pure cancellation/timeout error, reporting it as
// "results are partial"; any other error is passed through.
func partialOK(err error) (bool, error) {
	if err == nil {
		return false, nil
	}
	if errors.Is(err, fabric.ErrCancelled) {
		return true, nil
	}
	return false, err
}

// liveRows drops the suite entries that never finished.
func liveRows(rows []*core.Row) []*core.Row {
	var out []*core.Row
	for _, r := range rows {
		if r != nil {
			out = append(out, r)
		}
	}
	return out
}

// livePoints drops sweep points that never finished.
func livePoints(pts []core.SweepPoint) []core.SweepPoint {
	var out []core.SweepPoint
	for _, pt := range pts {
		if pt.Label != "" {
			out = append(out, pt)
		}
	}
	return out
}

// liveMemPoints drops memory-sweep points that never finished.
func liveMemPoints(pts []core.MemLatencyPoint) []core.MemLatencyPoint {
	var out []core.MemLatencyPoint
	for _, pt := range pts {
		if pt.TIACycles > 0 {
			out = append(out, pt)
		}
	}
	return out
}

// emitJSON runs the full suite and writes machine-readable results. A
// timeout yields whatever finished, with the payload marked partial.
func emitJSON(ctx context.Context, p workloads.Params) error {
	rows, err := core.RunSuiteContext(ctx, p)
	partial, err := partialOK(err)
	if err != nil {
		return err
	}
	rows = liveRows(rows)
	res := &core.Results{Rows: rows, Partial: partial}
	if len(rows) > 0 { // Summarize divides by the row count
		res.Summary = core.Summarize(rows)
	}
	if ctx.Err() == nil {
		if res.Requirements, err = core.SuiteRequirements(p); err != nil {
			return err
		}
		if res.MergeBracket, err = core.RunMergeBracket(256, p.Seed); err != nil {
			return err
		}
	} else {
		res.Partial = true
	}
	return core.WriteJSON(os.Stdout, res)
}

// printListing disassembles one kernel's triggered and PC-style programs.
func printListing(p workloads.Params, name string) error {
	spec, err := workloads.ByName(name)
	if err != nil {
		return err
	}
	pp := spec.Normalize(p)
	tia, err := spec.BuildTIA(pp)
	if err != nil {
		return err
	}
	fmt.Printf("== %s: triggered mapping (%d PEs) ==\n", name, len(tia.PEs))
	for _, pr := range tia.PEs {
		fmt.Printf("\npe %s (%d triggered instructions):\n", pr.Name(), pr.StaticInstructions())
		for _, inst := range pr.Program() {
			fmt.Printf("  %s\n", inst)
		}
	}
	pc, err := spec.BuildPC(pp)
	if err != nil {
		return err
	}
	fmt.Printf("\n== %s: PC-style baseline (%d PEs) ==\n", name, len(pc.PCPEs))
	for _, pr := range pc.PCPEs {
		fmt.Printf("\npcpe %s (%d instructions):\n", pr.Name(), pr.StaticInstructions())
		for _, inst := range pr.Program() {
			fmt.Printf("  %s\n", inst)
		}
	}
	return nil
}

// experimentIDs are the values -experiment accepts.
var experimentIDs = []string{"all", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8"}

func run(ctx context.Context, p workloads.Params, exp string) error {
	if !slices.Contains(experimentIDs, exp) {
		return fmt.Errorf("unknown experiment %q (valid: %s)", exp, strings.Join(experimentIDs, ", "))
	}
	needSuite := map[string]bool{"all": true, "e1": true, "e2": true, "e3": true, "e5": true}
	suitePartial := false
	var rows []*core.Row
	if needSuite[exp] {
		all, err := core.RunSuiteContext(ctx, p)
		suitePartial, err = partialOK(err)
		if err != nil {
			return err
		}
		rows = liveRows(all)
		if suitePartial {
			fmt.Printf("NOTE: -timeout expired; %d/%d workloads finished, tables below are partial\n",
				len(rows), len(all))
		}
	}
	section := func(id, title string) {
		fmt.Printf("\n== %s: %s ==\n", id, title)
		if suitePartial {
			fmt.Println("(partial: -timeout expired before the full suite finished)")
		}
	}
	// skipped reports (and announces) experiments the timeout preempted
	// entirely; their simulations have no context-aware entry point or
	// simply should not start once the budget is gone.
	skipped := func(what string) bool {
		if ctx.Err() == nil {
			return false
		}
		fmt.Printf("(%s skipped: -timeout expired)\n", what)
		return true
	}
	if exp == "all" || exp == "e1" {
		section("E1", "speedup of triggered control over the PC-style spatial baseline (paper: 2.0X geomean)")
		core.WriteE1(os.Stdout, rows)
	}
	if exp == "all" || exp == "e2" {
		section("E2", "critical-path instruction counts (paper: 62% static / 64% dynamic reduction)")
		if !skipped("merge bracket") {
			bracket, err := core.RunMergeBracket(256, p.Seed)
			if err != nil {
				return err
			}
			core.WriteE2(os.Stdout, rows, bracket)
		}
	}
	if exp == "all" || exp == "e3" {
		section("E3", "area-normalized performance vs general-purpose core (paper: 8X)")
		core.WriteE3(os.Stdout, rows)
		fmt.Println("\ncalibration sensitivity (constants perturbed, cycle counts unchanged):")
		for _, pt := range core.AreaSensitivity(rows) {
			fmt.Printf("  %-14s geomean %.1f\n", pt.Label, pt.Geomean)
		}
	}
	if exp == "all" || exp == "e4" {
		section("E4", "evaluated fabric configuration")
		core.WriteE4(os.Stdout)
	}
	if exp == "all" || exp == "e5" {
		section("E5", "workload characterization")
		core.WriteE5(os.Stdout, rows)
	}
	if exp == "all" || exp == "e6" {
		section("E6", "per-kernel trigger/predicate requirements (sensitivity to PE resources)")
		if !skipped("requirements") {
			reqs, err := core.SuiteRequirements(p)
			if err != nil {
				return err
			}
			core.WriteE6(os.Stdout, reqs)
		}
	}
	if exp == "all" || exp == "e7" {
		section("E7", "channel-depth and memory-latency sensitivity")
		for _, name := range []string{"mergesort", "kmp", "smvm"} {
			spec, err := workloads.ByName(name)
			if err != nil {
				return err
			}
			pts, err := core.DepthSweepContext(ctx, spec, p, []int{1, 2, 4, 8})
			partial, err := partialOK(err)
			if err != nil {
				return err
			}
			core.WriteSweep(os.Stdout, name+" depth", livePoints(pts))
			if partial {
				fmt.Printf("(%s depth sweep partial: -timeout expired)\n", name)
			}
		}
		for _, name := range []string{"kmp", "graph500", "smvm"} {
			spec, err := workloads.ByName(name)
			if err != nil {
				return err
			}
			pts, err := core.MemLatencySweepContext(ctx, spec, p, []int{0, 2, 4, 8})
			partial, err := partialOK(err)
			if err != nil {
				return err
			}
			live := liveMemPoints(pts)
			if len(live) == 0 {
				fmt.Printf("(%s mem-latency sweep skipped: -timeout expired)\n", name)
				continue
			}
			fmt.Printf("%s mem latency:", name)
			base := live[0]
			for _, pt := range live {
				fmt.Printf("  lat=%d tia:%d(%.2fx) pc:%d(%.2fx)", pt.Latency,
					pt.TIACycles, float64(pt.TIACycles)/float64(base.TIACycles),
					pt.PCCycles, float64(pt.PCCycles)/float64(base.PCCycles))
			}
			if partial {
				fmt.Print("  (partial)")
			}
			fmt.Println()
		}
	}
	if exp == "all" || exp == "e8" {
		section("E8", "ablations: link latency and scheduler policy")
		for _, name := range []string{"mergesort", "graph500"} {
			spec, err := workloads.ByName(name)
			if err != nil {
				return err
			}
			pts, err := core.LatencySweepContext(ctx, spec, p, []int{0, 1, 2})
			partial, err := partialOK(err)
			if err != nil {
				return err
			}
			core.WriteSweep(os.Stdout, name+" latency", livePoints(pts))
			if partial {
				fmt.Printf("(%s latency sweep partial: -timeout expired)\n", name)
			}
			if skipped(name + " scheduler comparison") {
				continue
			}
			prio, rr, err := core.PolicyComparison(spec, p)
			if err != nil {
				return err
			}
			fmt.Printf("%s scheduler: priority:%d round-robin:%d\n", name, prio, rr)
		}
		if !skipped("interconnect comparison") {
			direct, mesh, err := core.MeshComparison(256)
			if err != nil {
				return err
			}
			fmt.Printf("merge interconnect: direct:%d mesh-noc:%d (identical output)\n", direct, mesh)
		}
		for _, name := range []string{"smvm", "graph500", "sha256"} {
			if skipped(name + " issue-width comparison") {
				break
			}
			spec, err := workloads.ByName(name)
			if err != nil {
				return err
			}
			w1, w2, err := core.IssueWidthComparison(spec, p)
			if err != nil {
				return err
			}
			fmt.Printf("%s issue width: 1-wide:%d 2-wide:%d (%.2fx)\n", name, w1, w2, float64(w1)/float64(w2))
		}
	}
	return nil
}
