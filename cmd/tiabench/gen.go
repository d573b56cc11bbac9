package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"tia/internal/asm"
	"tia/internal/gen"
	"tia/internal/isa"
	"tia/internal/pcpe"
)

// genMaxCycles bounds a generated-netlist benchmark run; generated
// graphs complete in a tiny fraction of this.
const genMaxCycles = 10_000_000

// genParams scales the generator with -size so "large fabric" perf work
// has a reproducible non-kernel workload: size 0 keeps the fuzzing
// defaults, larger sizes grow the stream count, transform depth and
// tokens per stream together.
func genParams(seed int64, size int) gen.Params {
	p := gen.Params{Seed: seed}
	if size > 0 {
		p.MaxStreams = 1 + size/4
		p.MaxStages = 2 + size
		p.MaxLen = 2 + size*4
	}
	return p
}

// runGenerated benchmarks one generated netlist: assemble once per run
// (parse cost excluded from the reported wall clock), simulate min-of-3
// on the interpreter, and print the topology census plus throughput.
// The netlist is a pure function of (seed, size), so a number in a
// discussion reproduces anywhere.
func runGenerated(ctx context.Context, w io.Writer, seed int64, size int) error {
	p := genParams(seed, size)
	src := gen.Netlist(p)
	census, err := asm.CheckNetlist(src, isa.DefaultConfig(), pcpe.DefaultConfig())
	if err != nil {
		return fmt.Errorf("generated netlist failed validation (generator bug): %w", err)
	}
	fmt.Fprintf(w, "generated netlist seed=%d size=%d: %d elements (%d PEs, %d pcPEs, %d scratchpads), %d channels, %d source tokens\n",
		seed, size, census.Elements, census.PEs, census.PCPEs, census.Scratchpads, census.Channels, census.SourceTokens)

	var best time.Duration
	var cycles int64
	for i := 0; i < 3; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		nl, err := asm.ParseNetlist(src, isa.DefaultConfig(), pcpe.DefaultConfig())
		if err != nil {
			return err
		}
		start := time.Now()
		res, err := nl.Fabric.RunContext(ctx, genMaxCycles)
		elapsed := time.Since(start)
		if err != nil {
			return fmt.Errorf("generated netlist did not complete: %w", err)
		}
		if i == 0 || elapsed < best {
			best, cycles = elapsed, res.Cycles
		}
	}
	persec := float64(cycles) / best.Seconds()
	fmt.Fprintf(w, "completed in %d cycles, best of 3: %v (%.0f cycles/s)\n", cycles, best, persec)
	return nil
}
