// Batched campaign execution: the resilience campaigns of
// resilience.go, run on a few reused instances instead of a fresh
// instance per run. The contract is bit-identical results — same
// FaultRun records, same Taxonomy, same errors — with the per-run
// static costs (netlist build, wiring tables, compiled trigger plans,
// fault-site scanning) paid once per worker instead of once per run.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"tia/internal/channel"
	"tia/internal/fabric"
	"tia/internal/faults"
	"tia/internal/workloads"
)

// runCampaignBatch executes `runs` seeded faulty runs of the plan on at
// most `lanes` concurrent instances and returns the per-run records
// indexed by run. Each record is bit-identical to what faultyRun would
// have produced for the same seed: an instance is reused via
// Reset+Rearm (differentially proven equal to a fresh build+Attach), it
// runs on the same RunContext, and classification goes through the same
// classifyRun. Fresh golden tokens and the anchored plan are the
// caller's, exactly as in the serial runners.
//
// min(GOMAXPROCS, lanes, runs) workers each build one instance and run
// it to completion, one run after another; the caller's goroutine is
// worker 0. All workers draw run indices from one shared atomic
// counter, so a worker stuck on a hung run never strands the others'
// cores, and each worker writes recs[run] — results are collected by
// run index, which makes them independent of which worker ran what.
// The first error cancels the sibling workers.
func runCampaignBatch(ctx context.Context, spec *workloads.Spec, p workloads.Params, plan faults.Plan, runs, lanes int, budget int64, golden []channel.Token) ([]FaultRun, error) {
	workers := min(runtime.GOMAXPROCS(0), lanes, runs)
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	recs := make([]FaultRun, runs)
	var next atomic.Int64
	errs := make([]error, workers)
	work := func(w int) {
		if err := runCampaignWorker(wctx, spec, p, plan, runs, budget, golden, &next, recs); err != nil {
			errs[w] = err
			cancel()
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
	// A worker that failed cancels its siblings, which then report a
	// cancellation of their own; that is an echo, not a cause. Report
	// the first cause in worker order, or, when the caller's context
	// ended the campaign, the first worker's cancellation error.
	for _, err := range errs {
		if err != nil && (ctx.Err() != nil || !errors.Is(err, fabric.ErrCancelled)) {
			return nil, err
		}
	}
	return recs, nil
}

// runCampaignWorker builds one instance and runs it to completion on
// every run it claims from next, until the counter passes runs: the
// injector is Attached on the first run and the instance Reset and
// Rearmed before each later one. Each run's record goes to recs[run].
func runCampaignWorker(ctx context.Context, spec *workloads.Spec, p workloads.Params, plan faults.Plan, runs int, budget int64, golden []channel.Token, next *atomic.Int64, recs []FaultRun) error {
	inst, err := spec.BuildTIA(p)
	if err != nil {
		return fmt.Errorf("%s: build: %w", spec.Name, err)
	}
	base := plan.Seed
	var inj *faults.Injector
	for {
		run := int(next.Add(1) - 1)
		if run >= runs {
			return nil
		}
		plan.Seed = base + int64(run)
		if inj == nil {
			if inj, err = faults.Attach(inst.Fabric, plan); err != nil {
				return err
			}
		} else {
			inst.Fabric.Reset()
			if err := inj.Rearm(plan); err != nil {
				return err
			}
		}
		res, err := inst.Fabric.RunContext(ctx, budget)
		rec, err := classifyRun(plan.Seed, res, err, inj.Counts().Total(), inst.Sink.Tokens(), golden)
		if err != nil {
			return err // cancelled: abort the campaign, not an outcome
		}
		recs[run] = rec
	}
}

// RunDataCampaignBatch is RunDataCampaign on at most `lanes` reused
// instances at once: the same runs, seeds, budget and classification,
// with instance and attach costs amortized across the campaign. Results
// are bit-identical to the serial runner (the differential tests assert
// it for every kernel); lanes <= 1 or runs <= 0 simply delegates.
func RunDataCampaignBatch(ctx context.Context, spec *workloads.Spec, p workloads.Params, plan faults.Plan, runs, lanes int) (*CampaignReport, error) {
	if lanes <= 1 || runs <= 0 {
		return RunDataCampaign(ctx, spec, p, plan, runs)
	}
	p = spec.Normalize(p)
	golden, cycles, err := goldenRun(ctx, spec, p, false)
	if err != nil {
		return nil, err
	}
	if plan.To <= 0 {
		plan.To = cycles
	}
	rep := &CampaignReport{Workload: spec.Name, Plan: plan, GoldenCycles: cycles}
	budget := campaignBudget(cycles, spec.MaxCycles(p))
	recs, err := runCampaignBatch(ctx, spec, p, plan, runs, lanes, budget, golden)
	if err != nil {
		return nil, err
	}
	rep.FaultRuns = recs
	for _, run := range recs {
		rep.Taxonomy.add(run)
	}
	return rep, nil
}

// RunTimingCampaignBatch is RunTimingCampaign on at most `lanes` reused
// instances at once. The serial runner aborts at the first (lowest-seed)
// violating run; the workers finish runs out of order, so the batch
// collects all outcomes and reports the lowest-run violation — the same
// error the serial runner would have returned. Dense stepping has no
// batched path; dense, lanes <= 1 or runs <= 0 delegates to the serial
// runner.
func RunTimingCampaignBatch(ctx context.Context, spec *workloads.Spec, p workloads.Params, plan faults.Plan, runs, lanes int, dense bool) (*CampaignReport, error) {
	if lanes <= 1 || runs <= 0 || dense {
		return RunTimingCampaign(ctx, spec, p, plan, runs, dense)
	}
	if !plan.Timing() {
		return nil, fmt.Errorf("%s: timing campaign given a data-fault plan", spec.Name)
	}
	p = spec.Normalize(p)
	golden, cycles, err := goldenRun(ctx, spec, p, false)
	if err != nil {
		return nil, err
	}
	if plan.To <= 0 {
		plan.To = cycles
	}
	rep := &CampaignReport{Workload: spec.Name, Plan: plan, GoldenCycles: cycles}
	budget := campaignBudget(cycles, spec.MaxCycles(p))
	recs, err := runCampaignBatch(ctx, spec, p, plan, runs, lanes, budget, golden)
	if err != nil {
		return nil, err
	}
	for _, run := range recs {
		if run.Outcome != OutcomeMasked {
			return nil, fmt.Errorf("%s: latency-insensitivity violated under timing faults (seed %d): %s: %s",
				spec.Name, run.Seed, run.Outcome, run.Detail)
		}
	}
	rep.FaultRuns = recs
	for _, run := range recs {
		rep.Taxonomy.add(run)
	}
	return rep, nil
}
