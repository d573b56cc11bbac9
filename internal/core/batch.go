// Batched campaign execution: the resilience campaigns of
// resilience.go, run over internal/batchrun lanes instead of a fresh
// instance per run. The contract is bit-identical results — same
// FaultRun records, same Taxonomy, same errors — with the per-run
// static costs (netlist build, wiring tables, compiled trigger plans,
// fault-site scanning) paid once per lane instead of once per run.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"tia/internal/batchrun"
	"tia/internal/channel"
	"tia/internal/fabric"
	"tia/internal/faults"
	"tia/internal/workloads"
)

// campaignLane is the per-lane payload of a batched campaign: the
// workload instance whose fabric the lane drives, and the injector that
// is Attached on the lane's first run and Rearmed on every later one.
type campaignLane struct {
	inst *workloads.Instance
	inj  *faults.Injector
}

// runCampaignBatch executes `runs` seeded faulty runs of the plan over
// `lanes` batch lanes and returns the per-run records indexed by run.
// Each record is bit-identical to what faultyRun would have produced
// for the same seed: the lanes re-arm via Reset+Rearm (differentially
// proven equal to a fresh build+Attach), the stepper is the serial
// event stepper advanced in lockstep, and classification goes through
// the same classifyRun. Fresh golden tokens and the anchored plan are
// the caller's, exactly as in the serial runners.
//
// The lanes are split into min(GOMAXPROCS, lanes) groups, each its own
// batchrun.Batch built and stepped on its own goroutine (the caller's
// goroutine runs group 0). All groups draw run indices from one shared
// atomic counter, so a group stuck on a hung run never strands the
// others' cores, and each group writes recs[run] — results are
// collected by run index, which makes them independent of which group
// ran what. The first error cancels the sibling groups.
func runCampaignBatch(ctx context.Context, spec *workloads.Spec, p workloads.Params, plan faults.Plan, runs, lanes int, budget int64, golden []channel.Token) ([]FaultRun, error) {
	if lanes > runs {
		lanes = runs
	}
	groups := min(runtime.GOMAXPROCS(0), lanes)
	gctx, cancel := context.WithCancel(ctx)
	defer cancel()
	recs := make([]FaultRun, runs)
	var next atomic.Int64
	claim := func() (int, bool) {
		r := int(next.Add(1) - 1)
		return r, r < runs
	}
	errs := make([]error, groups)
	runGroup := func(g int) {
		// Group g owns lanes [first, first+n): the lanes are dealt as
		// evenly as the group count allows.
		first, n := g*lanes/groups, (g+1)*lanes/groups-g*lanes/groups
		if err := runLaneGroup(gctx, spec, p, plan, first, n, budget, golden, claim, recs); err != nil {
			errs[g] = err
			cancel()
		}
	}
	var wg sync.WaitGroup
	for g := 1; g < groups; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runGroup(g)
		}()
	}
	runGroup(0)
	wg.Wait()
	// A group that failed cancels its siblings, which then report a
	// cancellation of their own; that is an echo, not a cause. Report
	// the first cause in group order, or, when the caller's context
	// ended the campaign, the first group's cancellation error.
	for _, err := range errs {
		if err != nil && (ctx.Err() != nil || !errors.Is(err, fabric.ErrCancelled)) {
			return nil, err
		}
	}
	return recs, nil
}

// runLaneGroup builds a batch of n lanes (campaign lanes first ..
// first+n-1) and steps it on the calling goroutine, arming each free
// lane with the next run claim hands out and storing that run's record
// in recs[run].
func runLaneGroup(ctx context.Context, spec *workloads.Spec, p workloads.Params, plan faults.Plan, first, n int, budget int64, golden []channel.Token, claim func() (int, bool), recs []FaultRun) error {
	b, err := batchrun.New(
		batchrun.Config{
			Lanes:     n,
			MaxCycles: budget,
			// Eviction is scheduling only: a lane that outlives a quarter
			// of the budget is almost certainly a hung run; finishing it
			// on the serial stepper keeps the lockstep loop dense without
			// touching its outcome.
			EvictAfter: budget / 4,
		},
		func(lane int) (*fabric.Fabric, any, error) {
			inst, err := spec.BuildTIA(p)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: build lane %d: %w", spec.Name, first+lane, err)
			}
			return inst.Fabric, &campaignLane{inst: inst}, nil
		})
	if err != nil {
		return err
	}
	base := plan.Seed
	arm := func(l *batchrun.Lane, run int) error {
		cl := l.Payload.(*campaignLane)
		plan := plan
		plan.Seed = base + int64(run)
		if cl.inj == nil {
			inj, err := faults.Attach(l.Fabric, plan)
			if err != nil {
				return err
			}
			cl.inj = inj
			return nil
		}
		l.Fabric.Reset()
		return cl.inj.Rearm(plan)
	}
	done := func(l *batchrun.Lane, run int, res fabric.Result, err error) error {
		cl := l.Payload.(*campaignLane)
		rec, err := classifyRun(base+int64(run), res, err, cl.inj.Counts().Total(), cl.inst.Sink.Tokens(), golden)
		if err != nil {
			return err // cancelled: abort the campaign, not an outcome
		}
		recs[run] = rec
		return nil
	}
	return b.RunFrom(ctx, claim, arm, done)
}

// RunDataCampaignBatch is RunDataCampaign over `lanes` batch lanes:
// the same runs, seeds, budget and classification, with instance and
// attach costs amortized across the campaign. Results are bit-identical
// to the serial runner (the differential tests assert it for every
// kernel); lanes <= 1 simply delegates.
func RunDataCampaignBatch(ctx context.Context, spec *workloads.Spec, p workloads.Params, plan faults.Plan, runs, lanes int) (*CampaignReport, error) {
	if lanes <= 1 {
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

// RunTimingCampaignBatch is RunTimingCampaign over `lanes` batch lanes.
// The serial runner aborts at the first (lowest-seed) violating run;
// the batch runs retire out of order, so the batch collects all
// outcomes and reports the lowest-run violation — the same error the
// serial runner would have returned. Dense stepping has no batched
// path (lanes are driven by the event stepper); dense or lanes <= 1
// delegates to the serial runner.
func RunTimingCampaignBatch(ctx context.Context, spec *workloads.Spec, p workloads.Params, plan faults.Plan, runs, lanes int, dense bool) (*CampaignReport, error) {
	if lanes <= 1 || dense {
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
