package service

import (
	"context"
	"errors"

	"tia/internal/core"
	"tia/internal/fabric"
	"tia/internal/faults"
	"tia/internal/workloads"
)

// maxCampaignRuns bounds one campaign job's perturbed executions.
const maxCampaignRuns = 256

// defaultCampaignRuns applies when the request leaves Runs unset.
const defaultCampaignRuns = 10

// defaultCampaignLanes caps how many reused instances a campaign runs
// at once (fewer when it has fewer runs or the host fewer cores). The
// cap never changes results, only memory and parallelism.
const defaultCampaignLanes = 8

// planFromRequest translates the wire form into a fault plan.
func planFromRequest(fc *FaultCampaignRequest) faults.Plan {
	return faults.Plan{
		Seed:       fc.Seed,
		Sites:      fc.Sites,
		From:       fc.FromCycle,
		To:         fc.ToCycle,
		JitterRate: fc.JitterRate,
		JitterMax:  fc.JitterMax,
		Stalls:     fc.Stalls,
		StallMax:   fc.StallMax,
		Freezes:    fc.Freezes,
		FreezeMax:  fc.FreezeMax,
		FlipRate:   fc.FlipRate,
		DropRate:   fc.DropRate,
		DupRate:    fc.DupRate,
	}
}

// runFaultCampaign executes a workload job's fault campaign: a timing-
// only plan asserts latency-insensitivity (any divergence fails the job
// with a verify error), a data plan classifies runs into the taxonomy.
// Campaign results bypass the result cache: the payload is a statistic
// over many runs, not a single content-addressable simulation.
func (s *Server) runFaultCampaign(ctx context.Context, id string, req *JobRequest) (*JobResult, error) {
	spec, err := workloads.ByName(req.Workload)
	if err != nil {
		return nil, jobErrorf(ErrBadRequest, "%v", err)
	}
	p := spec.Normalize(workloadParams(req))
	runs := req.Faults.Runs
	if runs <= 0 {
		runs = defaultCampaignRuns
	}
	if runs > maxCampaignRuns {
		runs = maxCampaignRuns
	}
	plan := planFromRequest(req.Faults)
	if err := plan.Validate(); err != nil {
		return nil, jobErrorf(ErrBadRequest, "%v", err)
	}
	lanes := min(runs, defaultCampaignLanes)

	timing := plan.Timing()
	var rep *core.CampaignReport
	if timing {
		rep, err = core.RunTimingCampaignBatch(ctx, spec, p, plan, runs, lanes, false)
	} else {
		rep, err = core.RunDataCampaignBatch(ctx, spec, p, plan, runs, lanes)
	}
	if err != nil {
		switch {
		case errors.Is(err, fabric.ErrCancelled):
			return nil, simError(ctx, err, 0)
		case timing:
			// A timing campaign only fails loudly when a run diverged
			// from the golden output — a broken latency-insensitivity
			// contract, which is a verification failure, not an internal
			// fault.
			return nil, jobErrorf(ErrVerify, "%v", err)
		default:
			return nil, jobErrorf(ErrInternal, "%v", err)
		}
	}

	tx := rep.Taxonomy
	s.metrics.FaultsInjected.Add(tx.Injected)
	s.metrics.FaultRunsMasked.Add(int64(tx.Masked))
	s.metrics.FaultRunsDetected.Add(int64(tx.Detected))
	s.metrics.FaultRunsSilent.Add(int64(tx.SDC))
	s.metrics.FaultRunsHang.Add(int64(tx.Hang))

	return &JobResult{
		ID:        id,
		Cycles:    rep.GoldenCycles,
		Completed: true,
		Verified:  timing,
		Batched:   lanes > 1,
		Lanes:     lanes,
		Campaign: &CampaignSummary{
			Runs:         tx.Runs,
			Masked:       tx.Masked,
			Detected:     tx.Detected,
			SDC:          tx.SDC,
			Hang:         tx.Hang,
			Injected:     tx.Injected,
			GoldenCycles: rep.GoldenCycles,
			Timing:       timing,
		},
	}, nil
}
