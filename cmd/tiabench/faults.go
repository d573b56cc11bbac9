package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"tia/internal/core"
	"tia/internal/workloads"
)

// campaignLanes caps how many instances a campaign runs at once: the
// cap the service's campaign jobs use. It bounds memory, never results.
const campaignLanes = 8

// campaignRow is one kernel's finished campaign pair, exactly the fields
// the printed table needs — persisting it makes the row replayable
// without re-simulating.
type campaignRow struct {
	TimingMasked   int   `json:"timing_masked"`
	TimingRuns     int   `json:"timing_runs"`
	TimingInjected int64 `json:"timing_injected"`
	Masked         int   `json:"masked"`
	Detected       int   `json:"detected"`
	SDC            int   `json:"sdc"`
	Hang           int   `json:"hang"`
	Injected       int64 `json:"injected"`
	GoldenCycles   int64 `json:"golden_cycles"`
}

// campaignState is the -state progress file for resumable sweeps: the
// parameters every row depends on, plus the rows finished so far. It is
// rewritten atomically after each kernel, so an interrupted sweep
// (timeout, ^C, crash) loses at most the kernel it was running.
type campaignState struct {
	Runs    int                    `json:"runs"`
	Seed    int64                  `json:"seed"`
	Size    int                    `json:"size"`
	Input   int64                  `json:"input_seed"`
	Kernels map[string]campaignRow `json:"kernels"`
}

// loadCampaignState reads a progress file; a missing file is an empty
// state, a parameter mismatch is an error (the rows would be wrong).
func loadCampaignState(path string, p workloads.Params, runs int, seed int64) (*campaignState, error) {
	st := &campaignState{Runs: runs, Seed: seed, Size: p.Size, Input: p.Seed, Kernels: map[string]campaignRow{}}
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return st, nil
	}
	if err != nil {
		return nil, fmt.Errorf("state: %w", err)
	}
	var prev campaignState
	if err := json.Unmarshal(raw, &prev); err != nil {
		return nil, fmt.Errorf("state %s: %w", path, err)
	}
	if prev.Runs != runs || prev.Seed != seed || prev.Size != p.Size || prev.Input != p.Seed {
		return nil, fmt.Errorf("state %s was recorded with -fault-runs %d -fault-seed %d -size %d -seed %d; rerun with those flags or delete it",
			path, prev.Runs, prev.Seed, prev.Size, prev.Input)
	}
	if prev.Kernels != nil {
		st.Kernels = prev.Kernels
	}
	return st, nil
}

// save writes the state atomically (temp + rename).
func (st *campaignState) save(path string) error {
	raw, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// runFaultCampaigns drives the resilience campaigns (-faults): per
// kernel, a timing campaign that must mask every run (the paper's
// latency-insensitivity property under jitter, stalls and freezes) and a
// data campaign whose runs are classified into the masked / detected /
// SDC / hang taxonomy. Everything derives from the seed, so a printed
// table is exactly reproducible.
//
// With -state FILE, each finished kernel's row is persisted and an
// interrupted sweep resumes where it stopped: recorded kernels print
// from the state file without re-simulating.
//
// Each campaign runs on up to campaignLanes reused instances at once
// (core's batched runners): every row is bit-identical to serial, so
// instance reuse never changes what a state file records.
func runFaultCampaigns(ctx context.Context, out io.Writer, p workloads.Params, runs int, seed int64, statePath string) error {
	if runs < 1 {
		return fmt.Errorf("-fault-runs %d: want at least 1 run per campaign", runs)
	}
	var st *campaignState
	if statePath != "" {
		var err error
		if st, err = loadCampaignState(statePath, p, runs, seed); err != nil {
			return err
		}
	}

	fmt.Fprintf(out, "Fault campaigns: %d timing + %d data runs per kernel, seed %d\n", runs, runs, seed)
	fmt.Fprintln(out, "timing faults (latency jitter, channel stalls, element freezes) must leave results byte-identical;")
	fmt.Fprintln(out, "data faults (bit flips, drops, dups) are classified against the fault-free golden run")
	fmt.Fprintln(out)

	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "kernel\ttiming\tt-inj\tmasked\tdetected\tsdc\thang\td-inj\tgolden cycles")
	for _, spec := range workloads.All() {
		row, done := campaignRow{}, false
		if st != nil {
			row, done = st.Kernels[spec.Name]
		}
		if !done {
			trep, err := core.RunTimingCampaignBatch(ctx, spec, p, core.DefaultTimingPlan(seed), runs, campaignLanes, false)
			if err != nil {
				return err
			}
			drep, err := core.RunDataCampaignBatch(ctx, spec, p, core.DefaultDataPlan(seed), runs, campaignLanes)
			if err != nil {
				return err
			}
			tx := drep.Taxonomy
			row = campaignRow{
				TimingMasked: trep.Taxonomy.Masked, TimingRuns: trep.Taxonomy.Runs,
				TimingInjected: trep.Taxonomy.Injected,
				Masked:         tx.Masked, Detected: tx.Detected, SDC: tx.SDC, Hang: tx.Hang,
				Injected: tx.Injected, GoldenCycles: drep.GoldenCycles,
			}
			if st != nil {
				st.Kernels[spec.Name] = row
				if err := st.save(statePath); err != nil {
					return fmt.Errorf("state: %w", err)
				}
			}
		}
		fmt.Fprintf(tw, "%s\tok %d/%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			spec.Name, row.TimingMasked, row.TimingRuns, row.TimingInjected,
			row.Masked, row.Detected, row.SDC, row.Hang, row.Injected, row.GoldenCycles)
	}
	return tw.Flush()
}
