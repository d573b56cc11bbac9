package workloads

// Differential tests for deterministic checkpoint/restore: running a
// kernel to completion must be indistinguishable from snapshotting it at
// an arbitrary mid-run cycle and restoring the snapshot into a freshly
// built instance — identical cycle counts, sink token streams, per-PE
// statistics and fault-injection counters — for every kernel, under
// every stepper (dense, event, sharded parallel, closure-compiled), with and without an
// active fault plan. This is the headline correctness contract of
// internal/snapshot + fabric.Snapshot/Restore; the sharded arm is also
// the race surface `go test -race` exercises (checkpoint callbacks fire
// from the serial epilogue while worker goroutines are parked at the
// cycle barrier).

import (
	"errors"
	"reflect"
	"testing"

	"tia/internal/channel"
	"tia/internal/fabric"
	"tia/internal/faults"
	"tia/internal/pcpe"
	"tia/internal/pe"
)

// snapObservation is everything an external observer can compare between
// an uninterrupted run and a snapshot/restore run.
type snapObservation struct {
	Cycles    int64
	Completed bool
	Err       string
	Tokens    []channel.Token
	PEStats   []pe.Stats
	PCStats   []pcpe.Stats
	Faults    faults.Counts
}

// buildForSnapshot constructs one kernel instance with the requested
// stepper and (optionally) an attached fault plan.
func buildForSnapshot(t *testing.T, spec *Spec, p Params, pc, dense bool, shards int, compiled bool, plan *faults.Plan) (*Instance, *faults.Injector) {
	t.Helper()
	build := spec.BuildTIA
	if pc {
		build = spec.BuildPC
	}
	inst, err := build(p)
	if err != nil {
		t.Fatalf("%s: build: %v", spec.Name, err)
	}
	inst.Fabric.SetDenseStepping(dense)
	inst.Fabric.SetShards(shards)
	inst.Fabric.SetCompiled(compiled)
	var inj *faults.Injector
	if plan != nil {
		if inj, err = faults.Attach(inst.Fabric, *plan); err != nil {
			t.Fatalf("%s: attach: %v", spec.Name, err)
		}
	}
	return inst, inj
}

func snapObserve(inst *Instance, inj *faults.Injector, cycles int64, completed bool, err error) snapObservation {
	obs := snapObservation{Cycles: cycles, Completed: completed, Tokens: inst.Sink.Tokens()}
	if err != nil {
		obs.Err = err.Error()
	}
	for _, pr := range inst.PEs {
		obs.PEStats = append(obs.PEStats, pr.Stats())
	}
	for _, pr := range inst.PCPEs {
		obs.PCStats = append(obs.PCStats, pr.Stats())
	}
	if inj != nil {
		obs.Faults = inj.Counts()
	}
	return obs
}

// runSnapshotDifferential runs the three-way contract for one
// configuration: (A) uninterrupted, (B) checkpointed mid-run but left to
// finish — checkpointing must not perturb anything — and (C) a fresh
// instance restored from B's mid-run snapshot and run to the end. All
// three observations must be deeply equal (including error text for
// fault plans that hang or deadlock the kernel: a restored run must fail
// at the same absolute cycle with the same diagnosis). The checkpoint
// lands halfway through the run.
func runSnapshotDifferential(t *testing.T, spec *Spec, p Params, pc, dense bool, shards int, compiled bool, plan *faults.Plan) {
	t.Helper()
	half := func(end int64) int64 { return end / 2 }
	if err := snapshotDifferentialAt(t, spec, p, pc, dense, shards, compiled, plan, half); plan == nil && err != nil {
		t.Fatalf("%s: fault-free run failed: %v", spec.Name, err)
	}
}

// snapshotDifferentialAt is runSnapshotDifferential with the checkpoint
// cycle chosen by at from the uninterrupted run's final cycle. It
// returns the uninterrupted run's error.
func snapshotDifferentialAt(t *testing.T, spec *Spec, p Params, pc, dense bool, shards int, compiled bool, plan *faults.Plan, at func(end int64) int64) error {
	t.Helper()
	fp := "test:" + spec.Name // stand-in fingerprint; both sides must agree

	a, injA := buildForSnapshot(t, spec, p, pc, dense, shards, compiled, plan)
	resA, errA := a.Fabric.Run(spec.MaxCycles(p))
	obsA := snapObserve(a, injA, resA.Cycles, resA.Completed, errA)

	mid := max(at(resA.Cycles), 1)

	b, injB := buildForSnapshot(t, spec, p, pc, dense, shards, compiled, plan)
	var snap []byte
	b.Fabric.SetCheckpoint(mid, func(cycle int64) error {
		if snap != nil {
			return nil
		}
		s, err := b.Fabric.Snapshot(fp)
		if err != nil {
			return err
		}
		snap = s
		if cycle != mid {
			t.Errorf("first checkpoint at cycle %d, want %d", cycle, mid)
		}
		return nil
	})
	resB, errB := b.Fabric.Run(spec.MaxCycles(p))
	obsB := snapObserve(b, injB, resB.Cycles, resB.Completed, errB)
	if !reflect.DeepEqual(obsA, obsB) {
		t.Errorf("checkpointing perturbed the run:\nuninterrupted %+v\ncheckpointed  %+v", obsA, obsB)
	}
	if snap == nil {
		t.Fatalf("no checkpoint fired (run took %d cycles, checkpoint every %d)", resB.Cycles, mid)
	}

	c, injC := buildForSnapshot(t, spec, p, pc, dense, shards, compiled, plan)
	if err := c.Fabric.Restore(snap, fp); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if got := c.Fabric.Cycle(); got != mid {
		t.Fatalf("restored to cycle %d, want %d", got, mid)
	}
	resC, errC := c.Fabric.Run(spec.MaxCycles(p) - mid)
	obsC := snapObserve(c, injC, resC.Cycles, resC.Completed, errC)
	if !reflect.DeepEqual(obsA, obsC) {
		t.Errorf("restored run diverged:\nuninterrupted %+v\nrestored      %+v", obsA, obsC)
	}

	// A snapshot must refuse to restore onto a different program.
	wrong, _ := buildForSnapshot(t, spec, p, pc, dense, shards, compiled, plan)
	if err := wrong.Fabric.Restore(snap, fp+"-other"); err == nil {
		t.Errorf("restore accepted a mismatched fingerprint")
	}
	return errA
}

// TestSnapshotRestoreDifferential is the headline contract: all kernels,
// every stepper, fault-free and under an active timing fault plan (the
// class that perturbs cycle-level behavior while results must still
// complete byte-identically between the interrupted and uninterrupted
// simulations). The sharded/timing combination doubles as the
// fault-injection-plus-mid-run-snapshot race surface under -race.
func TestSnapshotRestoreDifferential(t *testing.T) {
	timing := &faults.Plan{Seed: 5, JitterRate: 0.2, JitterMax: 3, Stalls: 2, StallMax: 5, Freezes: 1, FreezeMax: 4}
	for _, spec := range All() {
		for _, mode := range stepModes {
			for planLabel, plan := range map[string]*faults.Plan{"nofault": nil, "timing": timing} {
				mode, plan := mode, plan
				t.Run(spec.Name+"/"+mode.label+"/"+planLabel, func(t *testing.T) {
					p := spec.Normalize(Params{Seed: 11, Size: 12})
					runSnapshotDifferential(t, spec, p, false, mode.dense, mode.shards, mode.compiled, plan)
				})
			}
		}
	}
}

// stuckSpec wraps spec so each TIA instance also carries a sink waiting
// for an EOD that an empty source never sends: the kernel finishes its
// real output, the fabric goes idle, and quiescence detection ends the
// run in deadlock.
func stuckSpec(spec *Spec) *Spec {
	s := *spec
	s.BuildTIA = func(p Params) (*Instance, error) {
		inst, err := spec.BuildTIA(p)
		if err != nil {
			return nil, err
		}
		src := fabric.NewSource("stuck-src", nil)
		snk := fabric.NewSink("stuck-sink")
		inst.Fabric.Add(src)
		inst.Fabric.Add(snk)
		inst.Fabric.Wire(src, 0, snk, 0)
		return inst, nil
	}
	return &s
}

// TestSnapshotRestoreDeadlock restores runs that end in deadlock, with
// the checkpoint both halfway through and one cycle before the end,
// inside the quiescence window: the snapshot must carry the idle streak
// so the restored run reports the same deadlock on the same cycle.
func TestSnapshotRestoreDeadlock(t *testing.T) {
	// Kernels whose PEs all go idle once the output is done; others
	// (dmm, aes, …) keep firing and would run into the cycle budget.
	for _, name := range []string{"kmp", "mergesort"} {
		base, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		spec := stuckSpec(base)
		for _, mode := range stepModes {
			for label, at := range map[string]func(int64) int64{
				"half":      func(end int64) int64 { return end / 2 },
				"in-window": func(end int64) int64 { return end - 1 },
			} {
				mode, at := mode, at
				t.Run(name+"/"+mode.label+"/"+label, func(t *testing.T) {
					p := spec.Normalize(Params{Seed: 11, Size: 12})
					err := snapshotDifferentialAt(t, spec, p, false, mode.dense, mode.shards, mode.compiled, nil, at)
					if !errors.Is(err, fabric.ErrDeadlock) {
						t.Fatalf("uninterrupted run ended with %v, want a deadlock", err)
					}
				})
			}
		}
	}
}

// TestSnapshotRestoreDifferentialDataFaults exercises restore under an
// active data fault plan: bit flips, drops and duplicated tokens, where
// the run may detect, hang or silently corrupt — whatever the outcome,
// the restored run must reproduce it exactly, error text included.
func TestSnapshotRestoreDifferentialDataFaults(t *testing.T) {
	data := &faults.Plan{Seed: 17, FlipRate: 0.02, DropRate: 0.01, DupRate: 0.01, JitterRate: 0.1, JitterMax: 2}
	for _, name := range []string{"dmm", "kmp"} {
		spec, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range stepModes {
			mode := mode
			t.Run(name+"/"+mode.label, func(t *testing.T) {
				p := spec.Normalize(Params{Seed: 11, Size: 12})
				runSnapshotDifferential(t, spec, p, false, mode.dense, mode.shards, mode.compiled, data)
			})
		}
	}
}

// TestSnapshotRestorePCBaseline covers the PC-style baseline elements
// (pcpe program counter, branch-penalty pipeline state) on two kernels.
func TestSnapshotRestorePCBaseline(t *testing.T) {
	for _, name := range []string{"dmm", "mergesort"} {
		spec, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range stepModes {
			mode := mode
			t.Run(name+"/"+mode.label, func(t *testing.T) {
				p := spec.Normalize(Params{Seed: 11, Size: 12})
				runSnapshotDifferential(t, spec, p, true, mode.dense, mode.shards, mode.compiled, nil)
			})
		}
	}
}
