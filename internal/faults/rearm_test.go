package faults

import (
	"context"
	"testing"

	"tia/internal/isa"
)

// rearmPlans are the two campaign plan shapes: timing (windows
// everywhere) and data (no windows, per-token draws only).
var rearmPlans = map[string]Plan{
	"timing": {JitterRate: 0.3, JitterMax: 5, Stalls: 2, StallMax: 9, Freezes: 1, FreezeMax: 7, To: 400},
	"data":   {FlipRate: 0.1, DropRate: 0.05, DupRate: 0.05},
}

// TestRearmMatchesAttach is the Rearm determinism contract: a reused
// fabric armed with Reset+Rearm for each seed must produce byte-identical
// tokens, cycle counts and injection counts to a fresh fabric with a
// fresh Attach of the same plan, for every seed in the sweep.
func TestRearmMatchesAttach(t *testing.T) {
	words := []isa.Word{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8}
	for name, base := range rearmPlans {
		t.Run(name, func(t *testing.T) {
			reused, snk := buildLine(words, true, 0, 4)
			var inj *Injector
			for seed := int64(100); seed < 116; seed++ {
				plan := base
				plan.Seed = seed

				fresh, freshSnk := buildLine(words, true, 0, 4)
				freshInj, err := Attach(fresh, plan)
				if err != nil {
					t.Fatalf("seed %d: Attach fresh: %v", seed, err)
				}
				wantRes, wantErr := fresh.Run(10_000)
				wantCnt := freshInj.Counts()

				reused.Reset()
				if inj == nil {
					if inj, err = Attach(reused, plan); err != nil {
						t.Fatalf("seed %d: Attach reused: %v", seed, err)
					}
				} else if err := inj.Rearm(plan); err != nil {
					t.Fatalf("seed %d: Rearm: %v", seed, err)
				}
				gotRes, gotErr := reused.Run(10_000)

				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("seed %d: err %v, want %v", seed, gotErr, wantErr)
				}
				if gotErr != nil && gotErr.Error() != wantErr.Error() {
					t.Fatalf("seed %d: err %q, want %q", seed, gotErr, wantErr)
				}
				if gotRes != wantRes {
					t.Errorf("seed %d: result %+v, want %+v", seed, gotRes, wantRes)
				}
				if got, want := snk.Tokens(), freshSnk.Tokens(); !tokensEqual(got, want) {
					t.Errorf("seed %d: tokens %v, want %v", seed, got, want)
				}
				if got := inj.Counts(); got != wantCnt {
					t.Errorf("seed %d: counts %+v, want %+v", seed, got, wantCnt)
				}
			}
		})
	}
}

// TestRearmRejectsShapeChanges pins the site-population guard: changing
// the Sites filter or toggling freezes requires a fresh Attach.
func TestRearmRejectsShapeChanges(t *testing.T) {
	f, _ := buildLine([]isa.Word{1, 2, 3}, true, 0, 4)
	inj, err := Attach(f, Plan{Seed: 1, FlipRate: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if err := inj.Rearm(Plan{Seed: 2, FlipRate: 0.1, Sites: "snk"}); err == nil {
		t.Error("Rearm accepted a Sites change")
	}
	if err := inj.Rearm(Plan{Seed: 2, Freezes: 1, FreezeMax: 3, To: 100}); err == nil {
		t.Error("Rearm accepted a freeze toggle")
	}
	if err := inj.Rearm(Plan{Seed: 2, FlipRate: 2}); err == nil {
		t.Error("Rearm accepted an invalid plan")
	}
	if err := inj.Rearm(Plan{Seed: 2, DropRate: 0.5}); err != nil {
		t.Errorf("Rearm rejected a rate-only change: %v", err)
	}
}

// TestRearmRunAllocationFree gates the per-run body of a campaign
// worker (internal/core batch.go): once the instance has run a
// campaign (buffers grown, injector attached), an entire further
// campaign — Reset, Rearm and RunContext for every run — performs zero
// heap allocations. Instance reuse adds no per-cycle or per-run garbage.
func TestRearmRunAllocationFree(t *testing.T) {
	const runs, budget = 9, 10_000
	// Jitter and flips only: every run completes. Drops would deadlock
	// some runs, whose end-of-run diagnosis legitimately builds an error
	// string (a fresh instance pays the same); the gate is on the step path.
	gatePlan := func(run int) Plan {
		return Plan{Seed: 7000 + int64(run), JitterRate: 0.4, JitterMax: 5, FlipRate: 0.1}
	}
	f, _ := buildLine([]isa.Word{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3}, true, 0, 4)
	var inj *Injector
	campaign := func() {
		for run := 0; run < runs; run++ {
			if inj == nil {
				var err error
				if inj, err = Attach(f, gatePlan(run)); err != nil {
					t.Fatal(err)
				}
			} else {
				f.Reset()
				if err := inj.Rearm(gatePlan(run)); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := f.RunContext(context.Background(), budget); err != nil {
				t.Fatalf("run %d: %v", run, err)
			}
		}
	}
	campaign() // warm: attach the injector, grow buffers to steady state
	avg := testing.AllocsPerRun(5, campaign)
	if avg != 0 {
		t.Errorf("steady-state batched campaign: %.1f allocs/run, want 0", avg)
	}
}
