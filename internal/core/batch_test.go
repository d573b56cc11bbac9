package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tia/internal/fabric"
	"tia/internal/faults"
	"tia/internal/workloads"
)

// TestBatchedCampaignDifferential is the batched-execution contract:
// for every kernel, a batched data campaign and a batched timing
// campaign must produce reports bit-identical to the serial runners —
// the same per-run records (outcome, cycles, injected counts, detail
// strings), the same taxonomy, the same golden anchor — whatever the
// number of workers: GOMAXPROCS 1 runs one worker on the caller's
// goroutine, 2 and 4 split the runs across goroutines that share one
// run counter. A zero-run campaign must return the serial runner's
// empty report. Run under -race in `make batch-smoke` this also shakes
// out any accidental sharing between workers.
func TestBatchedCampaignDifferential(t *testing.T) {
	ctx := context.Background()
	for _, spec := range workloads.All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			p := workloads.Params{Seed: 11, Size: 8}
			data := faults.Plan{Seed: 9100, FlipRate: 0.01, DropRate: 0.005, DupRate: 0.005}
			timing := DefaultTimingPlan(9200)
			const runs, lanes = 12, 5 // more runs than lanes: every instance is reused

			serial, err := RunDataCampaign(ctx, spec, p, data, runs)
			if err != nil {
				t.Fatalf("serial data campaign: %v", err)
			}
			serialT, err := RunTimingCampaign(ctx, spec, p, timing, 6, false)
			if err != nil {
				t.Fatalf("serial timing campaign: %v", err)
			}
			// An empty campaign is the serial runner's empty report.
			serial0, err := RunDataCampaign(ctx, spec, p, data, 0)
			if err != nil {
				t.Fatalf("serial empty data campaign: %v", err)
			}
			serialT0, err := RunTimingCampaign(ctx, spec, p, timing, 0, false)
			if err != nil {
				t.Fatalf("serial empty timing campaign: %v", err)
			}
			for _, procs := range []int{1, 2, 4} {
				withGOMAXPROCS(procs, func() {
					batched0, err := RunDataCampaignBatch(ctx, spec, p, data, 0, lanes)
					if err != nil {
						t.Fatalf("GOMAXPROCS=%d: batched empty data campaign: %v", procs, err)
					}
					if !reflect.DeepEqual(serial0, batched0) {
						t.Errorf("GOMAXPROCS=%d: empty data campaign reports diverge:\nserial:  %+v\nbatched: %+v", procs, serial0, batched0)
					}
					batchedT0, err := RunTimingCampaignBatch(ctx, spec, p, timing, 0, 3, false)
					if err != nil {
						t.Fatalf("GOMAXPROCS=%d: batched empty timing campaign: %v", procs, err)
					}
					if !reflect.DeepEqual(serialT0, batchedT0) {
						t.Errorf("GOMAXPROCS=%d: empty timing campaign reports diverge:\nserial:  %+v\nbatched: %+v", procs, serialT0, batchedT0)
					}
					batched, err := RunDataCampaignBatch(ctx, spec, p, data, runs, lanes)
					if err != nil {
						t.Fatalf("GOMAXPROCS=%d: batched data campaign: %v", procs, err)
					}
					if !reflect.DeepEqual(serial, batched) {
						t.Errorf("GOMAXPROCS=%d: data campaign reports diverge:\nserial:  %+v\nbatched: %+v", procs, serial, batched)
					}
					batchedT, err := RunTimingCampaignBatch(ctx, spec, p, timing, 6, 3, false)
					if err != nil {
						t.Fatalf("GOMAXPROCS=%d: batched timing campaign: %v", procs, err)
					}
					if !reflect.DeepEqual(serialT, batchedT) {
						t.Errorf("GOMAXPROCS=%d: timing campaign reports diverge:\nserial:  %+v\nbatched: %+v", procs, serialT, batchedT)
					}
				})
			}
		})
	}
}

// withGOMAXPROCS runs fn with GOMAXPROCS set to procs, which fixes the
// number of workers a batched campaign splits into.
func withGOMAXPROCS(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

// TestBatchedCampaignSmoke pins the batched taxonomy to the exact
// counts of TestFaultCampaignSmoke: same kernel, same plan, same seeds,
// executed on up to 4 instances. Identical pins, not merely self-consistent —
// the batched path must reproduce the serial numbers.
func TestBatchedCampaignSmoke(t *testing.T) {
	ctx := context.Background()
	spec, err := workloads.ByName("mergesort")
	if err != nil {
		t.Fatal(err)
	}
	p := workloads.Params{Seed: 11, Size: 12}
	plan := faults.Plan{Seed: 4242, FlipRate: 0.02, DropRate: 0.01}
	rep, err := RunDataCampaignBatch(ctx, spec, p, plan, 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := Taxonomy{Runs: 12, Masked: 7, Detected: 3, SDC: 1, Hang: 1, Injected: 9}
	if !reflect.DeepEqual(rep.Taxonomy, want) {
		t.Fatalf("taxonomy = %+v, want %+v", rep.Taxonomy, want)
	}
}

// A batched timing campaign over a violating plan must report the same
// lowest-seed violation error the serial runner aborts with, even
// though the workers finish runs out of order.
func TestBatchedTimingViolationMatchesSerial(t *testing.T) {
	ctx := context.Background()
	spec, err := workloads.ByName("mergesort")
	if err != nil {
		t.Fatal(err)
	}
	p := workloads.Params{Seed: 11, Size: 8}
	// A data plan disguised as... no: timing plans cannot violate by
	// construction on healthy kernels, so force a violation by rejecting
	// the plan shape instead: both runners must agree on the error.
	bad := DefaultTimingPlan(1)
	bad.FlipRate = 0.1
	_, serialErr := RunTimingCampaign(ctx, spec, p, bad, 2, false)
	_, batchErr := RunTimingCampaignBatch(ctx, spec, p, bad, 2, 2, false)
	if serialErr == nil || batchErr == nil {
		t.Fatalf("data-fault plan accepted: serial=%v batch=%v", serialErr, batchErr)
	}
	if serialErr.Error() != batchErr.Error() {
		t.Fatalf("errors diverge: serial=%q batch=%q", serialErr, batchErr)
	}
}

// TestBatchedTimingKnownViolation pins the one known latency-
// insensitivity violation (sha256 at default size, plan seed
// 694305949282, broken at run seed 694305949342) across runners: the
// parallel workers finish runs in any order, yet they must report
// the byte-identical lowest-run error the serial runner aborts with.
func TestBatchedTimingKnownViolation(t *testing.T) {
	ctx := context.Background()
	spec, err := workloads.ByName("sha256")
	if err != nil {
		t.Fatal(err)
	}
	plan := DefaultTimingPlan(694305949282)
	_, serialErr := RunTimingCampaign(ctx, spec, workloads.Params{}, plan, 64, false)
	if serialErr == nil || !strings.Contains(serialErr.Error(), "(seed 694305949342)") {
		t.Fatalf("serial runner: %v, want the violation at seed 694305949342", serialErr)
	}
	withGOMAXPROCS(4, func() {
		_, batchErr := RunTimingCampaignBatch(ctx, spec, workloads.Params{}, plan, 64, 8, false)
		if batchErr == nil || batchErr.Error() != serialErr.Error() {
			t.Fatalf("errors diverge:\nserial:   %v\nparallel: %v", serialErr, batchErr)
		}
	})
}

// TestBatchedCampaignCancelled cancels a campaign while its runs are in
// flight. The parallel runner must return the serial runner's
// cancellation error — the same error chain and message, up to the
// cycle at which the run noticed — and must not leave any worker
// goroutine behind.
func TestBatchedCampaignCancelled(t *testing.T) {
	spec, err := workloads.ByName("sha256")
	if err != nil {
		t.Fatal(err)
	}
	plan := DefaultDataPlan(31)
	serialErr := func() error {
		ctx := newCancelAfterGolden()
		defer ctx.cancel()
		_, err := RunDataCampaign(ctx, spec, workloads.Params{}, plan, 64)
		return err
	}()
	withGOMAXPROCS(4, func() {
		before := runtime.NumGoroutine()
		ctx := newCancelAfterGolden()
		defer ctx.cancel()
		_, batchErr := RunDataCampaignBatch(ctx, spec, workloads.Params{}, plan, 64, 8)
		for _, err := range []error{serialErr, batchErr} {
			if !errors.Is(err, fabric.ErrCancelled) || !errors.Is(err, context.Canceled) || strings.Contains(err.Error(), "golden") {
				t.Fatalf("campaign error %v, want a cancellation of a faulty run", err)
			}
		}
		if got, want := stripCycle(batchErr), stripCycle(serialErr); got != want {
			t.Errorf("cancellation errors diverge:\nserial:   %v\nparallel: %v", serialErr, batchErr)
		}
		// A goroutine that has signalled the campaign's WaitGroup may take
		// a moment to exit; anything still around after that leaked.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				t.Fatalf("lane-group goroutines leaked: %d goroutines, %d before the campaign", runtime.NumGoroutine(), before)
			}
			time.Sleep(time.Millisecond)
		}
	})
}

// cancelAfterGolden is a context that cancels itself shortly after its
// second Done poll. A campaign's golden run is its first simulation and
// polls Done exactly once, so the second poll comes from whatever the
// runner starts next, and the cancellation lands while faulty runs are
// being built or stepped, whichever runner it is.
type cancelAfterGolden struct {
	context.Context
	cancel context.CancelFunc
	polls  atomic.Int32
}

func newCancelAfterGolden() *cancelAfterGolden {
	ctx, cancel := context.WithCancel(context.Background())
	return &cancelAfterGolden{Context: ctx, cancel: cancel}
}

func (c *cancelAfterGolden) Done() <-chan struct{} {
	if c.polls.Add(1) == 2 {
		time.AfterFunc(2*time.Millisecond, c.cancel)
	}
	return c.Context.Done()
}

// stripCycle drops the "cycle N: " prefix with which the fabric reports
// where a cancelled run stopped.
func stripCycle(err error) string {
	msg := err.Error()
	if _, rest, ok := strings.Cut(msg, ": "); ok && strings.HasPrefix(msg, "cycle ") {
		return rest
	}
	return msg
}
