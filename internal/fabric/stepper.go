// Incremental driving of the event-driven stepper: BeginRun hands out a
// Stepper whose Step simulates exactly one cycle, with bit-identical
// results to RunContext on every path (RunContext's serial event stepper
// is itself implemented on top of it). This is the primitive the batched
// campaign runner (internal/batchrun) interleaves across lanes: K fabrics
// advance in lockstep, and a lane that outlives the batch is finished by
// the same Stepper with Finish — eviction changes scheduling, never
// results.

package fabric

import (
	"context"
	"errors"
	"fmt"
)

// Stepper drives one simulation run cycle by cycle. Obtain one from
// Fabric.BeginRun; it is pooled on the Fabric (a fabric has at most one
// run in flight, incremental or not), so steady-state Step loops
// allocate nothing. After Step reports the run finished, Result holds
// the same Result/error RunContext would have returned.
type Stepper struct {
	f          *Fabric
	st         *runState
	cc         cancelCheck
	budget     int64 // cycles this run may simulate (RunContext's maxCycles)
	n          int64 // cycles simulated so far by this Stepper
	idleStreak int
	done       bool
	res        Result
	err        error
}

// BeginRun validates the fabric and readies its pooled Stepper for an
// incremental run of at most maxCycles cycles. The run always uses the
// serial event-driven stepper regardless of the Shards/Dense config —
// incremental callers (the batch runner) supply their own parallelism
// axis, independent lanes. Starting a new run (BeginRun or RunContext) abandons any
// unfinished previous one.
func (f *Fabric) BeginRun(ctx context.Context, maxCycles int64) (*Stepper, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	f.prepare()
	f.refreshCompiled()
	return f.beginEvent(ctx, maxCycles), nil
}

// beginEvent readies the pooled Stepper; the caller has validated and
// prepared the fabric.
func (f *Fabric) beginEvent(ctx context.Context, maxCycles int64) *Stepper {
	s := &f.stepper
	*s = Stepper{f: f, st: f.initRunState(), cc: f.newCancelCheck(ctx), budget: maxCycles}
	return s
}

func (s *Stepper) finish(res Result, err error) bool {
	s.done, s.res, s.err = true, res, err
	return true
}

// Done reports that the run has finished (in any way: completion,
// deadlock, timeout, cancellation, element fault).
func (s *Stepper) Done() bool { return s.done }

// Result returns the finished run's outcome; valid once Done reports
// true, identical to what RunContext would have returned.
func (s *Stepper) Result() (Result, error) { return s.res, s.err }

// Step simulates one cycle and reports whether the run finished. The
// cycle body is runEvent's, verbatim in behavior: cancel poll, fault
// BeginCycle, awake-element walk, channel commit, epilogue (faults,
// completion, checkpoint, quiescence).
func (s *Stepper) Step() bool {
	if s.done {
		return true
	}
	f, st := s.f, s.st
	if s.n >= s.budget {
		f.backfillSleepers(st)
		return s.finish(Result{Cycles: f.cycle}, fmt.Errorf("after %d cycles: %w", f.cycle, ErrTimeout))
	}
	s.n++
	if err := s.cc.expired(); err != nil {
		f.backfillSleepers(st)
		if f.ckptFn != nil {
			err = errors.Join(err, f.ckptFn(f.cycle))
		}
		return s.finish(Result{Cycles: f.cycle}, fmt.Errorf("cycle %d: %w", f.cycle, err))
	}
	cur := f.cycle
	mayFreeze := false
	if f.inj != nil {
		f.inj.BeginCycle(cur)
		// Frozen implies an active freeze window (see FaultInjector), so
		// the per-element Frozen call is skipped whole cycles at a time.
		mayFreeze = f.inj.Active()
	}
	elems, prep := f.elems, &f.prep
	worked := false
	// Indexing awake (1 byte/element) instead of ranging over the
	// interface slice keeps the scan over mostly-sleeping fabrics in
	// one or two cache lines.
	for i := range st.awake {
		if !st.awake[i] {
			continue
		}
		if mayFreeze && f.inj.Frozen(elems[i]) {
			// Frozen: skip the step but stay awake, so stepping
			// resumes the cycle the freeze ends even if no channel
			// changes in between. The cycle is accounted immediately
			// (an asleep frozen element is instead covered by its
			// wake-time backfill, exactly as under dense stepping).
			if sk := prep.skips[i]; sk != nil {
				sk.SkipCycles(1)
			}
			continue
		}
		stepped := false
		if prep.steps != nil {
			stepped = prep.steps[i](cur)
		} else {
			stepped = elems[i].Step(cur)
		}
		if stepped {
			worked = true
			for _, ci := range prep.elemCh[i] {
				// A worked element's untouched channels are still
				// quiet here (staging is the only way to unquiet a
				// channel mid-cycle), and Tick on a quiet channel is
				// a no-op — so only channels with staged effects
				// need to join the tick list.
				if !st.active[ci] && !f.chans[ci].Quiet() {
					st.active[ci] = true
					st.activeList = append(st.activeList, ci)
				}
			}
			if snk := prep.sinkOf[i]; snk != nil && !st.sinkDone[i] && snk.Completed() {
				st.sinkDone[i] = true
				st.sinksLeft--
			}
		} else if h := prep.hints[i]; h == nil || !h.NeedsStep() {
			st.awake[i] = false
			st.asleepSince[i] = cur
		}
	}

	f.commitChannels(st, cur)

	if done, res, err := f.epilogue(st, worked, &s.idleStreak); done {
		return s.finish(res, err)
	}
	return false
}

// Finish runs the remaining cycles to the run's end on the serial
// event-driven stepper and returns its outcome. This is both how
// RunContext finishes a whole run and how the batch runner retires an
// evicted lane.
func (s *Stepper) Finish() (Result, error) {
	for !s.Step() {
	}
	return s.res, s.err
}
