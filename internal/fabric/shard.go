// Sharded parallel stepping: the compute phase of each cycle is
// partitioned across K workers, the commit phase stays serial and
// globally ordered. Results are bit-identical to the serial steppers.
//
// Why this is sound (the determinism argument, also in DESIGN.md):
//
//   - Within a cycle every element observes only channel state committed
//     at the end of the previous cycle. During the compute phase a
//     channel's committed fields (queue, in-flight ring, lengths) are
//     read-only — they are mutated exclusively by Tick, which runs in
//     the serial commit phase. The staged fields are single-writer: the
//     staged send buffer is written only by the channel's one sender and
//     the staged dequeue flag only by its one receiver, and an element
//     belongs to exactly one shard. So concurrent Steps of different
//     elements touch disjoint memory, whatever the shard assignment.
//   - Everything a shard learns during compute (which channels need
//     activating, which sinks completed, who fell asleep) is either
//     written to element-indexed slots its shard owns, or staged in the
//     shard's private slot and merged serially after the barrier.
//   - The merge and commit phases run on one goroutine in a fixed global
//     order, and every per-channel commit effect (including fault-hook
//     PRNG draws, which are per-site) is independent of every other, so
//     no cross-shard ordering can leak into results.
//   - Fault injection: Frozen is a pure read of per-element state that
//     BeginCycle precomputes serially before the workers start, and the
//     barrier orders those writes before the reads.
//
// The differential tests in package workloads assert bit-identicality
// against both serial steppers for every kernel, under fault plans and
// across snapshot/restore.

package fabric

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// shardSlot is one worker's private compute-phase scratch. Slots are
// padded so two workers never share a cache line.
type shardSlot struct {
	id      int
	worked  bool
	pending []int // channels to activate, merged serially post-barrier
	sinks   int   // sinks newly completed this cycle
	_       [64]byte
}

// computeShard runs the compute phase for the elements this slot owns
// (element i belongs to shard i mod k — interleaved, so construction
// order cannot cluster all the busy elements onto one worker). It is
// the parallel twin of runEvent's element loop.
func (f *Fabric) computeShard(st *runState, s *shardSlot, k int, cur int64, mayFreeze bool) {
	elems, prep, inj := f.elems, &f.prep, f.inj
	s.worked = false
	s.pending = s.pending[:0]
	s.sinks = 0
	for i := s.id; i < len(elems); i += k {
		if !st.awake[i] {
			continue
		}
		if mayFreeze && inj.Frozen(elems[i]) {
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
			s.worked = true
			for _, ci := range prep.elemCh[i] {
				// st.active is stable during compute (only the serial
				// merge phase sets it), so this is a racefree read; the
				// merge dedups, so stale false just means a duplicate
				// pending entry.
				if !st.active[ci] {
					s.pending = append(s.pending, ci)
				}
			}
			if snk := prep.sinkOf[i]; snk != nil && !st.sinkDone[i] && snk.Completed() {
				st.sinkDone[i] = true
				s.sinks++
			}
		} else if h := prep.hints[i]; h == nil || !h.NeedsStep() {
			st.awake[i] = false
			st.asleepSince[i] = cur
		}
	}
}

// runSharded is the parallel stepper: per cycle, a serial prologue
// (cancel poll, fault-plan BeginCycle), a parallel compute phase across
// k shards, a barrier, a serial merge of the shards' staged channel
// activations, then the same serial commit phase and epilogue as the
// event-driven stepper.
func (f *Fabric) runSharded(ctx context.Context, maxCycles int64, k int) (Result, error) {
	st := f.initRunState()
	if cap(st.slots) < k {
		st.slots = make([]shardSlot, k)
	}
	st.slots = st.slots[:k]
	for w := range st.slots {
		st.slots[w].id = w
	}

	// Persistent workers for shards 1..k-1; the coordinator runs shard 0
	// between dispatch and collection so it is never idle at the barrier.
	start := make([]chan int64, k-1)
	done := make(chan struct{}, k-1)
	var wg sync.WaitGroup
	for w := 1; w < k; w++ {
		ch := make(chan int64, 1)
		start[w-1] = ch
		wg.Add(1)
		go func(s *shardSlot) {
			defer wg.Done()
			for cur := range ch {
				// st.mayFreeze is written in the serial prologue before
				// the cycle is dispatched; the channel send orders it.
				f.computeShard(st, s, k, cur, st.mayFreeze)
				done <- struct{}{}
			}
		}(&st.slots[w])
	}
	defer func() {
		for _, ch := range start {
			close(ch)
		}
		wg.Wait()
	}()

	cc := f.newCancelCheck(ctx)
	for n := int64(0); n < maxCycles; n++ {
		if err := cc.expired(); err != nil {
			f.backfillSleepers(st)
			if f.ckptFn != nil {
				err = errors.Join(err, f.ckptFn(f.cycle))
			}
			return Result{Cycles: f.cycle}, fmt.Errorf("cycle %d: %w", f.cycle, err)
		}
		cur := f.cycle
		st.mayFreeze = false
		if f.inj != nil {
			f.inj.BeginCycle(cur)
			st.mayFreeze = f.inj.Active()
		}

		for _, ch := range start {
			ch <- cur
		}
		f.computeShard(st, &st.slots[0], k, cur, st.mayFreeze)
		for range start {
			<-done
		}

		// Merge: activate staged channels (dedup via st.active — two
		// shards may stage the same channel) and retire completed sinks,
		// in shard order so the pass itself is deterministic.
		worked := false
		for w := range st.slots {
			s := &st.slots[w]
			if s.worked {
				worked = true
			}
			for _, ci := range s.pending {
				// The Quiet check (safe here, post-barrier: no worker is
				// staging) drops channels a worked element did not touch
				// this cycle, matching runEvent's activation filter.
				if !st.active[ci] && !f.chans[ci].Quiet() {
					st.active[ci] = true
					st.activeList = append(st.activeList, ci)
				}
			}
			st.sinksLeft -= s.sinks
		}

		f.commitChannels(st, cur)

		if done, res, err := f.epilogue(st, worked); done {
			return res, err
		}
	}
	f.backfillSleepers(st)
	return Result{Cycles: f.cycle}, fmt.Errorf("after %d cycles: %w", f.cycle, ErrTimeout)
}
