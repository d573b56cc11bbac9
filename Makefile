GO ?= go

.PHONY: all build test race vet bench-smoke bench perfbench-test alloc-gate fault-smoke batch-smoke snapshot-smoke compile-smoke fleet-smoke chaos-smoke fuzz-smoke check

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# One iteration of every benchmark: catches bit-rot in bench harnesses
# without paying for a real measurement run.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Full experiment benchmarks (the paper tables come from cmd/tiabench;
# these are the perf-tracking targets).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 2s .

# The repository benchmark (perfbench/, a separate module, so `./...`
# above never reaches it): its harness and drift-gate tests.
perfbench-test:
	cd perfbench && $(GO) test ./...

# Zero-allocation gates on the per-cycle hot paths (fabric step loop —
# interpreted and compiled, dense and event — trigger classification,
# channel reset/restore reuse, a campaign worker's Reset+Rearm+run
# body): any regression to >0 allocs/op fails these tests, not just a
# benchmark number. One-time compilation cost is gated separately as a
# bounded constant.
alloc-gate:
	$(GO) test -run 'AllocationFree|AllocationBounded|ReusesCapacity' -count=1 ./internal/fabric ./internal/pe ./internal/channel ./internal/faults

# Seeded fault-campaign smoke: one kernel, fixed seed, exact expected
# masked/detected/sdc/hang taxonomy (see internal/core/resilience_test.go).
fault-smoke:
	$(GO) test -run 'TestFaultCampaignSmoke' -count=1 ./internal/core

# Batched-campaign differential smoke under the race detector: the
# batched runners, one reused instance per parallel worker, must
# produce campaign reports bit-identical to the serial runner for every
# kernel (data + timing plans) at GOMAXPROCS 1, 2 and 4; the known
# timing violation and a mid-run cancellation must return the serial
# runner's errors with no goroutine left behind (see
# internal/core/batch_test.go). The Reset+Rearm reuse contract and its
# allocation gate ride along (see internal/faults/rearm_test.go).
batch-smoke:
	$(GO) test -race -run 'TestRearm' -count=1 ./internal/faults
	$(GO) test -race -run 'TestBatchedCampaign|TestBatchedTiming' -count=1 ./internal/core

# Checkpoint/restore differential smoke under the race detector: two
# kernels on every stepper, run-to-completion vs snapshot-then-restore
# must be byte-identical, including runs that end in deadlock with the
# checkpoint inside the quiescence window (see
# internal/workloads/snapshot_differential_test.go).
snapshot-smoke:
	$(GO) test -race -run 'TestSnapshotRestoreDifferential$$/(dmm|mergesort)/|TestSnapshotRestoreDeadlock' -count=1 ./internal/workloads

# Compiled-stepping differential smoke under the race detector: every
# kernel's compiled arm against the interpreted oracle, the compiled
# snapshot/restore and zero-rate fault-plan differentials, the quick
# random-topology equivalence sweep, and the service-level contracts of
# Config.DefaultCompiled (a compiling server answers byte-for-byte what
# an interpreting one does under the same result keys; cosmetic sources
# share one plan).
compile-smoke:
	$(GO) test -race -run 'TestSchedulerSteppingDifferential/.*/compiled|TestSnapshotRestoreDifferential$$/(dmm|mergesort)/compiled|TestZeroRateFaultPlanDifferential/.*/compiled|TestSchedulerEquivalenceQuick|TestCompiledServerMatchesInterpreted|TestCompiledPlanSharedAcrossCosmeticSources' -count=1 ./internal/workloads ./internal/service

# Loopback multi-process fleet e2e: three real tiad worker processes
# plus a coordinator — cache-affinity routing across resubmission,
# SIGKILL mid-job with snapshot migration to a survivor (byte-identical
# completion), and a 64-seed batch fanned out with exactly-once
# streaming delivery (see internal/fleet/e2e_test.go).
fleet-smoke:
	$(GO) test -race -run 'TestFleetE2E' -count=1 ./internal/fleet

# Deterministic chaos soak under the race detector: the seeded fault
# harness's own replay contracts (internal/chaos) plus the fleet-level
# scenarios — partitions, corrupt snapshots, worker crash-restart —
# where every accepted job reaches exactly one terminal state, results
# match a chaos-free reference byte for byte, and a same-seed rerun
# injects the identical fault log. The breaker, stash, journal and
# goroutine-leak gates ride along (see internal/fleet/chaos_soak_test.go).
chaos-smoke:
	$(GO) test -race -count=1 ./internal/chaos
	$(GO) test -race -run 'TestChaosSoak|TestBreaker|TestStaleHeartbeatSkew|TestRegistryConcurrentProbes|TestStash|TestCoordinatorJournal|TestCoordinatorShutdownGoroutines' -count=1 ./internal/fleet

# Generative differential fuzz smoke: 60 seconds of FuzzSimulate —
# seeded random netlists (plus hostile mutations) assembled, validated
# and run on all four stepping backends to bit-identical results, with a
# mid-run snapshot/restore arm and a Reset-and-rerun arm (see
# internal/gen). The committed corpus
# also replays as an ordinary test in `make test`.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzSimulate' -fuzztime 60s ./internal/gen

# The -race smokes above (batch, snapshot, compile, fleet, chaos) are
# subsets of `make race` and stay out of check; run them for a focused
# local loop.
check: vet race bench-smoke perfbench-test alloc-gate fault-smoke fuzz-smoke
