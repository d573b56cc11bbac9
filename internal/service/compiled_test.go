package service_test

// Tests for Config.DefaultCompiled: compiled stepping is a stepping
// choice, not a modeled parameter, so a server that compiles every job
// answers byte-for-byte what an interpreting server answers, under the
// same result keys; and compiled plans are content-addressed by
// assembled-form fingerprint, so cosmetically different netlist sources
// that assemble identically share one plan.

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"tia/internal/compile"
	"tia/internal/service"
)

func normalizeResult(t *testing.T, r *service.JobResult) []byte {
	t.Helper()
	c := *r
	c.ID = ""
	c.Cached = false
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	return b
}

// compiledConfig is testConfig with every job stepped by the compiled
// backend.
func compiledConfig() service.Config {
	cfg := testConfig()
	cfg.DefaultCompiled = true
	return cfg
}

// TestCompiledServerMatchesInterpreted runs the same workload on an
// interpreting server and on a compiling one: the compiled run must
// really simulate and consult the plan cache, key the result cache
// exactly as the interpreted run does (DefaultCompiled is excluded from
// the result key), and reproduce the interpreted result byte-for-byte.
func TestCompiledServerMatchesInterpreted(t *testing.T) {
	interpSvc := newServer(t, testConfig())
	defer interpSvc.Drain()
	compiledSvc := newServer(t, compiledConfig())
	defer compiledSvc.Drain()
	ctx := context.Background()

	interp, err := interpSvc.Submit(ctx, &service.JobRequest{Workload: "mergesort", Size: 12})
	if err != nil {
		t.Fatal(err)
	}
	c0 := compile.Counters()
	compiled, err := compiledSvc.Submit(ctx, &service.JobRequest{Workload: "mergesort", Size: 12})
	if err != nil {
		t.Fatal(err)
	}
	if c1 := compile.Counters(); c1.Hits+c1.Misses == c0.Hits+c0.Misses {
		t.Fatalf("compiled workload job never consulted the plan cache (%+v -> %+v)", c0, c1)
	}
	if compiled.Cached {
		t.Error("first submission to the compiled server reported a cache hit")
	}
	if interp.Key != compiled.Key {
		t.Errorf("result keys differ: interpreted %s, compiled %s", interp.Key, compiled.Key)
	}
	if !bytes.Equal(normalizeResult(t, interp), normalizeResult(t, compiled)) {
		t.Errorf("compiled simulation diverges from the interpreted result:\n%s\n%s",
			normalizeResult(t, interp), normalizeResult(t, compiled))
	}
}

// TestCompiledPlanSharedAcrossCosmeticSources pins the compiled-plan
// cache to the assembled form: two netlist sources that differ only in
// comments, whitespace and declaration order produce equal fingerprints,
// so the second compiled job reuses the first job's plan — cache hits
// grow, misses do not. The compiled netlist run must also byte-equal the
// interpreted one.
func TestCompiledPlanSharedAcrossCosmeticSources(t *testing.T) {
	interpSvc := newServer(t, testConfig())
	defer interpSvc.Drain()
	svc := newServer(t, compiledConfig())
	defer svc.Drain()
	ctx := context.Background()

	interp, err := interpSvc.Submit(ctx, &service.JobRequest{Netlist: mergeNetlist})
	if err != nil {
		t.Fatal(err)
	}

	c0 := compile.Counters()
	first, err := svc.Submit(ctx, &service.JobRequest{Netlist: mergeNetlist, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	c1 := compile.Counters()
	// The plan may already be cached from an earlier test in this
	// process (the cache is content-addressed and process-wide — that is
	// the point), so assert engagement (a lookup happened), not a miss.
	if c1.Hits+c1.Misses == c0.Hits+c0.Misses {
		t.Fatalf("first compiled netlist job never consulted the plan cache (%+v -> %+v)", c0, c1)
	}

	// The cosmetic respelling has a different source hash (separate
	// cached program, separate PE objects) but an equal assembled-form
	// fingerprint — NoCache forces it past the result cache so it really
	// simulates, and the plan cache must serve it without a new compile.
	second, err := svc.Submit(ctx, &service.JobRequest{Netlist: mergeNetlistCosmetic, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	c2 := compile.Counters()
	if c2.Misses != c1.Misses {
		t.Errorf("cosmetic respelling compiled %d new plans, want 0 (shared by fingerprint)", c2.Misses-c1.Misses)
	}
	if c2.Hits == c1.Hits {
		t.Error("cosmetic respelling did not hit the compiled-plan cache")
	}

	if first.Fingerprint != second.Fingerprint {
		t.Errorf("fingerprints differ across cosmetic edits:\n%s\n%s", first.Fingerprint, second.Fingerprint)
	}
	if !bytes.Equal(normalizeResult(t, interp), normalizeResult(t, first)) {
		t.Errorf("compiled netlist run diverges from the interpreted result:\n%s\n%s",
			normalizeResult(t, interp), normalizeResult(t, first))
	}
	if !bytes.Equal(normalizeResult(t, first), normalizeResult(t, second)) {
		t.Errorf("cosmetic respelling diverges:\n%s\n%s", normalizeResult(t, first), normalizeResult(t, second))
	}
}
