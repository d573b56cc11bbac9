package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"tia/internal/core"
	"tia/internal/service"
	"tia/internal/workloads"
)

// One seed must yield a byte-identical request stream, and another seed
// a different one.
func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, wl := range []string{"suite-cold", "service-mix", "campaign"} {
		t.Run(wl, func(t *testing.T) {
			a, err := newStream(wl, 7)
			if err != nil {
				t.Fatal(err)
			}
			b, _ := newStream(wl, 7)
			c, _ := newStream(wl, 8)
			differs := false
			for i := 0; i < 200; i++ {
				ra, rb, rc := a.take(), b.take(), c.take()
				if ra.idx != i || !bytes.Equal(ra.body, rb.body) || ra.key != rb.key || ra.kind != rb.kind {
					t.Fatalf("request %d differs between two streams of seed 7:\n%s\n%s", i, ra.body, rb.body)
				}
				differs = differs || !bytes.Equal(ra.body, rc.body)
			}
			if !differs {
				t.Fatal("seeds 7 and 8 gave the same 200 requests")
			}
		})
	}
}

func TestDriftGate(t *testing.T) {
	rows, err := core.RunSuite(workloads.Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	summary, err := checkDrift(rows, committedE1)
	if err != nil {
		t.Fatalf("drift gate fails on the committed cycle counts: %v", err)
	}
	if !strings.Contains(summary, "paper 2.0X") {
		t.Errorf("summary lacks the paper's figure: %s", summary)
	}
	perturbed := map[string]int64{}
	for k, v := range committedE1 {
		perturbed[k] = v
	}
	perturbed["mergesort"]++
	if _, err := checkDrift(rows, perturbed); err == nil || !strings.Contains(err.Error(), "behaviour drift") {
		t.Fatalf("perturbed mergesort count: err = %v, want behaviour drift", err)
	}
}

// A traced run must not change any result: both runs digest the same
// prefix of the same stream.
func TestTracedAndUntracedDigestsMatch(t *testing.T) {
	for _, wl := range []workload{
		{name: "suite-cold", clients: 2, warmup: 24},
		{name: "service-mix", clients: 2, viaFleet: true, warmup: 200},
		{name: "campaign", clients: 1, warmup: 4},
	} {
		t.Run(wl.name, func(t *testing.T) {
			cfg := runConfig{wl: wl, seed: 3, window: 200 * time.Millisecond, setups: 1}
			plain, err := run(cfg, false)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := run(cfg, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, rep := range []*report{plain, traced} {
				if _, failed, first := rep.failures(); failed > 0 {
					t.Fatalf("traced=%t: %d failures, first: %s", rep.traced, failed, first)
				}
			}
			if plain.digest != traced.digest {
				t.Fatalf("result digest %s untraced, %s traced", plain.digest, traced.digest)
			}
			if len(traced.layers) == 0 || len(traced.http.handlerMs) == 0 {
				t.Fatal("traced run recorded no spans")
			}
		})
	}
}

// A timing campaign answered with a latency-insensitivity verdict is
// accepted only when the direct replay reaches the same verdict. Plan
// seed 694305949282 on sha256 is a campaign whose run 60 changes the
// output under timing faults.
func TestTimingVerdictMustMatchReplay(t *testing.T) {
	body, err := json.Marshal(&service.JobRequest{Workload: "sha256", Faults: campaignRequest(true, 694305949282)})
	if err != nil {
		t.Fatal(err)
	}
	r := request{kind: kindCampaign, timing: true, key: "sha256-timing", body: body}
	ref, err := newReplayer(nil).run(r, 8)
	if err != nil {
		t.Fatal(err)
	}
	if ref.violation == "" {
		t.Skip("the campaign no longer breaks latency-insensitivity; pick another to test the check")
	}
	wire, _ := json.Marshal(map[string]*service.JobError{"error": {Kind: service.ErrVerify, Message: ref.violation}})
	if msg, ok := violationVerdict(wire); !ok || msg != ref.violation {
		t.Fatalf("verdict %q, %t from the service's error body", msg, ok)
	}
	for _, tc := range []struct {
		verdict string
		ok      bool
	}{{ref.violation, true}, {ref.violation + " ", false}, {"", false}} {
		rep := &report{}
		all := []outcome{{req: r, lanes: 8, violation: tc.verdict}}
		rep.check(newReplayer(nil), all, 0, 0)
		if got := all[0].err == ""; got != tc.ok {
			t.Errorf("verdict %q: accepted %t, want %t (%s)", tc.verdict, got, tc.ok, all[0].err)
		}
	}
}
