package main

import (
	"bytes"
	"context"
	"regexp"
	"strconv"
	"testing"
)

// TestRunGenerated drives -gen serially, one seed at a time, and as a
// -batch 2 seed sweep: every run completes, and each seed's cycle count
// in the sweep equals its standalone run.
func TestRunGenerated(t *testing.T) {
	const seed, size, seeds = 9, 4, 2
	serialRE := regexp.MustCompile(`(?m)^completed in (\d+) cycles, best of 3`)
	batchRE := regexp.MustCompile(`(?m)^  seed (\d+): completed in (\d+) cycles$`)
	cycles := map[int]map[int64]string{} // lanes -> seed -> cycles
	for _, tc := range []struct {
		name  string
		lanes int
	}{
		{"serial", 0},
		{"batch 2", seeds},
	} {
		got := map[int64]string{}
		if tc.lanes <= 1 {
			for s := int64(seed); s < seed+seeds; s++ {
				var out bytes.Buffer
				if err := runGenerated(context.Background(), &out, s, size, false, tc.lanes); err != nil {
					t.Fatalf("%s seed %d: %v", tc.name, s, err)
				}
				m := serialRE.FindStringSubmatch(out.String())
				if m == nil {
					t.Fatalf("%s seed %d: no cycle count in output:\n%s", tc.name, s, out.String())
				}
				got[s] = m[1]
			}
		} else {
			var out bytes.Buffer
			if err := runGenerated(context.Background(), &out, seed, size, false, tc.lanes); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			for _, m := range batchRE.FindAllStringSubmatch(out.String(), -1) {
				s, err := strconv.ParseInt(m[1], 10, 64)
				if err != nil {
					t.Fatal(err)
				}
				got[s] = m[2]
			}
			if len(got) != seeds {
				t.Fatalf("%s: %d seeds reported, want %d:\n%s", tc.name, len(got), seeds, out.String())
			}
		}
		cycles[tc.lanes] = got
	}
	for s, want := range cycles[0] {
		if got := cycles[seeds][s]; got != want {
			t.Errorf("seed %d: batched sweep ran %s cycles, serial run %s", s, got, want)
		}
	}
}
