package main

import (
	"bytes"
	"context"
	"regexp"
	"testing"
)

// TestRunGenerated drives -gen one seed at a time: every run completes
// and reports its cycle count.
func TestRunGenerated(t *testing.T) {
	const seed, size, seeds = 9, 4, 2
	serialRE := regexp.MustCompile(`(?m)^completed in (\d+) cycles, best of 3`)
	for s := int64(seed); s < seed+seeds; s++ {
		var out bytes.Buffer
		if err := runGenerated(context.Background(), &out, s, size); err != nil {
			t.Fatalf("seed %d: %v", s, err)
		}
		if serialRE.FindStringSubmatch(out.String()) == nil {
			t.Fatalf("seed %d: no cycle count in output:\n%s", s, out.String())
		}
	}
}
