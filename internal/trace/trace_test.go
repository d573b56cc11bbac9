package trace

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"tia/internal/fabric"
	"tia/internal/isa"
	"tia/internal/pe"
)

func mergeFabric(t *testing.T) (*fabric.Fabric, *pe.PE, *fabric.Sink) {
	t.Helper()
	f := fabric.New(fabric.DefaultConfig())
	a := fabric.NewWordSource("a", []isa.Word{1, 3}, true)
	b := fabric.NewWordSource("b", []isa.Word{2, 4}, true)
	m, err := pe.New("merge", isa.DefaultConfig(), pe.MergeProgram())
	if err != nil {
		t.Fatal(err)
	}
	snk := fabric.NewSink("snk")
	f.Add(a)
	f.Add(b)
	f.Add(m)
	f.Add(snk)
	f.Wire(a, 0, m, 0)
	f.Wire(b, 0, m, 1)
	f.Wire(m, 0, snk, 0)
	return f, m, snk
}

func TestRecorderCapturesFires(t *testing.T) {
	f, m, _ := mergeFabric(t)
	r := New(0)
	r.Attach(m)
	if _, err := f.Run(1000); err != nil {
		t.Fatal(err)
	}
	if int64(len(r.Events())) != m.DynamicInstructions() {
		t.Fatalf("recorded %d events, PE fired %d", len(r.Events()), m.DynamicInstructions())
	}
	// First fire of the merge program must be the compare.
	if r.Events()[0].Label != "cmp" {
		t.Errorf("first event %+v, want cmp", r.Events()[0])
	}
	var sb strings.Builder
	r.WriteLog(&sb)
	if !strings.Contains(sb.String(), "cmp") || !strings.Contains(sb.String(), "merge") {
		t.Errorf("log missing expected fields:\n%s", sb.String())
	}
}

func TestBoundedRecorderDropsOldest(t *testing.T) {
	f, m, _ := mergeFabric(t)
	r := New(3)
	r.Attach(m)
	if _, err := f.Run(1000); err != nil {
		t.Fatal(err)
	}
	if len(r.Events()) != 3 {
		t.Fatalf("bounded recorder kept %d events", len(r.Events()))
	}
	if r.Dropped() == 0 {
		t.Fatal("no drops recorded")
	}
	// The last event must be the halting fin.
	last := r.Events()[2]
	if last.Label != "fin" {
		t.Errorf("last event %+v, want fin", last)
	}
}

// TestBoundedRecorderRingBuffer records ten times past a 1e5-event
// limit. Every event past the limit must cost O(1) time and no
// allocation, the window must hold exactly the newest events oldest
// first, and Dropped must count every evicted event — also when Events
// is read while the ring has wrapped and recording then continues.
func TestBoundedRecorderRingBuffer(t *testing.T) {
	const limit = 100_000
	r := New(limit)
	n := 0
	record := func(k int) {
		for end := n + k; n < end; n++ {
			r.add(Event{Cycle: int64(n)})
		}
	}
	check := func() {
		t.Helper()
		ev := r.Events()
		if len(ev) != limit {
			t.Fatalf("window holds %d events, want %d", len(ev), limit)
		}
		for i, e := range ev {
			if want := int64(n - limit + i); e.Cycle != want {
				t.Fatalf("event %d has cycle %d, want %d", i, e.Cycle, want)
			}
		}
		if got, want := r.Dropped(), int64(n-limit); got != want {
			t.Fatalf("Dropped() = %d, want %d", got, want)
		}
	}
	record(limit)
	start := time.Now()
	// AllocsPerRun calls the function once more as a warm-up, so this
	// records 2 x 5 limits past the window.
	if avg := testing.AllocsPerRun(1, func() { record(5*limit + 7) }); avg != 0 {
		t.Errorf("recording past the limit: %.0f allocations, want 0", avg)
	}
	check() // the ring has wrapped mid-buffer: Events must rotate it
	record(limit / 3)
	check()
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("recording %d events past the limit took %v; want O(1) per event", n-limit, elapsed)
	}
}

func TestTimelineAndHistogram(t *testing.T) {
	f, m, _ := mergeFabric(t)
	r := New(0)
	r.Attach(m)
	if _, err := f.Run(1000); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	r.WriteTimeline(&sb, 0, 10)
	out := sb.String()
	if !strings.Contains(out, "merge") || !strings.Contains(out, "cmp") {
		t.Errorf("timeline missing content:\n%s", out)
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 11 {
		t.Errorf("timeline should have header + 10 rows:\n%s", out)
	}
	h := r.Histogram()
	if len(h) == 0 {
		t.Fatal("empty histogram")
	}
	total := int64(0)
	for _, fc := range h {
		total += fc.Count
	}
	if total != m.DynamicInstructions() {
		t.Errorf("histogram total %d, fired %d", total, m.DynamicInstructions())
	}
	for i := 1; i < len(h); i++ {
		if h[i].Count > h[i-1].Count {
			t.Fatal("histogram not sorted by count")
		}
	}
}

func TestChromeJSONExport(t *testing.T) {
	f, m, _ := mergeFabric(t)
	r := New(0)
	r.Attach(m)
	if _, err := f.Run(1000); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := r.WriteChromeJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	evs, ok := doc["traceEvents"].([]any)
	if !ok || int64(len(evs)) != m.DynamicInstructions() {
		t.Fatalf("traceEvents count %d, want %d", len(evs), m.DynamicInstructions())
	}
	first := evs[0].(map[string]any)
	if first["tid"] != "merge" || first["ph"] != "X" {
		t.Fatalf("unexpected event shape: %v", first)
	}
}
