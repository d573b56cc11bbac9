package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"tia/internal/core"
	"tia/internal/service"
)

// report is everything one run measured.
type report struct {
	wl     workload
	traced bool

	setup      []time.Duration
	all        []outcome
	plainWins  []windowRange // untraced timed windows
	tracedWins []windowRange
	mem        memDelta // over the untraced windows
	peakRSSMB  float64

	resultHit, programHit, compileHit float64

	counts    modelCounts
	layers    layerTimes
	http      httpStats
	digest    string
	spansPath string
	spanCount int
}

// modelCounts are modelled-design counts over the stream's prefix:
// exact for a seed, and unmoved by any change that only makes the
// simulator faster.
type modelCounts struct {
	cycles    int64 // simulated cycles (golden cycles for campaigns)
	pes       peCounts
	taxonomy  core.Taxonomy
	simCycles int64 // cycles of the kernel and netlist replays, for ns_per_cycle
}

func (c *modelCounts) add(r replayed) {
	c.cycles += r.cycles
	c.pes.fired += r.pes.fired
	c.pes.inputStall += r.pes.inputStall
	c.pes.outputStall += r.pes.outputStall
	c.pes.idle += r.pes.idle
	t := &c.taxonomy
	t.Runs += r.campaign.Runs
	t.Masked += r.campaign.Masked
	t.Detected += r.campaign.Detected
	t.SDC += r.campaign.SDC
	t.Hang += r.campaign.Hang
	t.Injected += r.campaign.Injected
}

type memDelta struct {
	alloc, pauseNs uint64
	gcs            uint32
}

func (m *memDelta) add(before, after *runtime.MemStats) {
	m.alloc += after.TotalAlloc - before.TotalAlloc
	m.pauseNs += after.PauseTotalNs - before.PauseTotalNs
	m.gcs += after.NumGC - before.NumGC
}

// windowStats folds a set of windows into throughput and latency.
type windowStats struct {
	completed int
	elapsed   time.Duration
	latencies []time.Duration // sorted, successful requests only
	cycles    int64
	runs      int64
}

func (rep *report) stats(ws []windowRange) windowStats {
	var s windowStats
	for _, w := range ws {
		s.elapsed += w.elapsed
		for _, o := range rep.all[w.from:w.to] {
			s.add(o)
		}
	}
	s.sort()
	return s
}

// add counts one outcome; failures count only against error_ratio.
func (s *windowStats) add(o outcome) {
	if o.err != "" {
		return
	}
	s.completed++
	s.latencies = append(s.latencies, o.latency)
	s.cycles += o.cycles
	switch {
	case o.req.kind == kindCampaign:
		s.runs += int64(o.campaign.Runs)
	case !o.cached:
		s.runs++
	}
}

func (s *windowStats) sort() {
	sort.Slice(s.latencies, func(i, j int) bool { return s.latencies[i] < s.latencies[j] })
}

func (s windowStats) perSec(n float64) float64 {
	if s.elapsed <= 0 {
		return 0
	}
	return n / s.elapsed.Seconds()
}

// timeSlices is how many equal stretches of time the untraced window
// is cut into. Rates are medians over the stretches, so a slow stretch
// on a shared host moves them less than it would move a rate pooled
// over the whole window. Latency percentiles pool every sample: a
// stretch holds too few campaigns for a steady p90.
const timeSlices = 10

// sliced cuts each window into equal stretches by completion time.
func (rep *report) sliced(ws []windowRange, n int) []windowStats {
	var out []windowStats
	for _, w := range ws {
		step := w.elapsed / time.Duration(n)
		parts := make([]windowStats, n)
		for i := range parts {
			parts[i].elapsed = step
		}
		parts[n-1].elapsed = w.elapsed - step*time.Duration(n-1)
		for _, o := range rep.all[w.from:w.to] {
			i := min(int(o.done.Sub(w.start)/step), n-1)
			parts[i].add(o)
		}
		for i := range parts {
			parts[i].sort()
		}
		out = append(out, parts...)
	}
	return out
}

// medianOf is the median of f over the slices.
func medianOf(parts []windowStats, f func(windowStats) float64) float64 {
	vs := make([]float64, len(parts))
	for i, p := range parts {
		vs[i] = f(p)
	}
	return median(vs)
}

// median sorts vs and returns its median.
func median(vs []float64) float64 {
	sort.Float64s(vs)
	if len(vs)%2 == 1 {
		return vs[len(vs)/2]
	}
	return (vs[len(vs)/2-1] + vs[len(vs)/2]) / 2
}

// quantile is the nearest-rank q-quantile of sorted durations, in ms.
func quantile(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	i = max(0, min(i, len(sorted)-1))
	return float64(sorted[i].Nanoseconds()) / 1e6
}

// httpStats are the handler-span figures of the traced windows.
type httpStats struct {
	handlerMs []time.Duration // worker handler spans, sorted
	hop       []time.Duration // client latency minus worker span, sorted
}

func httpSpans(spans []span) httpStats {
	client := map[int]time.Duration{}
	worker := map[int]time.Duration{}
	for _, s := range spans {
		switch s.name {
		case "client":
			client[s.req] = s.dur()
		case "worker":
			worker[s.req] = s.dur()
		}
	}
	var h httpStats
	for req, w := range worker {
		h.handlerMs = append(h.handlerMs, w)
		if c, ok := client[req]; ok {
			h.hop = append(h.hop, c-w)
		}
	}
	sort.Slice(h.handlerMs, func(i, j int) bool { return h.handlerMs[i] < h.handlerMs[j] })
	sort.Slice(h.hop, func(i, j int) bool { return h.hop[i] < h.hop[j] })
	return h
}

// metric is one named figure of the result line.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // sample count or how it was formed, for the text report
}

func (rep *report) failures() (attempted, failed int, first string) {
	for _, o := range rep.all {
		if o.err != "" {
			failed++
			if first == "" {
				first = fmt.Sprintf("request %d (%s): %s", o.req.idx, o.req.key, o.err)
			}
		}
	}
	return len(rep.all), failed, first
}

// violations counts the timing campaigns whose verdict was a broken
// latency-insensitivity contract, among all checked timing campaigns.
func (rep *report) violations() (found, campaigns int, first string) {
	for _, o := range rep.all {
		if !o.req.timing || o.err != "" {
			continue
		}
		campaigns++
		if o.violation != "" {
			found++
			if first == "" {
				first = fmt.Sprintf("request %d (%s): %s", o.req.idx, o.req.key, o.violation)
			}
		}
	}
	return found, campaigns, first
}

func (rep *report) correct() bool {
	_, failed, _ := rep.failures()
	return failed == 0
}

// endToEnd are the metrics a user of the service sees, from the
// untraced window.
func (rep *report) endToEnd() []metric {
	s := rep.stats(rep.plainWins)
	parts := rep.sliced(rep.plainWins, timeSlices)
	med := fmt.Sprintf("median of %d slices; ", len(parts))
	n := fmt.Sprintf("n=%d samples", len(s.latencies))
	setups := make([]string, len(rep.setup))
	secs := make([]float64, len(rep.setup))
	for i, d := range rep.setup {
		setups[i] = fmt.Sprintf("%.3f", d.Seconds())
		secs[i] = d.Seconds()
	}
	return []metric{
		{"setup_s", median(secs), "s", fmt.Sprintf("median of %d set-ups [%s]", len(rep.setup), strings.Join(setups, " "))},
		{"jobs_per_s", medianOf(parts, func(p windowStats) float64 { return p.perSec(float64(p.completed)) }), "1/s",
			fmt.Sprintf("%s%d jobs in %.2f s", med, s.completed, s.elapsed.Seconds())},
		{"job_latency_p50_ms", quantile(s.latencies, 0.50), "ms", n},
		{"job_latency_p90_ms", quantile(s.latencies, 0.90), "ms", n},
		{"sim_cycles_per_s", medianOf(parts, func(p windowStats) float64 { return p.perSec(float64(p.cycles)) }), "cycles/s",
			fmt.Sprintf("%s%d cycles returned in results", med, s.cycles)},
		{"sim_runs_per_s", medianOf(parts, func(p windowStats) float64 { return p.perSec(float64(p.runs)) }), "1/s",
			fmt.Sprintf("%s%d simulations (uncached jobs, perturbed campaign runs)", med, s.runs)},
		{"peak_rss_mb", rep.peakRSSMB, "MB", fmt.Sprintf("median of %d slices of the largest resident set sampled every 20 ms", timeSlices)},
	}
}

// perLayer are the layer metrics of a traced run.
func (rep *report) perLayer() []metric {
	plain, traced := rep.stats(rep.plainWins), rep.stats(rep.tracedWins)
	l := rep.layers
	jobs := float64(plain.completed)
	perJob := func(v float64) float64 {
		if jobs == 0 {
			return 0
		}
		return v / jobs
	}
	var nsPerCycle, runsPerSec, pauseMs float64
	if sim := l["fabric.simulate"]; sim != nil && rep.counts.simCycles > 0 {
		nsPerCycle = float64(sim.self.Nanoseconds()) / float64(rep.counts.simCycles)
	}
	if c := l["core.campaign"]; c != nil && c.self > 0 {
		runsPerSec = float64(c.n*campaignRuns) / c.self.Seconds()
	}
	if rep.mem.gcs > 0 {
		pauseMs = float64(rep.mem.pauseNs) / float64(rep.mem.gcs) / 1e6
	}
	n := func(name string) string {
		if l[name] == nil {
			return "n=0, layer idle on this workload"
		}
		return fmt.Sprintf("n=%d", l[name].n)
	}
	pc, tx := rep.counts.pes, rep.counts.taxonomy
	violations, timingCampaigns, _ := rep.violations()
	prefix := fmt.Sprintf("first %d requests", rep.wl.warmup)
	return []metric{
		{"service.handler_ms_p50", quantile(rep.http.handlerMs, 0.5), "ms", fmt.Sprintf("n=%d", len(rep.http.handlerMs))},
		{"service.decode_us", l.meanUs("service.decode"), "us", n("service.decode")},
		{"service.encode_us", l.meanUs("service.encode"), "us", n("service.encode")},
		{"service.result_cache_hit_ratio", rep.resultHit, "ratio", "timed windows"},
		{"service.program_cache_hit_ratio", rep.programHit, "ratio", "timed windows"},
		{"service.latency_p99_ms", quantile(plain.latencies, 0.99), "ms", fmt.Sprintf("n=%d", len(plain.latencies))},
		{"fleet.hop_ms_p50", quantile(rep.http.hop, 0.5), "ms", fmt.Sprintf("n=%d", len(rep.http.hop))},
		{"asm.validate_us", l.meanUs("asm.validate"), "us", n("asm.validate")},
		{"asm.assemble_us", l.meanUs("asm.assemble"), "us", n("asm.assemble")},
		{"limits.admit_us", l.meanUs("limits.admit"), "us", n("limits.admit")},
		{"workloads.build_us", l.meanUs("workloads.build"), "us", n("workloads.build")},
		{"workloads.verify_us", l.meanUs("workloads.verify"), "us", n("workloads.verify")},
		{"compile.cache_hit_ratio", rep.compileHit, "ratio", "timed windows"},
		{"fabric.simulate_us", l.meanUs("fabric.simulate"), "us", n("fabric.simulate")},
		{"fabric.ns_per_cycle", nsPerCycle, "ns", fmt.Sprintf("%d replayed cycles", rep.counts.simCycles)},
		{"fabric.cycles", float64(rep.counts.cycles), "count", prefix},
		{"pe.fired", float64(pc.fired), "count", prefix},
		{"pe.input_stall", float64(pc.inputStall), "count", prefix},
		{"pe.output_stall", float64(pc.outputStall), "count", prefix},
		{"pe.idle", float64(pc.idle), "count", prefix},
		{"core.campaign_ms", l.meanUs("core.campaign") / 1e3, "ms", n("core.campaign")},
		{"batchrun.runs_per_s", runsPerSec, "1/s", n("core.campaign")},
		{"faults.injected", float64(tx.Injected), "count", prefix},
		{"core.taxonomy.masked", float64(tx.Masked), "count", prefix},
		{"core.taxonomy.detected", float64(tx.Detected), "count", prefix},
		{"core.taxonomy.sdc", float64(tx.SDC), "count", prefix},
		{"core.taxonomy.hang", float64(tx.Hang), "count", prefix},
		{"core.timing_violations", float64(violations), "count", fmt.Sprintf("of %d timing campaigns, all requests", timingCampaigns)},
		{"runtime.alloc_bytes_per_job", perJob(float64(rep.mem.alloc)), "B", "untraced windows"},
		{"runtime.gc_cycles_per_1k_jobs", perJob(1000 * float64(rep.mem.gcs)), "count", "untraced windows"},
		{"runtime.gc_pause_ms", pauseMs, "ms", fmt.Sprintf("mean of %d GC cycles", rep.mem.gcs)},
		{"bench.tracing_overhead_jobs_per_s", plain.perSec(float64(plain.completed)) - traced.perSec(float64(traced.completed)), "1/s",
			fmt.Sprintf("untraced %.1f minus traced %.1f jobs/s", plain.perSec(float64(plain.completed)), traced.perSec(float64(traced.completed)))},
	}
}

func (rep *report) metrics() []metric {
	if rep.traced {
		return rep.perLayer()
	}
	return rep.endToEnd()
}

// print writes the human-readable report.
func (rep *report) print(w io.Writer) {
	attempted, failed, first := rep.failures()
	for _, m := range rep.metrics() {
		fmt.Fprintf(w, "%-36s %14.6g %-8s %s\n", m.name, m.value, m.unit, m.note)
	}
	er := 0.0
	if attempted > 0 {
		er = float64(failed) / float64(attempted)
	}
	fmt.Fprintf(w, "%-36s %14.6g %-8s %d failed or incorrect of %d attempted\n", "error_ratio", er, "ratio", failed, attempted)
	if first != "" {
		fmt.Fprintf(w, "first failure: %s\n", first)
	}
	if found, campaigns, first := rep.violations(); campaigns > 0 {
		// Each verdict matched the direct replay, so it is the modelled
		// machine's behaviour, not a service error.
		fmt.Fprintf(w, "timing-fault verdicts: %d of %d timing campaigns broke latency-insensitivity\n", found, campaigns)
		if first != "" {
			fmt.Fprintf(w, "first violation: %s\n", first)
		}
	}
	fmt.Fprintf(w, "result digest: %s (first %d requests)\n", rep.digest, rep.wl.warmup)
	if rep.traced {
		names := make([]string, 0, len(rep.layers))
		for name := range rep.layers {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintln(w, "span self time (mean per span):")
		for _, name := range names {
			fmt.Fprintf(w, "  %-20s n=%-8d %10.1f us\n", name, rep.layers[name].n, rep.layers.meanUs(name))
		}
		if l := rep.layers["compile.plan"]; l == nil {
			fmt.Fprintln(w, "compile.plan_us: not recorded; the default backend interprets")
		}
		if rep.spansPath != "" {
			fmt.Fprintf(w, "spans: %d written to %s\n", rep.spanCount, rep.spansPath)
		}
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (rep *report) result() result {
	attempted, failed, _ := rep.failures()
	r := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]resultValue{}}
	for _, m := range rep.metrics() {
		r.Metrics[m.name] = resultValue{Value: m.value, Unit: m.unit}
	}
	return r
}

// rssSampler samples the resident set every 20 ms while it runs.
type rssSampler struct {
	stop, done chan struct{}
	samples    []float64 // MB; read only after finish
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			s.samples = append(s.samples, rssMB())
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the median over timeSlices
// equal stretches of the largest sample in each: the window's usual
// peak, which one collection landing early or late barely moves.
func (s *rssSampler) finish() float64 {
	close(s.stop)
	<-s.done
	n := min(timeSlices, len(s.samples))
	peaks := make([]float64, n)
	for i, v := range s.samples {
		k := i * n / len(s.samples)
		peaks[k] = max(peaks[k], v)
	}
	return median(peaks)
}

// rssMB is the process's resident set in MB; where /proc is missing it
// falls back to the memory the Go runtime holds from the system.
func rssMB() float64 {
	if b, err := os.ReadFile("/proc/self/statm"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 1 {
			if pages, err := strconv.ParseFloat(f[1], 64); err == nil {
				return pages * float64(os.Getpagesize()) / (1 << 20)
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys-ms.HeapReleased) / (1 << 20)
}

// metaLine records what a comparison across hosts or backends needs.
func metaLine(wl workload, seed int64) string {
	backend := "interpreted"
	if service.DefaultConfig().DefaultCompiled {
		backend = "compiled"
	}
	route := "straight to one server"
	if wl.viaFleet {
		route = "through a coordinator to two single-worker servers"
	}
	return fmt.Sprintf("meta: go=%s gomaxprocs=%d nproc=%d cpu=%q seed=%d workload=%s clients=%d (closed loop, %s) backend=%s",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), seed, wl.name, wl.clients, route, backend)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
