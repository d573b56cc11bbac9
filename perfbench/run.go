package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"tia/internal/compile"
)

// runConfig is one invocation's settings.
type runConfig struct {
	wl     workload
	seed   int64
	window time.Duration
	setups int
	// spansPath, when set, is where a traced run writes its spans.
	spansPath string
}

// span of outcomes in run.all that one timed window produced.
type windowRange struct {
	from, to int
	start    time.Time
	elapsed  time.Duration
}

// run performs one untraced or traced run of cfg's workload.
//
// Untraced: set up (servers, coordinator, inputs, discarded warm-up)
// cfg.setups times, keep the last, time one closed-loop window, then
// check every response against a direct replay.
//
// Traced: set up once with timing middleware on every handler, time
// alternating untraced and traced quarter windows, then replay with a
// span around every layer call.
func run(cfg runConfig, traced bool) (*report, error) {
	var tr *tracer
	if traced {
		tr = &tracer{}
		cfg.setups = 1
	}
	rep := &report{wl: cfg.wl, traced: traced}
	var all []outcome
	var h *harness
	kept := 0 // index in all where the kept set-up's requests start
	for i := 0; i < cfg.setups; i++ {
		start := time.Now()
		var err error
		h, err = setUp(cfg.wl, cfg.seed, tr)
		if err != nil {
			return nil, err
		}
		warm := h.drive(0, cfg.wl.warmup)
		rep.setup = append(rep.setup, time.Since(start))
		kept = len(all)
		all = append(all, warm.outcomes...)
		if i < cfg.setups-1 {
			h.close()
			runtime.GC() // start the next set-up without this one's garbage
		}
	}
	// Start the window from a collected heap returned to the system, so
	// set-up garbage does not count in the window's memory.
	debug.FreeOSMemory()

	origin := time.Now()
	resHit0, resMiss0, progHit0, progMiss0 := h.cacheCounts()
	comp0 := compile.Counters()
	timeWindow := func(d time.Duration, on bool) {
		if tr != nil {
			tr.on.Store(on)
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		rss := startRSS()
		w := h.drive(d, 0)
		rep.peakRSSMB = max(rep.peakRSSMB, rss.finish())
		runtime.ReadMemStats(&ms1)
		if tr != nil {
			tr.on.Store(false)
		}
		r := windowRange{from: len(all), to: len(all) + len(w.outcomes), start: w.start, elapsed: w.elapsed}
		all = append(all, w.outcomes...)
		if on {
			rep.tracedWins = append(rep.tracedWins, r)
		} else {
			rep.plainWins = append(rep.plainWins, r)
			rep.mem.add(&ms0, &ms1)
		}
	}
	if traced {
		for q := 0; q < 4; q++ {
			timeWindow(cfg.window/4, q%2 == 1)
		}
	} else {
		timeWindow(cfg.window, false)
	}
	resHit1, resMiss1, progHit1, progMiss1 := h.cacheCounts()
	comp1 := compile.Counters()
	rep.resultHit = ratio(resHit1-resHit0, resMiss1-resMiss0)
	rep.programHit = ratio(progHit1-progHit0, progMiss1-progMiss0)
	rep.compileHit = ratio(comp1.Hits-comp0.Hits, comp1.Misses-comp0.Misses)
	h.close()

	var spans *[]span
	if traced {
		spans = &tr.spans
	}
	rep.check(newReplayer(spans), all, kept, cfg.wl.warmup)
	rep.all = all
	if traced {
		rep.layers = selfTimes(*spans)
		rep.http = httpSpans(*spans)
		if cfg.spansPath != "" {
			if err := writeSpans(cfg.spansPath, *spans, origin); err != nil {
				return nil, fmt.Errorf("write spans: %w", err)
			}
			rep.spansPath = cfg.spansPath
			rep.spanCount = len(*spans)
		}
	}
	return rep, nil
}

// check replays the distinct inputs that need a reference and marks
// every outcome whose output disagrees. Netlist and campaign inputs are
// all replayed; kernel jobs, which the server verifies itself, only
// within the prefix: the kept set-up's warm-up, all[kept:kept+prefix],
// which also yields the exact modelled counts and the result digest.
func (rep *report) check(rp *replayer, all []outcome, kept, prefix int) {
	// Replay in stream order so spans and counts do not depend on how
	// the clients interleaved.
	order := make([]*outcome, 0, len(all))
	for i := range all {
		order = append(order, &all[i])
	}
	sort.SliceStable(order, func(i, j int) bool { return order[i].req.idx < order[j].req.idx })
	type ref struct {
		out replayed
		err error
	}
	refs := map[string]*ref{}
	for _, o := range order {
		if o.err != "" || (o.req.kind == kindKernel && o.req.idx >= prefix) || refs[o.req.key] != nil {
			continue
		}
		r := &ref{}
		r.out, r.err = rp.run(o.req, o.lanes)
		refs[o.req.key] = r
		if r.err != nil {
			continue
		}
		if o.req.kind != kindCampaign {
			rep.counts.simCycles += r.out.cycles
		}
		if o.req.idx < prefix {
			rep.counts.add(r.out)
		}
	}
	for _, o := range order {
		r := refs[o.req.key]
		if o.err != "" || r == nil {
			continue
		}
		switch {
		case r.err != nil:
			o.err = "direct replay failed: " + r.err.Error()
		case o.violation != r.out.violation:
			o.err = fmt.Sprintf("timing-fault verdict %q, replay %q", o.violation, r.out.violation)
		case o.cycles != r.out.cycles:
			o.err = fmt.Sprintf("%d cycles, replay %d", o.cycles, r.out.cycles)
		case o.req.kind != kindCampaign && o.digest != r.out.digest:
			o.err = "sink tokens differ from the replay"
		case o.req.kind == kindCampaign && !sameTaxonomy(o, r.out):
			o.err = fmt.Sprintf("taxonomy %+v, replay %+v", o.campaign, r.out.campaign)
		}
	}
	hs := sha256.New()
	for i, o := range all[kept : kept+prefix] {
		c := o.campaign
		fmt.Fprintf(hs, "%d|%s|%d|%x|%d/%d/%d/%d/%d/%d\n", i, o.req.key, o.cycles, o.digest,
			c.Runs, c.Masked, c.Detected, c.SDC, c.Hang, c.Injected)
	}
	rep.digest = fmt.Sprintf("%x", hs.Sum(nil)[:8])
}

func sameTaxonomy(o *outcome, r replayed) bool {
	c, t := o.campaign, r.campaign
	return c.Runs == t.Runs && c.Masked == t.Masked && c.Detected == t.Detected &&
		c.SDC == t.SDC && c.Hang == t.Hang && c.Injected == t.Injected
}

func ratio(hit, miss int64) float64 {
	if hit+miss == 0 {
		return 0
	}
	return float64(hit) / float64(hit+miss)
}
