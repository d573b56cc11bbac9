package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"tia/internal/asm"
	"tia/internal/channel"
	"tia/internal/core"
	"tia/internal/faults"
	"tia/internal/isa"
	"tia/internal/limits"
	"tia/internal/metrics"
	"tia/internal/pcpe"
	"tia/internal/pe"
	"tia/internal/service"
	"tia/internal/workloads"
)

// replayed is what a direct replay of one request produced.
type replayed struct {
	cycles   int64
	digest   [32]byte
	campaign core.Taxonomy
	pes      peCounts
	// violation is the latency-insensitivity verdict of a timing
	// campaign whose perturbed run changed the output.
	violation string
}

// peCounts sums the modelled per-PE cycle breakdown (the paper's
// utilization metric) over a fabric's triggered PEs.
type peCounts struct {
	fired, inputStall, outputStall, idle int64
}

func (c *peCounts) add(pes []*pe.PE) {
	for _, p := range pes {
		s := p.Stats()
		c.fired += s.Fired
		c.inputStall += s.InputStall
		c.outputStall += s.OutputStall
		c.idle += s.IdleCycles
	}
}

// replayer runs requests directly through the layers' public functions
// in the order the service does: decode, validate, admit, assemble or
// build, compile, simulate, verify, encode. With spans set, each step
// is recorded as a child of one "replay" span per request.
type replayer struct {
	cfg      service.Config
	governor *limits.Governor
	spans    *[]span
}

func newReplayer(spans *[]span) *replayer {
	cfg := service.DefaultConfig()
	return &replayer{cfg: cfg, governor: limits.NewGovernor(cfg.Limits), spans: spans}
}

// step times f as a span of request idx named name.
func (rp *replayer) step(idx int, name string, f func()) {
	if rp.spans == nil {
		f()
		return
	}
	start := time.Now()
	f()
	*rp.spans = append(*rp.spans, span{req: idx, name: name, parent: "replay", start: start, end: time.Now()})
}

// run replays one request. lanes is the campaign lane count the server
// reported; it changes timing only, never results.
func (rp *replayer) run(r request, lanes int) (replayed, error) {
	start := time.Now()
	out, err := rp.dispatch(r, lanes)
	if rp.spans != nil {
		*rp.spans = append(*rp.spans, span{req: r.idx, name: "replay", start: start, end: time.Now()})
	}
	return out, err
}

func (rp *replayer) dispatch(r request, lanes int) (replayed, error) {
	var req service.JobRequest
	var err error
	rp.step(r.idx, "service.decode", func() {
		dec := json.NewDecoder(bytes.NewReader(r.body))
		dec.DisallowUnknownFields()
		err = dec.Decode(&req)
	})
	if err != nil {
		return replayed{}, fmt.Errorf("decode: %w", err)
	}
	switch r.kind {
	case kindKernel:
		return rp.kernel(r.idx, &req)
	case kindNetlist:
		return rp.netlist(r.idx, &req)
	default:
		return rp.campaign(r.idx, &req, lanes)
	}
}

// params maps the request onto kernel parameters the way the service
// does for the fields the benchmark sets.
func (rp *replayer) params(req *service.JobRequest) (*workloads.Spec, workloads.Params, error) {
	spec, err := workloads.ByName(req.Workload)
	if err != nil {
		return nil, workloads.Params{}, err
	}
	p := spec.Normalize(workloads.Params{Seed: req.Seed})
	p.FabricCfg.Compiled = rp.cfg.DefaultCompiled
	return spec, p, nil
}

func (rp *replayer) kernel(idx int, req *service.JobRequest) (replayed, error) {
	var out replayed
	spec, p, err := rp.params(req)
	if err != nil {
		return out, err
	}
	var inst *workloads.Instance
	rp.step(idx, "workloads.build", func() { inst, err = spec.BuildTIA(p) })
	if err != nil {
		return out, fmt.Errorf("build %s: %w", spec.Name, err)
	}
	rp.compile(idx, inst.PEs)
	rp.step(idx, "fabric.simulate", func() {
		r, e := inst.Fabric.RunContext(context.Background(), min(spec.MaxCycles(p), rp.cfg.MaxCyclesCap))
		out.cycles, err = r.Cycles, e
	})
	if err != nil {
		return out, fmt.Errorf("simulate %s: %w", spec.Name, err)
	}
	var ok bool
	rp.step(idx, "workloads.verify", func() {
		ok = wordsEqual(inst.Sink.Words(), spec.Reference(p))
	})
	if !ok {
		return out, fmt.Errorf("%s: output differs from the reference", spec.Name)
	}
	sinks := map[string][]string{inst.Sink.Name(): renderTokens(inst.Sink.Tokens())}
	out.digest = sinkDigest(sinks)
	out.pes.add(inst.PEs)
	rp.encode(idx, &service.JobResult{Cycles: out.cycles, Completed: true, Verified: true, Sinks: sinks, Elements: elementStats(inst.PEs)})
	return out, nil
}

func (rp *replayer) netlist(idx int, req *service.JobRequest) (replayed, error) {
	var out replayed
	var census asm.Census
	var err error
	rp.step(idx, "asm.validate", func() {
		census, err = asm.CheckNetlist(req.Netlist, isa.DefaultConfig(), pcpe.DefaultConfig())
	})
	if err != nil {
		return out, fmt.Errorf("validate: %w", err)
	}
	var release func()
	rp.step(idx, "limits.admit", func() { release, err = rp.governor.Admit(census) })
	if err != nil {
		return out, fmt.Errorf("admit: %w", err)
	}
	defer release()
	var nl *asm.Netlist
	rp.step(idx, "asm.assemble", func() {
		nl, err = asm.ParseNetlist(req.Netlist, isa.DefaultConfig(), pcpe.DefaultConfig())
	})
	if err != nil {
		return out, fmt.Errorf("assemble: %w", err)
	}
	nl.Fabric.SetCompiled(rp.cfg.DefaultCompiled)
	pes := make([]*pe.PE, 0, len(nl.PEs))
	for _, name := range sortedNames(nl.PEs) {
		pes = append(pes, nl.PEs[name])
	}
	rp.compile(idx, pes)
	rp.step(idx, "fabric.simulate", func() {
		r, e := nl.Fabric.RunContext(context.Background(), min(rp.cfg.DefaultMaxCycles, rp.cfg.MaxCyclesCap))
		out.cycles, err = r.Cycles, e
	})
	if err != nil {
		return out, fmt.Errorf("simulate: %w", err)
	}
	sinks := map[string][]string{}
	for name, snk := range nl.Sinks {
		sinks[name] = renderTokens(snk.Tokens())
	}
	out.digest = sinkDigest(sinks)
	out.pes.add(pes)
	elems := elementStats(pes)
	for _, name := range sortedNames(nl.PCPEs) {
		u := metrics.PCUtilization(nl.PCPEs[name])
		elems = append(elems, service.ElementStats{Name: u.Name, Kind: "pcpe", Fired: u.Fired, Occupancy: u.Occupancy,
			InputStall: u.InputStall, OutputStall: u.OutputStall})
	}
	rp.encode(idx, &service.JobResult{Cycles: out.cycles, Completed: true, Sinks: sinks, Elements: elems})
	return out, nil
}

func (rp *replayer) campaign(idx int, req *service.JobRequest, lanes int) (replayed, error) {
	var out replayed
	spec, p, err := rp.params(req)
	if err != nil {
		return out, err
	}
	fc := req.Faults
	plan := faults.Plan{
		Seed: fc.Seed, Sites: fc.Sites, From: fc.FromCycle, To: fc.ToCycle,
		JitterRate: fc.JitterRate, JitterMax: fc.JitterMax,
		Stalls: fc.Stalls, StallMax: fc.StallMax,
		Freezes: fc.Freezes, FreezeMax: fc.FreezeMax,
		FlipRate: fc.FlipRate, DropRate: fc.DropRate, DupRate: fc.DupRate,
	}
	var rep *core.CampaignReport
	rp.step(idx, "core.campaign", func() {
		if plan.Timing() {
			rep, err = core.RunTimingCampaignBatch(context.Background(), spec, p, plan, fc.Runs, lanes, false)
		} else {
			rep, err = core.RunDataCampaignBatch(context.Background(), spec, p, plan, fc.Runs, lanes)
		}
	})
	if err != nil && plan.Timing() && strings.Contains(err.Error(), violationText) {
		// The service answers this as a verify error, with no result.
		out.violation = err.Error()
		rp.encode(idx, map[string]*service.JobError{"error": {Kind: service.ErrVerify, Message: out.violation}})
		return out, nil
	}
	if err != nil {
		return out, fmt.Errorf("campaign %s: %w", spec.Name, err)
	}
	out.cycles = rep.GoldenCycles
	out.campaign = rep.Taxonomy
	tx := rep.Taxonomy
	rp.encode(idx, &service.JobResult{Cycles: rep.GoldenCycles, Completed: true, Campaign: &service.CampaignSummary{
		Runs: tx.Runs, Masked: tx.Masked, Detected: tx.Detected, SDC: tx.SDC, Hang: tx.Hang,
		Injected: tx.Injected, GoldenCycles: rep.GoldenCycles, Timing: plan.Timing(),
	}})
	return out, nil
}

// compile runs the default backend's per-PE compilation ahead of the
// run, so its cost lands in its own span; the run then reuses the
// cached step functions. With the interpreter as default it does
// nothing.
func (rp *replayer) compile(idx int, pes []*pe.PE) {
	if !rp.cfg.DefaultCompiled {
		return
	}
	rp.step(idx, "compile.plan", func() {
		for _, p := range pes {
			p.CompileStep()
		}
	})
}

// encode renders a result or an error body the way the service's JSON
// writer does.
func (rp *replayer) encode(idx int, res any) {
	rp.step(idx, "service.encode", func() {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		_ = enc.Encode(res) // plain structs into a buffer; cannot fail
	})
}

// elementStats is the per-PE breakdown a result carries, built as the
// service builds it.
func elementStats(pes []*pe.PE) []service.ElementStats {
	out := make([]service.ElementStats, 0, len(pes))
	for _, p := range pes {
		u := metrics.TIAUtilization(p)
		out = append(out, service.ElementStats{Name: u.Name, Kind: "pe", Fired: u.Fired, Occupancy: u.Occupancy,
			InputStall: u.InputStall, OutputStall: u.OutputStall, Idle: u.Idle})
	}
	return out
}

func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// renderTokens renders tokens in the netlist syntax results carry.
func renderTokens(toks []channel.Token) []string {
	out := make([]string, len(toks))
	for i, t := range toks {
		out[i] = t.String()
	}
	return out
}

func wordsEqual(a, b []isa.Word) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
