// Package fabric assembles processing elements, memories, sources and
// sinks into a spatial array connected by latency-insensitive channels,
// and drives the whole graph with a deterministic cycle-stepped simulator.
//
// Within a cycle every element observes only channel state committed at
// the end of the previous cycle and stages its effects; the fabric then
// commits all channels. Element step order therefore cannot affect
// results, and simulations are bit-reproducible.
//
// The simulator is event-driven: an element that did no work goes to
// sleep and is only stepped again when one of its attached channels
// commits a change (spatial fabrics are mostly idle, so most elements
// sleep most cycles), and only channels with staged or in-flight tokens
// are ticked. The two-phase channel protocol is what makes the skip
// sound — see DESIGN.md's "Simulator fast path" section. A dense
// reference stepper that walks every element and channel each cycle is
// kept behind SetDenseStepping for the differential tests; both must
// produce bit-identical results.
package fabric

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"

	"tia/internal/channel"
)

// Element is anything the fabric steps once per cycle: triggered PEs,
// PC-style PEs, scratchpads, sources and sinks.
type Element interface {
	// Name identifies the element in errors and statistics.
	Name() string
	// Step runs one cycle against committed channel state, staging any
	// channel effects. It returns true if the element did work (fired an
	// instruction, moved a token, serviced a request).
	//
	// The event-driven stepper relies on two properties of Step: a call
	// that returns false must stage no channel effects, and it must be a
	// pure function of the element's state and the committed channel
	// state (so re-running it with neither changed returns false again).
	// An element whose state advances even when it reports no work (e.g.
	// a draining branch-penalty counter) must implement NeedsStep.
	Step(cycle int64) bool
	// Done reports that the element will never do work again.
	Done() bool
}

// InPort is implemented by elements with indexed input channels.
type InPort interface {
	ConnectIn(idx int, ch *channel.Channel)
}

// OutPort is implemented by elements with indexed output channels.
type OutPort interface {
	ConnectOut(idx int, ch *channel.Channel)
}

// connectionChecker lets elements veto simulation when their program
// references unconnected channels.
type connectionChecker interface {
	CheckConnections() error
}

// faulty lets elements surface program errors (e.g. out-of-range
// scratchpad addresses) that should abort the run.
type faulty interface {
	Err() error
}

// resettable lets the fabric restore elements for a fresh run.
type resettable interface {
	Reset()
}

// skipAware elements are told how many cycles the event-driven stepper
// skipped them for, so per-cycle statistics stay bit-identical with
// dense stepping.
type skipAware interface {
	SkipCycles(n int64)
}

// wakeHinter elements can demand to be stepped even after a no-work
// cycle with no channel changes (e.g. a PC-style PE draining a
// taken-branch penalty, or a mesh with buffered flits).
type wakeHinter interface {
	NeedsStep() bool
}

// stateDumper lets elements contribute a one-line state summary to
// deadlock reports.
type stateDumper interface {
	DumpState() string
}

// FaultInjector is the fabric-side interface of a fault-injection layer
// (see internal/faults). The fabric drives it once per cycle, before
// elements step, and consults it per element; a nil injector adds no
// per-cycle work beyond one comparison.
//
// Injector decisions must be pure functions of the cycle number and
// per-site event sequences — never of element or channel iteration order
// — so that dense and event-driven stepping stay bit-identical under the
// same fault plan.
type FaultInjector interface {
	// BeginCycle announces the cycle about to be simulated.
	BeginCycle(cycle int64)
	// Frozen reports that the element must not be stepped this cycle.
	// Frozen elements accrue SkipCycles so statistics stay comparable.
	// Frozen may return true only in cycles where Active reports true —
	// the steppers hoist that check per cycle and skip the per-element
	// calls entirely outside freeze windows.
	Frozen(e Element) bool
	// Active reports that some freeze window covers this cycle. While
	// true, quiescence detection is suppressed: a fully-frozen fabric is
	// waiting, not deadlocked.
	Active() bool
}

// Config holds fabric-wide defaults.
type Config struct {
	// ChannelCapacity is the default receiver-FIFO depth for Wire.
	ChannelCapacity int
	// ChannelLatency is the default extra wire latency for Wire.
	ChannelLatency int
	// QuiescenceWindow is how many consecutive cycles of no work and no
	// in-flight tokens the simulator requires before declaring the
	// fabric quiescent.
	QuiescenceWindow int
	// CancelCheckInterval is how many cycles RunContext simulates between
	// context-cancellation checks. Smaller values cancel sooner at the
	// cost of a check in the hot loop; zero means the default (1024).
	CancelCheckInterval int
	// Shards is the number of workers the compute phase of each cycle is
	// partitioned across. 0 or 1 selects the serial event-driven stepper;
	// k > 1 steps elements on k workers (bit-identical results — see
	// shard.go and DESIGN.md "Sharded parallel stepping"); negative means
	// one shard per available CPU (GOMAXPROCS). No CLI, service or core
	// knob sets it: multi-core speed comes from parallel campaign workers
	// (internal/core), and this stepper is kept for callers that step one
	// large fabric, pinned by the differential sweeps.
	Shards int
	// Compiled switches element stepping to closure-compiled step
	// functions: at the top of each run, every element that implements
	// CompileStep (triggered PEs — see internal/pe and internal/compile)
	// contributes a specialized step closure to a dispatch table, which
	// replaces the generic Element.Step walk in the dense, event-driven
	// and sharded steppers alike. Results are bit-identical to the
	// interpreter (the stepModes differential sweeps assert it); like
	// Shards, this is a stepping choice, not part of the modeled machine.
	// No CLI flag, request field or core variable sets it: production
	// steps with the interpreter, and the compiled backend stays a
	// library path for tests and embedders.
	Compiled bool
}

// DefaultConfig returns the defaults used throughout the workload suite:
// depth-4 channels with no extra wire latency.
func DefaultConfig() Config {
	return Config{ChannelCapacity: 4, ChannelLatency: 0, QuiescenceWindow: 4}
}

// Fabric is a spatial array under construction or simulation.
type Fabric struct {
	cfg   Config
	elems []Element
	chans []*channel.Channel
	sinks []*Sink
	names map[string]bool
	place map[Element]point
	binds []bind
	cycle int64
	// idleStreak counts the consecutive idle cycles quiescence detection
	// has seen up to cycle. It is run state like cycle: it carries from
	// one Run to the next, is zeroed by Reset, and travels in snapshots,
	// so a restored run quiesces on the cycle the original did.
	idleStreak int
	dense      bool
	inj        FaultInjector

	ckptEvery int64
	ckptFn    func(cycle int64) error

	prep prepared
	// rs is the stepper's per-run scratch state, reused across Runs so a
	// reset-and-rerun loop (core's verification reuse, campaign sweeps,
	// the service) allocates nothing per run after the first.
	rs runState
}

// bind records a channel's endpoint elements, declared by Wire or
// BindChannel; nil endpoints mean "unknown" and are handled
// conservatively by the event-driven stepper.
type bind struct {
	ch               *channel.Channel
	sender, receiver Element
}

// prepared caches everything the run loop would otherwise re-derive per
// cycle: interface assertions, channel endpoints and the element→channel
// adjacency. Built once per Run by prepare().
type prepared struct {
	valid bool

	faulties []faultyElem
	dumpers  []dumperElem
	resets   []resettable
	skips    []skipAware  // indexed by element, nil when unimplemented
	hints    []wakeHinter // indexed by element, nil when unimplemented
	sinkOf   []*Sink      // indexed by element, nil for non-sinks
	elemCh   [][]int      // channel indices attached to each element
	ends     [][2]int     // per channel: sender/receiver element index, -1 unknown

	// Compiled-mode dispatch table, refreshed per run by refreshCompiled:
	// steps is nil unless Config.Compiled, in which case steps[i] is
	// element i's specialized step closure (or its bound Step method for
	// elements that do not compile). compilers caches the interface
	// assertions.
	compilers []stepCompiler
	steps     []func(cycle int64) bool
}

type faultyElem struct {
	f faulty
	e Element
}

type dumperElem struct {
	d    stateDumper
	name string
}

type point struct{ x, y int }

// New returns an empty fabric with the given defaults.
func New(cfg Config) *Fabric {
	if cfg.ChannelCapacity < 1 {
		cfg.ChannelCapacity = 4
	}
	if cfg.QuiescenceWindow < 1 {
		cfg.QuiescenceWindow = 4
	}
	if cfg.CancelCheckInterval < 1 {
		cfg.CancelCheckInterval = 1024
	}
	return &Fabric{cfg: cfg, names: map[string]bool{}, place: map[Element]point{}}
}

// Config returns the fabric's defaults.
func (f *Fabric) Config() Config { return f.cfg }

// SetCancelCheckInterval overrides Config.CancelCheckInterval on an
// already-built fabric (e.g. one assembled from a netlist, whose config
// the builder owns). Values below 1 are ignored.
func (f *Fabric) SetCancelCheckInterval(n int) {
	if n >= 1 {
		f.cfg.CancelCheckInterval = n
	}
}

// SetShards overrides Config.Shards on an already-built fabric (e.g.
// one assembled from a netlist, whose config the builder owns). See
// Config.Shards for the value's meaning.
func (f *Fabric) SetShards(k int) { f.cfg.Shards = k }

// SetCompiled overrides Config.Compiled on an already-built fabric. See
// Config.Compiled for the value's meaning; the dispatch table is
// (re)built at the top of the next run.
func (f *Fabric) SetCompiled(on bool) { f.cfg.Compiled = on }

// stepCompiler is the optional element interface behind Config.Compiled:
// CompileStep returns a step function with Step's exact observable
// semantics, specialized to the element's current program and state.
// Implementations cache internally and must return a fresh closure only
// when something invalidated the old one; the fabric re-queries once per
// run, never mid-run.
type stepCompiler interface {
	CompileStep() func(cycle int64) bool
}

// shardCount resolves Config.Shards against the machine and the fabric:
// negative means GOMAXPROCS, and a fabric is never split into more
// shards than it has elements. Anything below 2 means serial stepping.
func (f *Fabric) shardCount() int {
	k := f.cfg.Shards
	if k < 0 {
		k = runtime.GOMAXPROCS(0)
	}
	if k > len(f.elems) {
		k = len(f.elems)
	}
	if k < 2 {
		return 1
	}
	return k
}

// SetFaultInjector attaches (or, with nil, detaches) a fault-injection
// layer. See FaultInjector; internal/faults provides the implementation.
func (f *Fabric) SetFaultInjector(inj FaultInjector) { f.inj = inj }

// SetDenseStepping switches the simulator to the dense reference loop
// that steps every element and ticks every channel each cycle. Results
// are bit-identical with the default event-driven stepper (the
// differential tests in package workloads assert it); dense stepping
// exists as that test's baseline and as a debugging aid.
func (f *Fabric) SetDenseStepping(on bool) { f.dense = on }

// Add registers an element. Names must be unique; Add panics on a
// duplicate (use TryAdd on untrusted construction paths).
func (f *Fabric) Add(e Element) {
	if err := f.TryAdd(e); err != nil {
		panic(err.Error())
	}
}

// TryAdd is Add with the duplicate-name case reported as an error
// instead of a panic.
func (f *Fabric) TryAdd(e Element) error {
	if f.names[e.Name()] {
		return fmt.Errorf("fabric: duplicate element name %q", e.Name())
	}
	f.names[e.Name()] = true
	f.elems = append(f.elems, e)
	if s, ok := e.(*Sink); ok {
		f.sinks = append(f.sinks, s)
	}
	f.prep.valid = false
	return nil
}

// Elements returns the registered elements in registration order.
func (f *Fabric) Elements() []Element { return f.elems }

// Channels returns all registered channels.
func (f *Fabric) Channels() []*channel.Channel { return f.chans }

// Place assigns the element a grid coordinate. When both endpoints of a
// Wire call are placed, the wire's latency defaults to the Manhattan
// distance minus one (the first hop is the mandatory registered hop).
func (f *Fabric) Place(e Element, x, y int) {
	f.place[e] = point{x, y}
}

// NewChannel creates a channel registered for fabric ticking but not
// attached to anything; callers wire it manually (e.g. to drive a PE from
// a test). Its endpoints are unknown to the event-driven stepper, which
// therefore ticks it every cycle and wakes every element when it changes;
// use BindChannel to declare endpoints when they exist.
func (f *Fabric) NewChannel(name string, capacity, latency int) *channel.Channel {
	ch := channel.New(name, capacity, latency)
	f.chans = append(f.chans, ch)
	f.prep.valid = false
	return ch
}

// AdoptChannel registers an externally created channel (e.g. the endpoint
// of a NoC flow) for fabric ticking. See NewChannel about endpoints.
func (f *Fabric) AdoptChannel(ch *channel.Channel) {
	f.chans = append(f.chans, ch)
	f.prep.valid = false
}

// BindChannel declares a registered channel's endpoint elements for the
// event-driven stepper: when the channel commits a change, exactly these
// elements are woken. Pass nil for an endpoint that is not a fabric
// element; the stepper then falls back to waking everything for that
// channel.
func (f *Fabric) BindChannel(ch *channel.Channel, sender, receiver Element) {
	f.binds = append(f.binds, bind{ch: ch, sender: sender, receiver: receiver})
	f.prep.valid = false
}

// Wire connects src's output port outIdx to dst's input port inIdx with a
// channel using fabric defaults (and placement-derived latency if both
// elements are placed). It returns the channel.
func (f *Fabric) Wire(src OutPort, outIdx int, dst InPort, inIdx int) *channel.Channel {
	lat := f.cfg.ChannelLatency
	se, seOK := src.(Element)
	de, deOK := dst.(Element)
	if seOK && deOK {
		if sp, ok1 := f.place[se]; ok1 {
			if dp, ok2 := f.place[de]; ok2 {
				d := abs(sp.x-dp.x) + abs(sp.y-dp.y)
				if d > 0 {
					lat = f.cfg.ChannelLatency + d - 1
				}
			}
		}
	}
	return f.WireOpt(src, outIdx, dst, inIdx, f.cfg.ChannelCapacity, lat)
}

// WireOpt is Wire with explicit channel capacity and latency.
func (f *Fabric) WireOpt(src OutPort, outIdx int, dst InPort, inIdx int, capacity, latency int) *channel.Channel {
	ch, err := f.TryWireOpt(src, outIdx, dst, inIdx, capacity, latency)
	if err != nil {
		panic(err.Error())
	}
	return ch
}

// CheckedOutPort is implemented by elements whose output-port connection
// reports invalid indices and double-connections as errors. TryWireOpt
// prefers it over the panicking OutPort.ConnectOut.
type CheckedOutPort interface {
	TryConnectOut(idx int, ch *channel.Channel) error
}

// CheckedInPort is the input-side counterpart of CheckedOutPort.
type CheckedInPort interface {
	TryConnectIn(idx int, ch *channel.Channel) error
}

// TryWire is Wire with connection failures reported as errors instead of
// panics. See TryWireOpt.
func (f *Fabric) TryWire(src OutPort, outIdx int, dst InPort, inIdx int) (*channel.Channel, error) {
	lat := f.cfg.ChannelLatency
	se, seOK := src.(Element)
	de, deOK := dst.(Element)
	if seOK && deOK {
		if sp, ok1 := f.place[se]; ok1 {
			if dp, ok2 := f.place[de]; ok2 {
				d := abs(sp.x-dp.x) + abs(sp.y-dp.y)
				if d > 0 {
					lat = f.cfg.ChannelLatency + d - 1
				}
			}
		}
	}
	return f.TryWireOpt(src, outIdx, dst, inIdx, f.cfg.ChannelCapacity, lat)
}

// TryWireOpt is WireOpt with invalid channel parameters, bad port
// indices, and double-connections reported as errors instead of panics.
// This is the wiring entry point for untrusted construction paths (the
// netlist builder); on error the fabric may hold a half-connected
// channel and must be discarded.
func (f *Fabric) TryWireOpt(src OutPort, outIdx int, dst InPort, inIdx int, capacity, latency int) (*channel.Channel, error) {
	name := fmt.Sprintf("%s.out%d->%s.in%d", elemName(src), outIdx, elemName(dst), inIdx)
	ch, err := channel.NewChecked(name, capacity, latency)
	if err != nil {
		return nil, err
	}
	if err := connectOutChecked(src, outIdx, ch); err != nil {
		return nil, err
	}
	if err := connectInChecked(dst, inIdx, ch); err != nil {
		return nil, err
	}
	f.chans = append(f.chans, ch)
	se, _ := src.(Element)
	de, _ := dst.(Element)
	f.binds = append(f.binds, bind{ch: ch, sender: se, receiver: de})
	f.prep.valid = false
	return ch, nil
}

// connectOutChecked routes through TryConnectOut when the element
// implements it, falling back to recovering the legacy panic so exotic
// elements still fail as errors rather than crashing the worker.
func connectOutChecked(src OutPort, idx int, ch *channel.Channel) (err error) {
	if c, ok := src.(CheckedOutPort); ok {
		return c.TryConnectOut(idx, ch)
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	src.ConnectOut(idx, ch)
	return nil
}

func connectInChecked(dst InPort, idx int, ch *channel.Channel) (err error) {
	if c, ok := dst.(CheckedInPort); ok {
		return c.TryConnectIn(idx, ch)
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	dst.ConnectIn(idx, ch)
	return nil
}

func elemName(v any) string {
	if e, ok := v.(Element); ok {
		return e.Name()
	}
	return "?"
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Validate checks that every element's program references only connected
// channels.
func (f *Fabric) Validate() error {
	for _, e := range f.elems {
		if c, ok := e.(connectionChecker); ok {
			if err := c.CheckConnections(); err != nil {
				return err
			}
		}
	}
	return nil
}

// prepare builds the run caches: hoisted interface assertions, channel
// endpoint tables and element→channel adjacency. Idempotent until the
// fabric's structure changes.
func (f *Fabric) prepare() {
	if f.prep.valid {
		return
	}
	p := &f.prep
	n := len(f.elems)
	elemIdx := make(map[Element]int, n)
	for i, e := range f.elems {
		elemIdx[e] = i
	}
	chanIdx := make(map[*channel.Channel]int, len(f.chans))
	for i, ch := range f.chans {
		chanIdx[ch] = i
	}

	p.faulties = p.faulties[:0]
	p.dumpers = p.dumpers[:0]
	p.resets = p.resets[:0]
	p.skips = make([]skipAware, n)
	p.hints = make([]wakeHinter, n)
	p.sinkOf = make([]*Sink, n)
	p.elemCh = make([][]int, n)
	p.compilers = make([]stepCompiler, n)
	p.steps = nil
	for i, e := range f.elems {
		if sc, ok := e.(stepCompiler); ok {
			p.compilers[i] = sc
		}
		if ft, ok := e.(faulty); ok {
			p.faulties = append(p.faulties, faultyElem{f: ft, e: e})
		}
		if d, ok := e.(stateDumper); ok {
			p.dumpers = append(p.dumpers, dumperElem{d: d, name: e.Name()})
		}
		if r, ok := e.(resettable); ok {
			p.resets = append(p.resets, r)
		}
		if s, ok := e.(skipAware); ok {
			p.skips[i] = s
		}
		if h, ok := e.(wakeHinter); ok {
			p.hints[i] = h
		}
		if s, ok := e.(*Sink); ok {
			p.sinkOf[i] = s
		}
	}

	p.ends = make([][2]int, len(f.chans))
	for i := range p.ends {
		p.ends[i] = [2]int{-1, -1}
	}
	for _, b := range f.binds {
		ci, ok := chanIdx[b.ch]
		if !ok {
			continue // bound but not fabric-ticked; nothing to wake
		}
		if b.sender != nil {
			if si, ok := elemIdx[b.sender]; ok {
				p.ends[ci][0] = si
			}
		}
		if b.receiver != nil {
			if ri, ok := elemIdx[b.receiver]; ok {
				p.ends[ci][1] = ri
			}
		}
	}
	for ci, ends := range p.ends {
		for _, ei := range ends {
			if ei >= 0 {
				p.elemCh[ei] = append(p.elemCh[ei], ci)
			}
		}
	}
	p.valid = true
}

// Result summarizes a simulation run.
type Result struct {
	// Cycles is the number of cycles simulated.
	Cycles int64
	// Completed reports that every sink finished.
	Completed bool
	// Quiesced reports that the fabric went idle (with or without the
	// sinks finishing; Completed distinguishes success from deadlock).
	Quiesced bool
}

// ErrDeadlock is returned (wrapped) when the fabric goes idle before all
// sinks complete.
var ErrDeadlock = errors.New("fabric deadlocked")

// ErrTimeout is returned (wrapped) when maxCycles elapse first.
var ErrTimeout = errors.New("cycle limit exceeded")

// ErrCancelled is returned (wrapped) when RunContext's context is
// cancelled or its deadline expires mid-simulation.
var ErrCancelled = errors.New("run cancelled")

// Run simulates until every sink completes, the fabric quiesces, or
// maxCycles elapse. Deadlock (quiescence with unfinished sinks) and
// timeout are errors; so is any element fault.
func (f *Fabric) Run(maxCycles int64) (Result, error) {
	return f.RunContext(context.Background(), maxCycles)
}

// RunContext is Run under a context: every Config.CancelCheckInterval
// cycles the simulator polls ctx and, if it is done, stops and returns
// the cycles simulated so far with an error wrapping ErrCancelled (and
// the context's own cause, so errors.Is distinguishes cancellation from
// deadline expiry). A context that is never cancelled adds no per-cycle
// work beyond one nil comparison.
func (f *Fabric) RunContext(ctx context.Context, maxCycles int64) (Result, error) {
	if err := f.Validate(); err != nil {
		return Result{}, err
	}
	f.prepare()
	f.refreshCompiled()
	if f.dense {
		return f.runDense(ctx, maxCycles)
	}
	if k := f.shardCount(); k > 1 {
		return f.runSharded(ctx, maxCycles, k)
	}
	return f.runEvent(ctx, maxCycles)
}

// cancelCheck polls ctx every cfg.CancelCheckInterval calls. It returns
// a non-nil error exactly when the run should stop.
type cancelCheck struct {
	done     <-chan struct{}
	ctx      context.Context
	interval int
	left     int
}

func (f *Fabric) newCancelCheck(ctx context.Context) cancelCheck {
	return cancelCheck{
		done:     ctx.Done(),
		ctx:      ctx,
		interval: f.cfg.CancelCheckInterval,
		left:     f.cfg.CancelCheckInterval,
	}
}

func (c *cancelCheck) expired() error {
	if c.done == nil {
		return nil
	}
	c.left--
	if c.left > 0 {
		return nil
	}
	c.left = c.interval
	select {
	case <-c.done:
		return fmt.Errorf("%w: %w", ErrCancelled, c.ctx.Err())
	default:
		return nil
	}
}

// refreshCompiled rebuilds the compiled-mode dispatch table. Called once
// per run, after prepare: compiling elements are re-queried every time
// (their CompileStep caches internally and hands back a new closure only
// when program or folded-against state changed), non-compiling elements
// get their bound Step method once per prepare. With Config.Compiled off
// the table is nil and the steppers fall back to the Element.Step walk.
func (f *Fabric) refreshCompiled() {
	p := &f.prep
	if !f.cfg.Compiled {
		p.steps = nil
		return
	}
	if len(p.steps) != len(f.elems) {
		p.steps = make([]func(cycle int64) bool, len(f.elems))
		for i, e := range f.elems {
			if p.compilers[i] == nil {
				p.steps[i] = e.Step
			}
		}
	}
	for i, sc := range p.compilers {
		if sc != nil {
			p.steps[i] = sc.CompileStep()
		}
	}
}

// runDense is the reference stepper: every element stepped and every
// channel ticked, every cycle.
func (f *Fabric) runDense(ctx context.Context, maxCycles int64) (Result, error) {
	cc := f.newCancelCheck(ctx)
	steps := f.prep.steps
	for n := int64(0); n < maxCycles; n++ {
		if err := cc.expired(); err != nil {
			if f.ckptFn != nil {
				err = errors.Join(err, f.ckptFn(f.cycle))
			}
			return Result{Cycles: f.cycle}, fmt.Errorf("cycle %d: %w", f.cycle, err)
		}
		mayFreeze := false
		if f.inj != nil {
			f.inj.BeginCycle(f.cycle)
			mayFreeze = f.inj.Active()
		}
		worked := false
		for i, e := range f.elems {
			if mayFreeze && f.inj.Frozen(e) {
				if sk := f.prep.skips[i]; sk != nil {
					sk.SkipCycles(1)
				}
				continue
			}
			stepped := false
			if steps != nil {
				stepped = steps[i](f.cycle)
			} else {
				stepped = e.Step(f.cycle)
			}
			if stepped {
				worked = true
			}
		}
		busyChans := false
		for _, ch := range f.chans {
			if !busyChans && !ch.Idle() {
				busyChans = true
			}
			ch.Tick()
		}
		f.cycle++
		for _, fe := range f.prep.faulties {
			if err := fe.f.Err(); err != nil {
				return Result{Cycles: f.cycle}, fmt.Errorf("cycle %d: element %s: %w", f.cycle, fe.e.Name(), err)
			}
		}
		if f.sinksDone() {
			return Result{Cycles: f.cycle, Completed: true}, nil
		}
		idle := f.countIdle(!worked && !busyChans)
		if f.ckptFn != nil && f.cycle%f.ckptEvery == 0 {
			if err := f.ckptFn(f.cycle); err != nil {
				return Result{Cycles: f.cycle}, fmt.Errorf("cycle %d: checkpoint: %w", f.cycle, err)
			}
		}
		if idle && f.idleStreak >= f.cfg.QuiescenceWindow {
			return f.quiesced()
		}
	}
	return Result{Cycles: f.cycle}, fmt.Errorf("after %d cycles: %w", f.cycle, ErrTimeout)
}

// runState is the event-driven stepper's per-run bookkeeping. It lives
// on the Fabric and is re-initialized (capacity reused) each Run.
type runState struct {
	awake       []bool
	asleepSince []int64
	active      []bool // channel is in the tick list
	activeList  []int
	spare       []int
	isBusy      []bool // channel is not Idle (for quiescence detection)
	busyCount   int
	sinkDone    []bool
	sinksLeft   int

	slots []shardSlot // sharded stepper's per-worker scratch
	// mayFreeze is the per-cycle hoisted FaultInjector.Active result the
	// sharded workers read (written serially before cycle dispatch).
	mayFreeze bool
}

// boolScratch returns s resized to n with every entry false, reusing
// capacity when it suffices.
func boolScratch(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = false
	}
	return s
}

// int64Scratch is boolScratch for []int64.
func int64Scratch(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// intScratch returns s emptied with at least capacity n.
func intScratch(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, 0, n)
	}
	return s[:0]
}

// initRunState readies the pooled scratch state for a fresh run: every
// element awake, every channel in the tick list, sink completion
// tallied. Reuses prior capacity so repeat runs allocate nothing.
func (f *Fabric) initRunState() *runState {
	st := &f.rs
	ne, nc := len(f.elems), len(f.chans)
	st.awake = boolScratch(st.awake, ne)
	st.asleepSince = int64Scratch(st.asleepSince, ne)
	st.active = boolScratch(st.active, nc)
	st.activeList = intScratch(st.activeList, nc)
	st.spare = intScratch(st.spare, nc)
	st.isBusy = boolScratch(st.isBusy, nc)
	st.busyCount = 0
	st.sinkDone = boolScratch(st.sinkDone, ne)
	st.sinksLeft = 0
	for i := range st.awake {
		st.awake[i] = true
	}
	for ci, ch := range f.chans {
		st.active[ci] = true
		st.activeList = append(st.activeList, ci)
		if !ch.Idle() {
			st.isBusy[ci] = true
			st.busyCount++
		}
	}
	for i, s := range f.prep.sinkOf {
		if s == nil {
			continue
		}
		if s.Completed() {
			st.sinkDone[i] = true
		} else {
			st.sinksLeft++
		}
	}
	return st
}

// backfillSleepers accounts the skipped cycles of every still-sleeping
// element before Run returns, so statistics match dense stepping on
// every exit path.
func (f *Fabric) backfillSleepers(st *runState) {
	last := f.cycle - 1
	for i := range st.awake {
		if st.awake[i] {
			continue
		}
		if sk := f.prep.skips[i]; sk != nil {
			sk.SkipCycles(last - st.asleepSince[i])
		}
	}
}

// checkpointSleepers brings every sleeping element's statistics up to
// date (the same accounting its wake-time backfill would do) before the
// hook snapshots, then re-bases asleepSince so the cycles are not
// double-counted when the element eventually wakes. Dense, event-driven
// and sharded snapshots are bit-identical because of this rebase.
func (f *Fabric) checkpointSleepers(st *runState) error {
	last := f.cycle - 1
	for i := range st.awake {
		if st.awake[i] {
			continue
		}
		if sk := f.prep.skips[i]; sk != nil {
			sk.SkipCycles(last - st.asleepSince[i])
		}
		st.asleepSince[i] = last
	}
	return f.ckptFn(f.cycle)
}

// commitChannels runs the tick phase over the active list: commit every
// active channel, wake the endpoints of channels that changed, maintain
// the busy census, and drop channels that went quiet (known endpoints
// only — unknown-endpoint channels are ticked forever, conservatively).
// Per-channel effects are independent, so the order of the active list
// never influences results.
func (f *Fabric) commitChannels(st *runState, cur int64) {
	chans, prep := f.chans, &f.prep
	next := st.spare[:0]
	for _, ci := range st.activeList {
		ch := chans[ci]
		ends := prep.ends[ci]
		changed, busy, quiet := ch.Commit()
		if changed {
			if ends[0] < 0 || ends[1] < 0 {
				// Unknown endpoint: wake everything attached anywhere.
				for ei := range st.awake {
					f.wake(st, ei, cur)
				}
			} else {
				f.wake(st, ends[0], cur)
				f.wake(st, ends[1], cur)
			}
		}
		if busy != st.isBusy[ci] {
			st.isBusy[ci] = busy
			if busy {
				st.busyCount++
			} else {
				st.busyCount--
			}
		}
		if quiet && ends[0] >= 0 && ends[1] >= 0 {
			st.active[ci] = false
		} else {
			next = append(next, ci)
		}
	}
	st.spare = st.activeList[:0]
	st.activeList = next
}

// runEvent is the event-driven stepper. Invariants (see DESIGN.md):
//
//   - An element is asleep only if its last Step returned false and no
//     attached channel has committed a change since. Step is pure for
//     unchanged inputs, so every skipped cycle would have been a no-work
//     cycle with the same outcome; SkipCycles backfills the counters.
//   - A channel is outside the tick list only if it is Quiet (nothing
//     staged, nothing in flight), in which case Tick would be a no-op.
//     Elements stage effects only in cycles where Step returns true, so
//     re-activating the channels of every worked element restores the
//     invariant before the next tick phase.
func (f *Fabric) runEvent(ctx context.Context, maxCycles int64) (Result, error) {
	st := f.initRunState()
	elems, prep := f.elems, &f.prep
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
		mayFreeze := false
		if f.inj != nil {
			f.inj.BeginCycle(cur)
			// Frozen implies an active freeze window (see FaultInjector), so
			// the per-element Frozen call is skipped whole cycles at a time.
			mayFreeze = f.inj.Active()
		}
		worked := false
		// Indexing awake (1 byte/element) instead of ranging over the
		// interface slice keeps the scan over mostly-sleeping fabrics in
		// one or two cache lines.
		for i := range st.awake {
			if !st.awake[i] {
				continue
			}
			if mayFreeze && f.inj.Frozen(elems[i]) {
				// Frozen: skip the step but stay awake, so stepping
				// resumes the cycle the freeze ends even if no channel
				// changes in between. The cycle is accounted immediately
				// (an asleep frozen element is instead covered by its
				// wake-time backfill, exactly as under dense stepping).
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
				worked = true
				for _, ci := range prep.elemCh[i] {
					// A worked element's untouched channels are still
					// quiet here (staging is the only way to unquiet a
					// channel mid-cycle), and Tick on a quiet channel is
					// a no-op — so only channels with staged effects
					// need to join the tick list.
					if !st.active[ci] && !f.chans[ci].Quiet() {
						st.active[ci] = true
						st.activeList = append(st.activeList, ci)
					}
				}
				if snk := prep.sinkOf[i]; snk != nil && !st.sinkDone[i] && snk.Completed() {
					st.sinkDone[i] = true
					st.sinksLeft--
				}
			} else if h := prep.hints[i]; h == nil || !h.NeedsStep() {
				st.awake[i] = false
				st.asleepSince[i] = cur
			}
		}

		f.commitChannels(st, cur)

		if done, res, err := f.epilogue(st, worked); done {
			return res, err
		}
	}
	f.backfillSleepers(st)
	return Result{Cycles: f.cycle}, fmt.Errorf("after %d cycles: %w", f.cycle, ErrTimeout)
}

// countIdle advances the quiescence streak for the cycle just committed
// and reports whether that cycle was idle. Steppers call it before the
// checkpoint hook, so a snapshot taken there holds the streak the next
// cycle continues from.
func (f *Fabric) countIdle(quiet bool) bool {
	idle := quiet && (f.inj == nil || !f.inj.Active())
	if idle {
		f.idleStreak++
	} else {
		f.idleStreak = 0
	}
	return idle
}

// quiesced ends a run whose idle streak reached the quiescence window:
// completion for a sinkless fabric, deadlock otherwise.
func (f *Fabric) quiesced() (Result, error) {
	res := Result{Cycles: f.cycle, Quiesced: true}
	if len(f.sinks) == 0 {
		res.Completed = true
		return res, nil
	}
	return res, fmt.Errorf("cycle %d: %w: %s", f.cycle, ErrDeadlock, f.diagnoseDeadlock())
}

// epilogue is the end-of-cycle bookkeeping shared by the event-driven
// and sharded steppers: advance time, surface element faults, detect
// completion, track quiescence, and checkpoint. It reports done=true
// when the run must return (res, err).
func (f *Fabric) epilogue(st *runState, worked bool) (bool, Result, error) {
	f.cycle++
	for _, fe := range f.prep.faulties {
		if err := fe.f.Err(); err != nil {
			f.backfillSleepers(st)
			return true, Result{Cycles: f.cycle}, fmt.Errorf("cycle %d: element %s: %w", f.cycle, fe.e.Name(), err)
		}
	}
	if len(f.sinks) > 0 && st.sinksLeft == 0 {
		f.backfillSleepers(st)
		return true, Result{Cycles: f.cycle, Completed: true}, nil
	}
	idle := f.countIdle(!worked && st.busyCount == 0)
	if f.ckptFn != nil && f.cycle%f.ckptEvery == 0 {
		if err := f.checkpointSleepers(st); err != nil {
			return true, Result{Cycles: f.cycle}, fmt.Errorf("cycle %d: checkpoint: %w", f.cycle, err)
		}
	}
	if idle && f.idleStreak >= f.cfg.QuiescenceWindow {
		f.backfillSleepers(st)
		res, err := f.quiesced()
		return true, res, err
	}
	return false, Result{}, nil
}

// wake marks an element runnable again, backfilling the cycles it slept
// through.
func (f *Fabric) wake(st *runState, ei int, cur int64) {
	if st.awake[ei] {
		return
	}
	st.awake[ei] = true
	if sk := f.prep.skips[ei]; sk != nil {
		sk.SkipCycles(cur - st.asleepSince[ei])
	}
}

func (f *Fabric) sinksDone() bool {
	if len(f.sinks) == 0 {
		return false
	}
	for _, s := range f.sinks {
		if !s.Completed() {
			return false
		}
	}
	return true
}

// describeStall summarizes which sinks are unfinished, which channels
// still hold tokens, and what each dumpable element is waiting on, to
// make deadlock reports actionable. Sinks, channels and element dumps
// are each sorted by name, so the report is deterministic and diffable;
// the channel dump is capped so reports on large fabrics stay readable.
func (f *Fabric) describeStall() string {
	const maxChans = 32
	var b strings.Builder
	var stalled []*Sink
	for _, s := range f.sinks {
		if !s.Completed() {
			stalled = append(stalled, s)
		}
	}
	sort.Slice(stalled, func(i, j int) bool { return stalled[i].Name() < stalled[j].Name() })
	for _, s := range stalled {
		fmt.Fprintf(&b, " sink %s received %d tokens;", s.Name(), len(s.Tokens()))
	}
	var busy []*channel.Channel
	for _, ch := range f.chans {
		if ch.Len() > 0 {
			busy = append(busy, ch)
		}
	}
	sort.Slice(busy, func(i, j int) bool { return busy[i].Name() < busy[j].Name() })
	for i, ch := range busy {
		if i == maxChans {
			fmt.Fprintf(&b, " (+%d more channels with tokens)", len(busy)-maxChans)
			break
		}
		fmt.Fprintf(&b, " channel %s holds %d tokens;", ch.Name(), ch.Len())
	}
	f.prepare()
	dumpers := append([]dumperElem(nil), f.prep.dumpers...)
	sort.Slice(dumpers, func(i, j int) bool { return dumpers[i].name < dumpers[j].name })
	for _, d := range dumpers {
		b.WriteString(" [")
		b.WriteString(d.d.DumpState())
		b.WriteString("]")
	}
	if b.Len() == 0 {
		return "no tokens anywhere (starvation)"
	}
	return b.String()
}

// Cycle returns the current simulation time.
func (f *Fabric) Cycle() int64 { return f.cycle }

// Reset restores every resettable element and empties every channel so
// the same fabric can run again.
func (f *Fabric) Reset() {
	f.prepare()
	for _, r := range f.prep.resets {
		r.Reset()
	}
	for _, ch := range f.chans {
		ch.Reset()
	}
	f.cycle = 0
	f.idleStreak = 0
}
