package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"

	"tia/internal/core"
	"tia/internal/faults"
	"tia/internal/gen"
	"tia/internal/service"
	"tia/internal/workloads"
)

// kind is the class of one generated job.
type kind uint8

const (
	kindKernel   kind = iota // workload job for one of the paper's kernels
	kindNetlist              // generated netlist job
	kindCampaign             // fault campaign on one kernel
)

func (k kind) String() string {
	return [...]string{"kernel", "netlist", "campaign"}[k]
}

// campaignRuns is the perturbed-run count of every campaign request.
const campaignRuns = 64

// Sizes of the service-mix input sets. The fresh pool is walked in
// order, so a fresh netlist recurs only after freshPool more fresh
// draws (about 2.5x that many requests). That reuse distance is 8x the
// largest cache on the request path (the 1024-entry result cache), so
// every cache sees a fresh netlist as never seen before.
const (
	hotNetlists = 64
	freshPool   = 8192
)

// request is one generated job: the body the client posts and what the
// checker needs to know about it.
type request struct {
	idx  int
	kind kind
	// key names the distinct input: requests with equal keys must get
	// equal results, and the replay runs each key once.
	key string
	// repeat marks a key seen at a lower index; the client drops its
	// body once sent, so memory does not grow with the request count.
	repeat bool
	// timing marks a campaign under a timing-fault plan.
	timing bool
	body   []byte
}

// stream is a workload's seeded request generator. Request i is a pure
// function of the seed and i: choices are drawn in index order under a
// lock, whichever client asks.
type stream struct {
	wl      string
	seed    int64
	kernels []string
	hot     []string // service-mix: the repeated netlists
	fresh   []string // service-mix: the fresh-netlist pool

	mu        sync.Mutex
	rng       *rand.Rand
	next      int
	freshNext int
	seen      map[string]bool
	// Decks deal every kernel (or mix slot) once per round in a seeded
	// order, so every seed sends the same mix and seeds differ only in
	// order and inputs.
	kernelDeck, timingDeck, mixDeck deck
}

// deck deals 0..n-1 in a fresh seeded permutation per round.
type deck struct {
	n     int
	cards []int
}

func (d *deck) draw(rng *rand.Rand) int {
	if len(d.cards) == 0 {
		d.cards = rng.Perm(d.n)
	}
	c := d.cards[0]
	d.cards = d.cards[1:]
	return c
}

// newStream builds the generator and the netlist sets it draws from.
func newStream(wl string, seed int64) (*stream, error) {
	s := &stream{wl: wl, seed: seed, rng: rand.New(rand.NewSource(seed)), seen: map[string]bool{}}
	for _, spec := range workloads.All() {
		s.kernels = append(s.kernels, spec.Name)
	}
	s.kernelDeck.n, s.timingDeck.n, s.mixDeck.n = len(s.kernels), len(s.kernels), 10
	switch wl {
	case "suite-cold", "campaign":
	case "service-mix":
		// A separate source keeps the netlist sets independent of the
		// request choices.
		nr := rand.New(rand.NewSource(seed ^ 0x5eed_ba5e))
		// The hot set is every 8th of 8x as many candidates sorted by
		// size. It spans the generator's size distribution at fixed
		// quantiles, so every seed's hot set costs about the same; 64
		// plain draws vary by 15% in parse-and-run cost across seeds.
		cands := make([]string, 8*hotNetlists)
		for i := range cands {
			cands[i] = gen.Netlist(gen.Params{Seed: nr.Int63()})
		}
		sort.SliceStable(cands, func(i, j int) bool { return len(cands[i]) < len(cands[j]) })
		s.hot = make([]string, hotNetlists)
		for i := range s.hot {
			s.hot[i] = cands[8*i+4]
		}
		s.fresh = make([]string, freshPool)
		for i := range s.fresh {
			s.fresh[i] = gen.Netlist(gen.Params{Seed: nr.Int63()})
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", wl)
	}
	return s, nil
}

// take returns the next request of the stream.
func (s *stream) take() request {
	s.mu.Lock()
	idx := s.next
	s.next++
	var r request
	var job service.JobRequest
	switch s.wl {
	case "suite-cold":
		// A fresh input seed per request: every job misses the result
		// cache and pays for build, simulate and verify.
		job.Workload = s.kernels[s.kernelDeck.draw(s.rng)]
		job.Seed = 1 + s.rng.Int63n(1<<40)
		r.kind = kindKernel
	case "service-mix":
		// Four slots in ten are fresh netlists, four hot, two kernels.
		switch u := s.mixDeck.draw(s.rng); {
		case u < 4:
			n := s.freshNext % len(s.fresh)
			s.freshNext++
			job.Netlist = s.fresh[n]
			r.kind = kindNetlist
			r.key = "fresh/" + strconv.Itoa(n)
		case u < 8:
			n := s.rng.Intn(len(s.hot))
			job.Netlist = s.hot[n]
			r.kind = kindNetlist
			r.key = "hot/" + strconv.Itoa(n)
		default:
			job.Workload = s.kernels[s.rng.Intn(len(s.kernels))]
			job.Seed = s.seed
			r.kind = kindKernel
		}
	case "campaign":
		timing := idx%2 == 1
		d := &s.kernelDeck
		if timing {
			d = &s.timingDeck
		}
		job.Workload = s.kernels[d.draw(s.rng)]
		job.Faults = campaignRequest(timing, 1+s.rng.Int63n(1<<40))
		r.kind, r.timing = kindCampaign, timing
	}
	if r.key == "" {
		r.key = fmt.Sprintf("%s/%s/%d", r.kind, job.Workload, job.Seed)
		if job.Faults != nil {
			r.key += fmt.Sprintf("/%d/%t", job.Faults.Seed, job.Faults.JitterRate > 0)
		}
	}
	r.repeat = s.seen[r.key]
	s.seen[r.key] = true
	s.mu.Unlock()

	r.idx = idx
	job.JobID = requestID(idx)
	body, err := json.Marshal(&job)
	if err != nil {
		panic(fmt.Sprintf("perfbench: marshal request: %v", err)) // plain struct; cannot fail
	}
	r.body = body
	return r
}

// campaignRequest is a 64-run campaign shaped like the default data or
// timing plan of internal/core, under a fresh plan seed.
func campaignRequest(timing bool, seed int64) *service.FaultCampaignRequest {
	var p faults.Plan
	if timing {
		p = core.DefaultTimingPlan(seed)
	} else {
		p = core.DefaultDataPlan(seed)
	}
	return &service.FaultCampaignRequest{
		Runs: campaignRuns, Seed: p.Seed,
		JitterRate: p.JitterRate, JitterMax: p.JitterMax,
		Stalls: p.Stalls, StallMax: p.StallMax,
		Freezes: p.Freezes, FreezeMax: p.FreezeMax,
		FlipRate: p.FlipRate, DropRate: p.DropRate, DupRate: p.DupRate,
	}
}

// requestID is the job id the benchmark assigns to request idx. It
// travels in the body to the worker, so traced handlers on every hop
// can attribute their spans to the request.
func requestID(idx int) string { return "r" + strconv.Itoa(idx) }
