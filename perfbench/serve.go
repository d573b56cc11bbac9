package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"time"

	"tia/internal/fleet"
	"tia/internal/service"
)

// workload fixes how one traffic mix is served and driven.
type workload struct {
	name    string
	clients int
	// viaFleet routes through a coordinator to two single-worker
	// servers instead of posting straight to one server.
	viaFleet bool
	// warmup is the number of requests discarded before timing. The
	// warm-up of the kept set-up is also the stream prefix whose outputs
	// are digested and whose modelled counts are reported, which makes
	// those counts exact per seed whatever the timed window reaches.
	warmup int
}

var workloadDefs = map[string]workload{
	"suite-cold":  {name: "suite-cold", clients: 2, warmup: 512},
	"service-mix": {name: "service-mix", clients: 2, viaFleet: true, warmup: 4000},
	"campaign":    {name: "campaign", clients: 1, warmup: 16},
}

// harness is one set-up of a workload: servers, optional coordinator,
// loopback HTTP listeners and the request stream.
type harness struct {
	wl      workload
	stream  *stream
	servers []*service.Server
	coord   *fleet.Coordinator
	httpSrv []*httptest.Server
	target  string
	client  *http.Client
	tr      *tracer
}

// setUp builds the servers from service.DefaultConfig, the coordinator
// when the workload routes through one, and the request stream. tr,
// when non-nil, wraps every handler in timing middleware.
func setUp(wl workload, seed int64, tr *tracer) (*harness, error) {
	st, err := newStream(wl.name, seed)
	if err != nil {
		return nil, err
	}
	h := &harness{wl: wl, stream: st, tr: tr}
	nServers, workerParent := 1, "client"
	if wl.viaFleet {
		nServers, workerParent = 2, "coordinator"
	}
	var urls []string
	for i := 0; i < nServers; i++ {
		cfg := service.DefaultConfig()
		if wl.viaFleet {
			cfg.Workers = 1
		}
		srv, err := service.New(cfg)
		if err != nil {
			h.close()
			return nil, fmt.Errorf("start server: %w", err)
		}
		h.servers = append(h.servers, srv)
		ts := httptest.NewServer(h.handler("worker", workerParent, srv.Handler()))
		h.httpSrv = append(h.httpSrv, ts)
		urls = append(urls, ts.URL)
	}
	h.target = urls[0]
	if wl.viaFleet {
		h.coord, err = fleet.New(fleet.Config{Workers: urls})
		if err != nil {
			h.close()
			return nil, fmt.Errorf("start coordinator: %w", err)
		}
		ts := httptest.NewServer(h.handler("coordinator", "client", h.coord.Handler()))
		h.httpSrv = append(h.httpSrv, ts)
		h.target = ts.URL
	}
	// The timeout only stops a hung server from hanging the run; the
	// slowest job here takes well under a second.
	h.client = &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: wl.clients}}
	return h, nil
}

func (h *harness) handler(name, parent string, next http.Handler) http.Handler {
	if h.tr == nil {
		return next
	}
	return h.tr.wrap(name, parent, next)
}

func (h *harness) close() {
	if h.client != nil {
		h.client.CloseIdleConnections()
	}
	if h.coord != nil {
		h.coord.Close()
	}
	for _, ts := range h.httpSrv {
		ts.Close()
	}
	for _, s := range h.servers {
		s.Drain()
	}
}

// cacheCounts sums the servers' cache counters.
func (h *harness) cacheCounts() (resHit, resMiss, progHit, progMiss int64) {
	for _, s := range h.servers {
		m := s.Metrics()
		resHit += m.ResultHits.Load()
		resMiss += m.ResultMisses.Load()
		progHit += m.ProgramHits.Load()
		progMiss += m.ProgramMisses.Load()
	}
	return
}

// outcome is what one response said, reduced to what the checks need.
type outcome struct {
	req      request
	done     time.Time
	latency  time.Duration
	err      string // non-empty: the request failed or its output was wrong
	cycles   int64
	digest   [32]byte // sink tokens (kernel and netlist jobs)
	cached   bool
	lanes    int
	campaign service.CampaignSummary
	// violation is the server's verdict on a timing campaign whose
	// perturbed run changed the output. It is a finding about the
	// simulated machine, not a failed request, as long as the direct
	// replay reaches the same verdict.
	violation string
}

// window is the record of one closed-loop stretch of traffic.
type window struct {
	start    time.Time
	elapsed  time.Duration
	outcomes []outcome
}

// drive runs the workload's clients closed loop: each sends its next
// request only when the previous one has returned. Clients stop at the
// deadline, or once count requests are taken when count > 0.
func (h *harness) drive(d time.Duration, count int) window {
	deadline := time.Now().Add(d)
	per := make([][]outcome, h.wl.clients)
	var taken sync.Mutex
	n := 0
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < h.wl.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				if count > 0 {
					taken.Lock()
					if n >= count {
						taken.Unlock()
						return
					}
					n++
					taken.Unlock()
				} else if !time.Now().Before(deadline) {
					return
				}
				per[c] = append(per[c], h.send(h.stream.take()))
			}
		}(c)
	}
	wg.Wait()
	w := window{start: start, elapsed: time.Since(start)}
	for _, o := range per {
		w.outcomes = append(w.outcomes, o...)
	}
	sort.Slice(w.outcomes, func(i, j int) bool { return w.outcomes[i].req.idx < w.outcomes[j].req.idx })
	return w
}

// send posts one request and checks what can be checked at once.
// Latency runs from the start of the POST to the fully read body.
func (h *harness) send(r request) outcome {
	o := outcome{req: r}
	if r.repeat {
		o.req.body = nil
	}
	hr, err := http.NewRequest(http.MethodPost, h.target+"/v1/jobs", bytes.NewReader(r.body))
	if err != nil {
		o.err = err.Error()
		return o
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set(requestHeader, requestID(r.idx))
	start := time.Now()
	resp, err := h.client.Do(hr)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	end := time.Now()
	o.done, o.latency = end, end.Sub(start)
	if h.tr != nil && h.tr.on.Load() {
		h.tr.add(span{req: r.idx, name: "client", start: start, end: end})
	}
	if err != nil {
		o.err = err.Error()
		return o
	}
	if r.timing && resp.StatusCode == http.StatusUnprocessableEntity {
		if msg, ok := violationVerdict(body); ok {
			o.violation = msg
			return o
		}
	}
	if resp.StatusCode != http.StatusOK {
		o.err = fmt.Sprintf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		return o
	}
	var res service.JobResult
	if err := json.Unmarshal(body, &res); err != nil {
		o.err = fmt.Sprintf("decode result: %v", err)
		return o
	}
	o.cycles, o.cached, o.lanes = res.Cycles, res.Cached, res.Lanes
	switch r.kind {
	case kindKernel:
		if !res.Verified {
			o.err = "workload job not verified against its reference"
		}
		o.digest = sinkDigest(res.Sinks)
	case kindNetlist:
		if !res.Completed {
			o.err = "netlist job did not complete"
		}
		o.digest = sinkDigest(res.Sinks)
	case kindCampaign:
		if res.Campaign == nil || res.Campaign.Runs != campaignRuns {
			o.err = fmt.Sprintf("campaign result lacks a %d-run taxonomy", campaignRuns)
			return o
		}
		o.campaign = *res.Campaign
	}
	return o
}

// violationText marks the error internal/core returns when a timing
// fault changed a run's output: the latency-insensitivity contract
// failed. The service answers it as a verify error.
const violationText = "latency-insensitivity violated under timing faults"

// violationVerdict extracts a latency-insensitivity verdict from an
// error response body.
func violationVerdict(body []byte) (string, bool) {
	var e struct {
		Error *service.JobError `json:"error"`
	}
	if json.Unmarshal(body, &e) != nil || e.Error == nil || e.Error.Kind != service.ErrVerify ||
		!strings.Contains(e.Error.Message, violationText) {
		return "", false
	}
	return e.Error.Message, true
}

// sinkDigest hashes sink names and their rendered tokens in name order.
func sinkDigest(sinks map[string][]string) [32]byte {
	names := make([]string, 0, len(sinks))
	for n := range sinks {
		names = append(names, n)
	}
	sort.Strings(names)
	hs := sha256.New()
	for _, n := range names {
		io.WriteString(hs, n+":")
		for _, t := range sinks[n] {
			io.WriteString(hs, t+",")
		}
		io.WriteString(hs, ";")
	}
	var d [32]byte
	copy(d[:], hs.Sum(nil))
	return d
}
