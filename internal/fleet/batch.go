package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"

	"tia/internal/asm"
	"tia/internal/isa"
	"tia/internal/pcpe"
	"tia/internal/service"
)

// BatchRequest fans one campaign out across the fleet
// (POST /v1/batches). Runs come from either an explicit Requests list
// or a Template crossed with Seeds (run i is the template with
// Seeds[i]); exactly one of the two must be used. Each run routes
// independently through the affinity ring, so a seed sweep spreads
// across workers while repeated sweeps keep hitting the same workers'
// caches.
type BatchRequest struct {
	// Template plus Seeds expands to len(Seeds) runs.
	Template service.JobRequest `json:"template"`
	Seeds    []int64            `json:"seeds,omitempty"`
	// SeedCount plus SeedStart is the dense form of Seeds: SeedCount
	// runs seeded SeedStart, SeedStart+1, ... Must be positive when set.
	SeedCount int   `json:"seed_count,omitempty"`
	SeedStart int64 `json:"seed_start,omitempty"`
	// Requests lists fully explicit runs instead. Runs may carry their
	// own JobIDs (e.g. for later status lookups) but they must be unique
	// within the batch.
	Requests []service.JobRequest `json:"requests,omitempty"`
	// Stream selects NDJSON delivery: one BatchRow per line, written the
	// moment its run finishes (completion order). Without it the
	// response is one BatchResult with rows sorted by run index — i.e.
	// by seed order for a Template+Seeds sweep.
	Stream bool `json:"stream,omitempty"`
}

// BatchRow is one run's outcome. Exactly one of Result or Error is set.
type BatchRow struct {
	// Index is the run's position in the expanded request (Seeds or
	// Requests order) — the deterministic collation key.
	Index int `json:"index"`
	// Seed echoes the run's seed for Template+Seeds sweeps.
	Seed   int64              `json:"seed,omitempty"`
	Worker string             `json:"worker,omitempty"`
	Result *service.JobResult `json:"result,omitempty"`
	Error  *service.JobError  `json:"error,omitempty"`
	// Cached and Batched mirror the row's Result provenance (served
	// from the worker's result cache; campaign executed on reused
	// instances) at the top level, so sweep consumers can account cache
	// hits and batched execution without unpacking every payload.
	Cached  bool `json:"cached,omitempty"`
	Batched bool `json:"batched,omitempty"`
}

// BatchResult is the buffered (non-streaming) batch response.
type BatchResult struct {
	Runs      int        `json:"runs"`
	Completed int        `json:"completed"`
	Failed    int        `json:"failed"`
	Rows      []BatchRow `json:"rows"`
}

// expandBatch turns the request into the concrete run list, validating
// it strictly: exactly one expansion mode, positive seed counts, unique
// explicit JobIDs, no resume snapshots, and a template netlist that
// passes the structural validator (so a doomed sweep is rejected in one
// coordinator-side check instead of fanning N identical failures out
// across the fleet).
func expandBatch(req *BatchRequest, maxRuns int) ([]service.JobRequest, *service.JobError) {
	bad := func(format string, args ...any) *service.JobError {
		return &service.JobError{Kind: service.ErrBadRequest, Message: fmt.Sprintf(format, args...)}
	}
	modes := 0
	if len(req.Requests) > 0 {
		modes++
	}
	if len(req.Seeds) > 0 {
		modes++
	}
	if req.SeedCount != 0 || req.SeedStart != 0 {
		modes++
	}
	if modes > 1 {
		return nil, bad("batch: set exactly one of requests, template+seeds, or template+seed_count")
	}
	if req.SeedCount < 0 {
		return nil, bad("batch: seed_count %d must be positive", req.SeedCount)
	}
	if req.SeedStart != 0 && req.SeedCount == 0 {
		return nil, bad("batch: seed_start needs a positive seed_count")
	}
	templated := len(req.Seeds) > 0 || req.SeedCount > 0
	if templated {
		if req.Template.JobID != "" || len(req.Template.ResumeSnapshot) > 0 {
			return nil, bad("batch: template job_id and resume_snapshot are per-job options, not batch options")
		}
		// Vet the template once before fanning it out: a netlist that
		// fails validation would fail identically on every worker.
		if req.Template.Netlist != "" {
			if _, err := asm.CheckNetlist(req.Template.Netlist, isa.DefaultConfig(), pcpe.DefaultConfig()); err != nil {
				return nil, bad("batch: template netlist: %v", err)
			}
		}
	}
	var runs []service.JobRequest
	switch {
	case len(req.Requests) > 0:
		runs = append(runs, req.Requests...)
	case len(req.Seeds) > 0:
		runs = make([]service.JobRequest, len(req.Seeds))
		for i, seed := range req.Seeds {
			r := req.Template
			r.Seed = seed
			runs[i] = r
		}
	case req.SeedCount > 0:
		if req.SeedCount > maxRuns {
			return nil, bad("batch: %d runs exceeds the limit of %d", req.SeedCount, maxRuns)
		}
		runs = make([]service.JobRequest, req.SeedCount)
		for i := range runs {
			r := req.Template
			r.Seed = req.SeedStart + int64(i)
			runs[i] = r
		}
	default:
		return nil, bad("batch: no runs (set requests, or template plus seeds)")
	}
	if len(runs) > maxRuns {
		return nil, bad("batch: %d runs exceeds the limit of %d", len(runs), maxRuns)
	}
	seenIDs := make(map[string]int)
	for i := range runs {
		if len(runs[i].ResumeSnapshot) > 0 {
			return nil, bad("batch: run %d: resume_snapshot is a per-job option, not a batch option", i)
		}
		if id := runs[i].JobID; id != "" {
			if first, dup := seenIDs[id]; dup {
				return nil, bad("batch: runs %d and %d share job_id %q", first, i, id)
			}
			seenIDs[id] = i
		}
	}
	return runs, nil
}

// handleBatches fans a campaign across the fleet.
func (c *Coordinator) handleBatches(w http.ResponseWriter, r *http.Request) {
	if c.draining.Load() {
		service.WriteError(w, service.DrainingError())
		return
	}
	var req BatchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, c.cfg.MaxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		service.WriteError(w, &service.JobError{Kind: service.ErrBadRequest, Message: fmt.Sprintf("decode request: %v", err)})
		return
	}
	runs, jerr := expandBatch(&req, c.cfg.MaxBatchRuns)
	if jerr != nil {
		service.WriteError(w, jerr)
		return
	}
	c.metrics.BatchRuns.Add(1)
	c.metrics.BatchRows.Add(int64(len(runs)))

	if req.Stream {
		c.streamBatch(w, r.Context(), runs)
		return
	}
	rows := c.runBatch(r.Context(), runs, nil)
	sort.Slice(rows, func(a, b int) bool { return rows[a].Index < rows[b].Index })
	out := BatchResult{Runs: len(rows), Rows: rows}
	for _, row := range rows {
		if row.Error != nil {
			out.Failed++
		} else {
			out.Completed++
		}
	}
	service.WriteJSON(w, http.StatusOK, out)
}

// streamBatch delivers rows as NDJSON in completion order. Every run
// yields exactly one row; the stream ends when all runs have reported.
func (c *Coordinator) streamBatch(w http.ResponseWriter, ctx context.Context, runs []service.JobRequest) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	var mu sync.Mutex
	emit := func(row BatchRow) {
		mu.Lock()
		defer mu.Unlock()
		_ = enc.Encode(row) // one line per row
		if flusher != nil {
			flusher.Flush()
		}
	}
	c.runBatch(ctx, runs, emit)
}

// runBatch routes every run with bounded concurrency. When emit is
// non-nil each row is handed to it on completion (streaming); the
// returned slice always carries every row exactly once.
func (c *Coordinator) runBatch(ctx context.Context, runs []service.JobRequest, emit func(BatchRow)) []BatchRow {
	rows := make([]BatchRow, len(runs))
	sem := make(chan struct{}, c.cfg.BatchConcurrency)
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			row := BatchRow{Index: i, Seed: runs[i].Seed}
			res, workerURL, err := c.routeJob(ctx, &runs[i])
			row.Worker = workerURL
			if err != nil {
				if je, ok := asJobError(err); ok {
					row.Error = je
				} else {
					row.Error = &service.JobError{Kind: service.ErrUnavailable, Message: err.Error()}
				}
			} else {
				row.Result = res
				row.Cached = res.Cached
				row.Batched = res.Batched
			}
			rows[i] = row
			if emit != nil {
				emit(row)
			}
		}(i)
	}
	wg.Wait()
	return rows
}
