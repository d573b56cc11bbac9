package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share req; parent names the span that caused this one ("" for a root).
type span struct {
	req          int
	name, parent string
	start, end   time.Time
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// tracer keeps spans in memory until the run ends. Recording is off
// outside the traced windows, where the middleware costs one atomic load.
type tracer struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// requestHeader carries the benchmark's request id from the client to
// the first handler. The coordinator does not forward it; workers behind
// a coordinator find the id in the body's job_id instead.
const requestHeader = "X-Bench-Request"

// wrap times every request through h as a span named name whose parent
// is parent.
func (t *tracer) wrap(name, parent string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		// The span starts before the body is read, as the handler's own
		// decode would.
		start := time.Now()
		idx, ok := headerRequest(r)
		if !ok {
			idx, ok = bodyRequest(r)
		}
		h.ServeHTTP(w, r)
		if ok {
			t.add(span{req: idx, name: name, parent: parent, start: start, end: time.Now()})
		}
	})
}

func headerRequest(r *http.Request) (int, bool) {
	v := r.Header.Get(requestHeader)
	if v == "" {
		return 0, false
	}
	return parseRequestID(v)
}

// bodyRequest reads the request body to find its job_id and puts the
// bytes back for the handler.
func bodyRequest(r *http.Request) (int, bool) {
	body, err := io.ReadAll(r.Body)
	r.Body.Close()
	r.Body = io.NopCloser(bytes.NewReader(body))
	if err != nil {
		return 0, false
	}
	const field = `"job_id":"`
	i := bytes.Index(body, []byte(field))
	if i < 0 {
		return 0, false
	}
	rest := body[i+len(field):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return 0, false
	}
	return parseRequestID(string(rest[:j]))
}

func parseRequestID(id string) (int, bool) {
	if len(id) < 2 || id[0] != 'r' {
		return 0, false
	}
	n, err := strconv.Atoi(id[1:])
	return n, err == nil
}

// layerTimes sums self time and counts per span name. Self time is a
// span's duration minus the part of it its children cover.
type layerTimes map[string]*layerTime

type layerTime struct {
	n    int
	self time.Duration
}

// meanUs is the mean self time per span of name, in microseconds.
func (lt layerTimes) meanUs(name string) float64 {
	l := lt[name]
	if l == nil || l.n == 0 {
		return 0
	}
	return float64(l.self.Nanoseconds()) / 1e3 / float64(l.n)
}

func selfTimes(spans []span) layerTimes {
	byReq := map[int][]span{}
	for _, s := range spans {
		byReq[s.req] = append(byReq[s.req], s)
	}
	out := layerTimes{}
	for _, group := range byReq {
		for _, s := range group {
			var kids []span
			for _, c := range group {
				if c.parent == s.name {
					kids = append(kids, c)
				}
			}
			l := out[s.name]
			if l == nil {
				l = &layerTime{}
				out[s.name] = l
			}
			l.n++
			l.self += s.dur() - covered(s, kids)
		}
	}
	return out
}

// covered is how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].start.Before(kids[j].start) })
	var total time.Duration
	cur := parent.start
	for _, k := range kids {
		s, e := k.start, k.end
		if s.Before(cur) {
			s = cur
		}
		if e.After(parent.end) {
			e = parent.end
		}
		if e.After(s) {
			total += e.Sub(s)
			cur = e
		}
	}
	return total
}

// writeSpans writes every span as one JSON line, times in nanoseconds
// from origin.
func writeSpans(path string, spans []span, origin time.Time) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range spans {
		fmt.Fprintf(w, "{\"req\":%d,\"name\":%q,\"parent\":%q,\"start_ns\":%d,\"end_ns\":%d}\n",
			s.req, s.name, s.parent, s.start.Sub(origin).Nanoseconds(), s.end.Sub(origin).Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
