package service

import "sync"

// cacheKey addresses one analysis result by content: the SHA-256 of the
// uploaded trace bytes plus the fingerprint of every option that shapes
// the result (analysis options, decode options, input format). Identical
// bytes analyzed under identical options are the same result, whoever
// uploaded them.
type cacheKey struct {
	Digest      string
	Fingerprint string
}

// result is one finished analysis as the service serves it: the HTTP
// status and rendered report document, plus every export artifact rendered
// to bytes. Rendering happens once, at job completion — the export layer
// guarantees byte-identical renders, so serving from here is exactly the
// "free re-analysis" the store promises, byte for byte.
type result struct {
	key       cacheKey
	outcome   string
	code      int               // HTTP status the result serves with
	trace     string            // trace ID of the lifecycle that produced it
	report    []byte            // the JSON result document
	artifacts map[string][]byte // name → rendered bytes (perfetto.json, ...)
	size      int64             // report + artifacts, the store weight
}

func (r *result) weigh() {
	r.size = int64(len(r.report))
	for _, b := range r.artifacts {
		r.size += int64(len(b))
	}
}

// flight is one in-progress analysis that concurrent identical uploads
// coalesce onto: the leader runs the job, everyone waits on done, and the
// result is published before done closes.
type flight struct {
	done chan struct{}
	res  *result // set before done closes
}

// flightGroup is the single-flight table keyed like the cache, so two
// concurrent uploads of the same bytes under the same options run one
// analysis, not two.
type flightGroup struct {
	mu sync.Mutex
	m  map[cacheKey]*flight
}

func newFlightGroup() *flightGroup {
	return &flightGroup{m: make(map[cacheKey]*flight)}
}

// join returns the flight for k, creating it when absent; leader reports
// whether the caller created it (and therefore owns running the job and
// completing the flight).
func (g *flightGroup) join(k cacheKey) (f *flight, leader bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.m[k]; ok {
		return f, false
	}
	f = &flight{done: make(chan struct{})}
	g.m[k] = f
	return f, true
}

// complete publishes the leader's result to every waiter and retires the
// flight; later identical uploads go through the store (or start fresh).
func (g *flightGroup) complete(k cacheKey, r *result) {
	g.mu.Lock()
	f := g.m[k]
	delete(g.m, k)
	g.mu.Unlock()
	if f != nil {
		f.res = r
		close(f.done)
	}
}

// abort retires a flight whose job never started (queue full): waiters are
// released with a nil result, which handlers map to the same 503 the
// leader returns.
func (g *flightGroup) abort(k cacheKey) {
	g.complete(k, nil)
}
