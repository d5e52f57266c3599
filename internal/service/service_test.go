package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"phasefold/internal/core"
	"phasefold/internal/faults"
	"phasefold/internal/simapp"
	"phasefold/internal/trace"
)

// traceBytes builds one encoded pristine trace (shared across tests via
// sync.Once: the simulation is the expensive part).
var (
	traceOnce  sync.Once
	traceData  []byte
	traceData2 []byte // a second, distinct trace
)

func pristineTrace(t testing.TB) []byte {
	t.Helper()
	traceOnce.Do(func() {
		traceData = encodeApp(t, "multiphase", 2, 60, 42)
		traceData2 = encodeApp(t, "cg", 2, 60, 7)
	})
	if traceData == nil || traceData2 == nil {
		t.Fatal("trace generation failed")
	}
	return traceData
}

func secondTrace(t testing.TB) []byte {
	pristineTrace(t)
	return traceData2
}

func encodeApp(t testing.TB, name string, ranks, iters int, seed uint64) []byte {
	t.Helper()
	app, err := simapp.NewApp(name)
	if err != nil {
		t.Fatalf("NewApp: %v", err)
		return nil
	}
	run, err := core.RunApp(app, simapp.Config{Ranks: ranks, Iterations: iters, Seed: seed, FreqGHz: 2}, core.DefaultOptions())
	if err != nil {
		t.Fatalf("RunApp: %v", err)
		return nil
	}
	var buf bytes.Buffer
	if err := trace.Encode(&buf, run.Trace); err != nil {
		t.Fatalf("Encode: %v", err)
		return nil
	}
	return buf.Bytes()
}

// faulted applies a stream-level fault spec to trace bytes.
func faulted(t testing.TB, data []byte, spec string, seed uint64) []byte {
	t.Helper()
	chain, err := faults.Parse(spec, seed)
	if err != nil {
		t.Fatalf("faults.Parse(%q): %v", spec, err)
	}
	return chain.ApplyStream(data)
}

// newTestService builds a service with test-friendly defaults (generous
// quota, small pools) and an httptest front end; mutate tweaks the config
// before construction. Cleanup drains the service.
func newTestService(t *testing.T, mutate func(*Config)) (*Service, *httptest.Server) {
	t.Helper()
	cfg := Defaults()
	cfg.QueueDepth = 16
	cfg.Workers = 4
	cfg.JobTimeout = 30 * time.Second
	cfg.TenantRate = 10000
	cfg.TenantBurst = 100000
	cfg.CacheEntries = 64
	cfg.CacheBytes = 64 << 20
	cfg.SpoolDir = t.TempDir()
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Drain(dctx)
	})
	return s, ts
}

// upload POSTs body to /v1/traces and returns the response with its body
// read out.
func upload(t testing.TB, base string, body []byte, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest("POST", base+"/v1/traces", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, data
}

func TestUploadAnalyzeThenCacheHit(t *testing.T) {
	_, ts := newTestService(t, nil)
	data := pristineTrace(t)

	resp, body := upload(t, ts.URL, data, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first upload: status %d, body %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("first upload X-Cache = %q, want miss", got)
	}
	var doc struct {
		Digest    string            `json:"digest"`
		Outcome   string            `json:"outcome"`
		Artifacts map[string]string `json:"artifacts"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("result is not JSON: %v\n%s", err, body)
	}
	if doc.Outcome != "ok" {
		t.Errorf("outcome %q, want ok (body %s)", doc.Outcome, body)
	}
	if len(doc.Artifacts) != 4 {
		t.Errorf("artifacts %v, want 4 entries", doc.Artifacts)
	}

	// Identical bytes again: served from cache, byte-identical document.
	resp2, body2 := upload(t, ts.URL, data, nil)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("re-upload: status %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("re-upload X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body, body2) {
		t.Error("cache hit served a different document than the original analysis")
	}

	// The stored result and every artifact are addressable by digest.
	for _, path := range []string{
		"/v1/results/" + doc.Digest,
		"/v1/results/" + doc.Digest + "/" + artifactPerfetto,
		"/v1/results/" + doc.Digest + "/" + artifactFlame,
		"/v1/results/" + doc.Digest + "/" + artifactSnapshot,
		"/v1/results/" + doc.Digest + "/" + artifactSnapshotJSON,
	} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK || len(b) == 0 {
			t.Errorf("GET %s: status %d, %d bytes", path, r.StatusCode, len(b))
		}
	}
	if r, _ := http.Get(ts.URL + "/v1/results/" + doc.Digest + "/nope"); r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown artifact: status %d, want 404", r.StatusCode)
	}
}

func TestDamagedUploadDegradesSalvage(t *testing.T) {
	_, ts := newTestService(t, nil)
	chopped := faulted(t, pristineTrace(t), "chop=0.3", 7)

	resp, body := upload(t, ts.URL, chopped, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chopped upload: status %d, body %s", resp.StatusCode, body)
	}
	var doc struct {
		Outcome  string `json:"outcome"`
		Degraded bool   `json:"degraded"`
		Detail   string `json:"detail"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Outcome != "degraded" || !doc.Degraded {
		t.Errorf("chopped trace outcome %q degraded=%v, want degraded/true (%s)", doc.Outcome, doc.Degraded, body)
	}
}

func TestGarbageUploadFails422(t *testing.T) {
	_, ts := newTestService(t, nil)
	resp, body := upload(t, ts.URL, []byte("this is not a trace file at all, not even close"), nil)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("garbage upload: status %d, want 422 (body %s)", resp.StatusCode, body)
	}
	var doc struct {
		Outcome string `json:"outcome"`
		Error   string `json:"error"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Outcome != "failed" || doc.Error == "" {
		t.Errorf("garbage outcome %q error %q, want failed with an error", doc.Outcome, doc.Error)
	}
	// Deterministic failures are cached too: the retry is free.
	resp2, _ := upload(t, ts.URL, []byte("this is not a trace file at all, not even close"), nil)
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("failed-result re-upload X-Cache = %q, want hit", got)
	}
}

func TestEmptyAndOversizedBodies(t *testing.T) {
	_, ts := newTestService(t, func(c *Config) { c.MaxBodyBytes = 1024 })
	if resp, _ := upload(t, ts.URL, nil, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty body: status %d, want 400", resp.StatusCode)
	}
	big := bytes.Repeat([]byte("x"), 4096)
	if resp, _ := upload(t, ts.URL, big, nil); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", resp.StatusCode)
	}
}

func TestQuotaExhaustion429(t *testing.T) {
	_, ts := newTestService(t, func(c *Config) {
		c.TenantRate = 0.01 // effectively no refill inside the test
		c.TenantBurst = 2
	})
	data := pristineTrace(t)
	hdr := map[string]string{"X-Tenant": "greedy"}
	for i := 0; i < 2; i++ {
		if resp, body := upload(t, ts.URL, data, hdr); resp.StatusCode != http.StatusOK {
			t.Fatalf("upload %d inside burst: status %d (%s)", i, resp.StatusCode, body)
		}
	}
	resp, _ := upload(t, ts.URL, data, hdr)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota upload: status %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Errorf("Retry-After = %q, want an integer >= 1", resp.Header.Get("Retry-After"))
	}
	// Another tenant's bucket is untouched.
	if resp, _ := upload(t, ts.URL, data, map[string]string{"X-Tenant": "patient"}); resp.StatusCode != http.StatusOK {
		t.Errorf("other tenant: status %d, want 200", resp.StatusCode)
	}
}

func TestQueueFullRejects503(t *testing.T) {
	gate := make(chan struct{})
	s, ts := newTestService(t, func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 1
	})
	s.testJobGate = gate
	defer close(gate)

	// Two distinct uploads: the first occupies the (gated) worker, the
	// second fills the queue slot. Distinct bytes so they don't coalesce.
	errc := make(chan error, 2)
	go func() {
		resp, _ := upload(t, ts.URL, pristineTrace(t), nil)
		errc <- statusErr("first", resp.StatusCode, http.StatusOK)
	}()
	// The sole worker dequeues the first job and parks at the test gate:
	// depth 1 with the queue slot free again.
	waitCond(t, "worker holds first job", func() bool {
		return s.pool.depth.Load() == 1 && len(s.pool.queue) == 0
	})
	go func() {
		resp, _ := upload(t, ts.URL, secondTrace(t), nil)
		errc <- statusErr("second", resp.StatusCode, http.StatusOK)
	}()
	waitCond(t, "queue slot filled", func() bool { return s.pool.depth.Load() == 2 })

	// Queue slot taken, worker busy: the next distinct upload must be
	// rejected immediately with 503 + Retry-After, not parked.
	start := time.Now()
	resp, _ := upload(t, ts.URL, faulted(t, pristineTrace(t), "corrupt=0.01", 3), nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow upload: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("queue-full rejection missing Retry-After")
	}
	if time.Since(start) > 5*time.Second {
		t.Error("queue-full rejection blocked instead of failing fast")
	}

	// readyz reflects saturation.
	if r, _ := http.Get(ts.URL + "/readyz"); r.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("saturated readyz: status %d, want 503", r.StatusCode)
	}

	gate <- struct{}{} // release the held job
	gate <- struct{}{} // ... and the queued one
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Error(err)
		}
	}
}

func statusErr(what string, got, want int) error {
	if got != want {
		return fmt.Errorf("%s upload: status %d, want %d", what, got, want)
	}
	return nil
}

// waitCond polls for a condition that gated workers make inevitable; the
// wait is just scheduling.
func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("condition %q never held", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSingleFlightCoalescesConcurrentIdenticalUploads(t *testing.T) {
	gate := make(chan struct{})
	s, ts := newTestService(t, func(c *Config) { c.Workers = 1 })
	s.testJobGate = gate
	data := pristineTrace(t)

	type reply struct {
		cache string
		body  []byte
		code  int
	}
	replies := make(chan reply, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, body := upload(t, ts.URL, data, nil)
			replies <- reply{resp.Header.Get("X-Cache"), body, resp.StatusCode}
		}()
	}
	// Both requests are in (one leads, one coalesces) before the worker
	// is allowed to run the single job.
	waitFlights(t, s)
	gate <- struct{}{}
	close(gate)

	got := map[string]reply{}
	var states []string
	for i := 0; i < 2; i++ {
		r := <-replies
		if r.code != http.StatusOK {
			t.Fatalf("coalesced upload: status %d", r.code)
		}
		got[r.cache] = r
		states = append(states, r.cache)
	}
	if _, ok := got["miss"]; !ok {
		t.Errorf("no leader (X-Cache: miss) among replies: %v", states)
	}
	if _, ok := got["coalesced"]; !ok {
		t.Errorf("no coalesced reply: %v", states)
	}
	if !bytes.Equal(got["miss"].body, got["coalesced"].body) {
		t.Error("leader and coalesced replies differ")
	}
	if misses := s.nMisses.Load(); misses != 1 {
		t.Errorf("misses = %d, want 1 (the analyses coalesced)", misses)
	}
}

// waitFlights waits until a leader has registered a flight and a second
// request has joined it (coalesced counter moved).
func waitFlights(t *testing.T, s *Service) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.nCoalesced.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("second upload never coalesced onto the flight")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAbandonedWaiterCountedJobStillFinishes(t *testing.T) {
	gate := make(chan struct{})
	s, ts := newTestService(t, func(c *Config) { c.Workers = 1 })
	s.testJobGate = gate
	data := pristineTrace(t)

	// A client uploads, then hangs up while the (gated) job is still
	// running: the waiter abandons, the job does not.
	ctx, cancel := context.WithCancel(context.Background())
	gone := make(chan struct{})
	go func() {
		defer close(gone)
		req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/traces", bytes.NewReader(data))
		if err != nil {
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	waitCond(t, "worker holds the job", func() bool { return s.pool.depth.Load() == 1 })
	cancel()
	<-gone
	waitCond(t, "abandonment counted", func() bool { return s.nAbandoned.Load() == 1 })
	if st := s.Snapshot(); st.Abandoned != 1 {
		t.Errorf("stats abandoned = %d, want 1", st.Abandoned)
	}

	// The job kept running; once it lands in the cache, the retry is free.
	gate <- struct{}{}
	close(gate)
	waitCond(t, "abandoned job finished into the cache", func() bool {
		return s.store.get(cacheKey{Digest: digestOf(data), Fingerprint: s.fpBinary}) != nil
	})
	resp, _ := upload(t, ts.URL, data, nil)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" {
		t.Errorf("retry after abandonment: status %d X-Cache %q, want 200 hit",
			resp.StatusCode, resp.Header.Get("X-Cache"))
	}
}

func TestHealthzReadyzAndStats(t *testing.T) {
	_, ts := newTestService(t, nil)
	if r, _ := http.Get(ts.URL + "/healthz"); r.StatusCode != http.StatusOK {
		t.Errorf("healthz: %d", r.StatusCode)
	}
	r, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusOK {
		t.Errorf("readyz: %d, want 200", r.StatusCode)
	}
	upload(t, ts.URL, pristineTrace(t), nil)
	sr, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Body.Close()
	var st Stats
	if err := json.NewDecoder(sr.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Admitted < 1 || st.Misses < 1 {
		t.Errorf("stats after one upload: %+v", st)
	}
}
