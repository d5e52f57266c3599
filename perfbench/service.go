package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"phasefold/internal/service"
)

// Service-mix traffic. Uploads are due on a fixed schedule (open loop); the
// kinds follow a shuffled deck of 20 so every 20 uploads hold exactly the
// stated mix.
const (
	uploadRate = 5.0 // uploads due per second
	warmTraces = 5   // traces uploaded at set-up; cache hits re-upload them
	tenants    = 8   // tenants rotate, so no tenant nears its admission rate
)

type uploadKind int

const (
	kindQueued  uploadKind = iota // new trace, declared length: queue path
	kindChunked                   // new trace, chunked body: streamed path
	kindHit                       // re-upload of a warm trace: cache hit
	kindDamaged                   // new damaged trace: salvage path
)

var kindNames = [...]string{"queued", "chunked", "hit", "damaged"}

// mixDeck is one deck of 20 uploads: 45% queued, 15% chunked, 30% hits and
// 10% damaged.
var mixDeck = []uploadKind{
	kindQueued, kindQueued, kindQueued, kindQueued, kindQueued, kindQueued, kindQueued, kindQueued, kindQueued,
	kindChunked, kindChunked, kindChunked,
	kindHit, kindHit, kindHit, kindHit, kindHit, kindHit,
	kindDamaged, kindDamaged,
}

// zooApps are the applications the trace pool draws from.
var zooApps = []string{"stencil", "nbody", "amr", "multiphase", "cg"}

// damageSpec damages a trace so the daemon must salvage it: garbled counters
// need repair and the chopped tail needs a salvage decode.
const damageSpec = "garble=0.02,chop=0.05"

// zooIters sizes each application's pool trace so that all of them cost
// about the same to analyze (~0.1 s with one worker, 0.6-0.9 MB). Latency
// then has one mode rather than one per application, and its median does
// not jump between modes from run to run.
var zooIters = map[string]int{"stencil": 150, "nbody": 150, "amr": 270, "multiphase": 200, "cg": 85}

// zooSpec is the pool trace of app with the given seed.
func zooSpec(app string, seed uint64) traceSpec {
	return traceSpec{App: app, Ranks: 8, Iters: zooIters[app], Seed: seed}
}

// upload is one scheduled request and, after the run, what came of it.
type upload struct {
	idx  int
	kind uploadKind
	in   *input
	due  time.Time

	sent    time.Time
	done    time.Time
	latency float64 // due → reply, seconds
	status  int
	cache   string // X-Cache of the reply
	doc     serviceDoc
	art     string // artifact fetched after the reply
	artSum  [32]byte
	artCode int
	stages  map[string]float64 // stage report of the job (traced run)
	err     error
}

// plan draws the run's uploads from the seed: the deck order, the new
// traces, and which warm trace each hit re-uploads.
func plan(seed uint64, n int, warm []*input) ([]*upload, error) {
	rng := rand.New(rand.NewSource(int64(splitmix(seed, 1))))
	ups := make([]*upload, n)
	var deck []uploadKind
	// Each kind cycles through the zoo from a seeded offset, so every seed
	// sends the same mix of applications.
	var seen [len(kindNames)]int
	offset := rng.Intn(len(zooApps))
	for i := range ups {
		if len(deck) == 0 {
			deck = append([]uploadKind(nil), mixDeck...)
			rng.Shuffle(len(deck), func(a, b int) { deck[a], deck[b] = deck[b], deck[a] })
		}
		u := &upload{idx: i, kind: deck[0]}
		deck = deck[1:]
		app := (offset + seen[u.kind]) % len(zooApps)
		seen[u.kind]++
		switch u.kind {
		case kindHit:
			u.in = warm[app%len(warm)]
		default:
			s := zooSpec(zooApps[app], splitmix(seed, uint64(100+i)))
			if u.kind == kindDamaged {
				s.Faults = damageSpec
			}
			in, err := generate(s)
			if err != nil {
				return nil, fmt.Errorf("generating %s: %w", s.App, err)
			}
			u.in = in
		}
		ups[i] = u
	}
	return ups, nil
}

// daemon is an in-process service serving on a loopback listener.
type daemon struct {
	svc  *service.Service
	srv  *http.Server
	url  string
	done chan struct{}
}

func startDaemon(stateDir string) (*daemon, error) {
	spool := filepath.Join(stateDir, "spool")
	if err := os.MkdirAll(spool, 0o755); err != nil {
		return nil, err
	}
	cfg := service.Defaults()
	cfg.StateDir = stateDir
	cfg.SpoolDir = spool
	svc, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Drain(context.Background())
		return nil, err
	}
	d := &daemon{svc: svc, srv: &http.Server{Handler: svc.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		d.srv.Serve(ln)
	}()
	return d, nil
}

// stop closes the listener, drains the service and waits for both.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	<-d.done
	return errors.Join(err, d.svc.Drain(ctx))
}

// client sends uploads over at most maxConns connections.
type client struct {
	http *http.Client
	base string
}

func newClient(base string, maxConns int) *client {
	tr := &http.Transport{MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns, DisableCompression: true}
	return &client{http: &http.Client{Transport: tr, Timeout: 2 * time.Minute}, base: base}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// post uploads one trace and decodes the reply document.
func (c *client) post(u *upload, reqID string) error {
	var body io.Reader = bytes.NewReader(u.in.Bytes)
	if u.kind == kindChunked {
		body = struct{ io.Reader }{body} // unknown length: sent chunked
	}
	req, err := http.NewRequest(http.MethodPost, c.base+"/v1/traces", body)
	if err != nil {
		return err
	}
	req.Header.Set("X-Tenant", fmt.Sprintf("tenant-%d", u.idx%tenants))
	req.Header.Set("X-Request-Id", reqID)
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	u.status = resp.StatusCode
	u.cache = resp.Header.Get("X-Cache")
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("upload %d (%s): HTTP %d: %s", u.idx, kindNames[u.kind], resp.StatusCode, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, &u.doc)
}

// get fetches a path and returns its status and body.
func (c *client) get(path string) (int, []byte, error) {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// jobStages fetches the job's stage report and returns the duration of
// every top-level lifecycle stage, in seconds.
func (c *client) jobStages(reqID string) (map[string]float64, error) {
	code, b, err := c.get("/v1/jobs/" + reqID)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("job %s: HTTP %d", reqID, code)
	}
	var doc struct {
		Spans struct {
			Stages []struct {
				Name       string `json:"name"`
				DurationNS int64  `json:"duration_ns"`
			} `json:"stages"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, s := range doc.Spans.Stages {
		out[s.Name] += float64(s.DurationNS) / 1e9
	}
	return out, nil
}

// serviceSetup is one set-up: the run's inputs and a warm, serving daemon.
type serviceSetup struct {
	d       *daemon
	warm    []*input
	uploads []*upload
}

func setupService(cfg runConfig, stateDir string, n int) (*serviceSetup, error) {
	var warm []*input
	for i, app := range zooApps[:warmTraces] {
		in, err := generate(zooSpec(app, splitmix(cfg.seed, uint64(10+i))))
		if err != nil {
			return nil, err
		}
		warm = append(warm, in)
	}
	ups, err := plan(cfg.seed, n, warm)
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(stateDir)
	if err != nil {
		return nil, err
	}
	c := newClient(d.url, 1)
	defer c.close()
	for i, in := range warm {
		u := &upload{idx: -1 - i, kind: kindQueued, in: in}
		if err := c.post(u, fmt.Sprintf("warm-%d", i)); err != nil {
			return nil, errors.Join(fmt.Errorf("warming the cache: %w", err), d.stop())
		}
	}
	return &serviceSetup{d: d, warm: warm, uploads: ups}, nil
}

// serviceMix runs the daemon workload: set-up generates the traffic and
// starts a warm daemon, the measured phase drives it open loop, and every
// reply is then checked against an in-process analysis of the same bytes.
func serviceMix(ctx context.Context, cfg runConfig) (*outcome, error) {
	out := newOutcome()
	n := int(uploadRate * cfg.seconds.Seconds())
	base := filepath.Join(cfg.out, fmt.Sprintf("service-%d", os.Getpid()))
	defer os.RemoveAll(base)
	var st *serviceSetup
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if st != nil {
			if err := st.d.stop(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		st, err = setupService(cfg, filepath.Join(base, fmt.Sprint(i)), n)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	out.values["setup_s"] = median(setups)
	out.note("setup_s", setups)

	maxConns := runtime.NumCPU()
	c := newClient(st.d.url, maxConns)
	runtime.GC()
	heap := watchHeap(heapSampleEvery)
	a0 := allocatedBytes()
	backlog, lags, wall := drive(c, st.uploads, maxConns, cfg)
	allocated := allocatedBytes() - a0
	out.values["peak_heap_mb"] = heap.stopMB()
	c.close()
	if err := st.d.stop(); err != nil {
		out.check(fmt.Errorf("draining the daemon: %w", err))
	}

	// The gate: every upload and artifact is checked against an in-process
	// analysis of the same bytes, computed after the measured phase.
	refs, err := references(ctx, st.uploads, st.warm)
	if err != nil {
		return nil, err
	}
	var miss, hit, chunked []float64
	var errPcts []float64
	stages := make(map[string][]float64)
	hits, streamed, rejected := 0, 0, 0
	for _, u := range st.uploads {
		ref := refs[u.in]
		err := u.err
		if err == nil {
			err = checkServiceDoc(u.doc, ref)
		}
		if err == nil && u.kind == kindHit && u.cache != "hit" {
			err = fmt.Errorf("upload %d re-uploads a warm trace but was served %q", u.idx, u.cache)
		}
		if u.status == http.StatusTooManyRequests || u.status == http.StatusServiceUnavailable {
			rejected++
		}
		out.check(err)
		if err != nil {
			continue
		}
		out.check(checkArtifact(u, ref))
		switch u.kind {
		case kindHit:
			hit = append(hit, u.latency)
		case kindChunked:
			chunked = append(chunked, u.latency)
			miss = append(miss, u.latency)
		default:
			miss = append(miss, u.latency)
		}
		if u.cache == "hit" {
			hits++
		}
		if u.cache == "stream" {
			streamed++
		}
		if u.kind != kindDamaged && u.kind != kindHit {
			if pct, ok := phaseErrorPct(ref.Model, u.in.Truth); ok {
				errPcts = append(errPcts, pct)
			}
		}
		for name, s := range u.stages {
			stages[name] = append(stages[name], s)
		}
	}
	v := out.values
	v["trace_p50_s"] = median(miss)
	v["stream_p50_s"] = median(chunked)
	v["alloc_mb_per_trace"] = ratio(float64(allocated)/1e6, float64(len(miss)))
	v["upload_miss_p50_s"] = median(miss)
	v["upload_miss_p90_s"] = percentile(miss, 90)
	v["upload_hit_p50_s"] = median(hit)
	v["uploads_per_s"] = ratio(float64(len(miss)+len(hit)), wall)
	v["service.miss_samples"] = float64(len(miss))
	v["service.hit_samples"] = float64(len(hit))
	v["service.hit_ratio"] = ratio(float64(hits), float64(len(st.uploads)))
	v["service.streamed_ratio"] = ratio(float64(streamed), float64(countKind(st.uploads, kindChunked)))
	v["service.rejected"] = float64(rejected)
	v["service.generator_lag_p90_s"] = percentile(lags, 90)
	v["service.backlog"] = float64(backlog)
	v["phase_error_pct"] = mean(errPcts)
	for _, name := range []string{"admission", "spool", "cache", "run", "export", "publish"} {
		v["service."+name+"_s"] = median(stages[name])
	}
	v["service.queue_wait_s"] = median(stages["queue"])
	out.note("upload_miss", miss)
	out.note("upload_chunked", chunked)
	out.note("upload_hit", hit)
	out.note("generator_lag", lags)
	return out, nil
}

// drive sends the uploads on their schedule, starting each when it is due
// or, when all maxConns connections are busy, as soon as one frees up; every
// latency counts from the due time. With tracing on, each job's stage
// report is fetched after its reply. It returns how many uploads due inside
// the window were still unanswered when it closed, each upload's generator
// lag, and the wall time from the first due time to the last reply.
func drive(c *client, ups []*upload, maxConns int, cfg runConfig) (backlog int, lags []float64, wall float64) {
	slots := make(chan struct{}, maxConns) // one token per connection
	var wg sync.WaitGroup
	start := time.Now()
	for _, u := range ups {
		u.due = start.Add(time.Duration(float64(u.idx) / uploadRate * float64(time.Second)))
		time.Sleep(time.Until(u.due))
		slots <- struct{}{}
		u.sent = time.Now()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-slots }()
			rec, tid := cfg.rec, u.idx+1
			root := rec.begin(tid, 0, "upload."+kindNames[u.kind])
			defer rec.end(root)
			reqID := fmt.Sprintf("bench-%d-%d", cfg.seed, u.idx)
			sp := rec.begin(tid, root, "service.post")
			u.err = c.post(u, reqID)
			rec.end(sp)
			u.done = time.Now()
			u.latency = u.done.Sub(u.due).Seconds()
			if u.err != nil {
				return
			}
			u.art = artifactNames[u.idx%len(artifactNames)]
			sp = rec.begin(tid, root, "service.artifact")
			code, b, err := c.get("/v1/results/" + u.doc.Digest + "/" + u.art)
			rec.end(sp)
			u.artCode, u.artSum = code, sha256.Sum256(b)
			if err != nil {
				u.artCode = 0
			}
			if cfg.traced {
				sp = rec.begin(tid, root, "service.job")
				u.stages, u.err = c.jobStages(reqID)
				rec.end(sp)
			}
		}()
	}
	wg.Wait()
	end := start.Add(cfg.seconds)
	var last time.Time
	for _, u := range ups {
		lags = append(lags, u.sent.Sub(u.due).Seconds())
		if u.due.Before(end) && u.done.After(end) {
			backlog++
		}
		if u.done.After(last) {
			last = u.done
		}
	}
	return backlog, lags, last.Sub(start).Seconds()
}

// references analyzes every distinct uploaded trace in process, with
// salvage decoding and default options as the daemon runs them.
func references(ctx context.Context, ups []*upload, warm []*input) (map[*input]*analysis, error) {
	seen := map[*input]bool{}
	var ins []*input
	for _, in := range warm {
		seen[in] = true
		ins = append(ins, in)
	}
	for _, u := range ups {
		if !seen[u.in] {
			seen[u.in] = true
			ins = append(ins, u.in)
		}
	}
	res := make([]*analysis, len(ins))
	errs := make([]error, len(ins))
	parFor(runtime.NumCPU(), len(ins), func(i int) {
		res[i], errs[i] = analyzeBytes(ctx, ins[i].Bytes, 1, true)
	})
	out := make(map[*input]*analysis, len(ins))
	for i, in := range ins {
		if errs[i] != nil {
			return nil, fmt.Errorf("in-process analysis of %s: %w", in.Spec.App, errs[i])
		}
		out[in] = res[i]
	}
	return out, nil
}

// checkArtifact compares the artifact fetched after an upload with the
// in-process rendering of the same bytes.
func checkArtifact(u *upload, ref *analysis) error {
	if u.artCode != http.StatusOK {
		return fmt.Errorf("upload %d: GET %s: HTTP %d", u.idx, u.art, u.artCode)
	}
	if u.artSum != sha256.Sum256(ref.Artifacts[u.art]) {
		return fmt.Errorf("upload %d: %s differs from the in-process rendering", u.idx, u.art)
	}
	return nil
}

func countKind(ups []*upload, k uploadKind) int {
	n := 0
	for _, u := range ups {
		if u.kind == k {
			n++
		}
	}
	return n
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}
