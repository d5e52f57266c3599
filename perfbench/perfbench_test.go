package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestPercentileSelection(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false}, // not even the median has ten samples beyond it
		{20, 50, true},
		{39, 50, true},
		{40, 75, true},
		{99, 75, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	}
	for _, c := range cases {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
		if ok && beyond(c.n, p) < 10 {
			t.Errorf("n=%d: p%v leaves %d samples beyond it", c.n, p, beyond(c.n, p))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted input
	}
	for p, want := range map[float64]float64{50: 50, 90: 90, 99: 99, 100: 100, 0: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestScalingExp(t *testing.T) {
	cases := []struct{ tA, tB, want float64 }{
		{1, 4, 1},  // linear: 4x the input, 4x the time
		{1, 16, 2}, // quadratic
		{0.34, 0.34, 0},
		{0.34, 4.6, math.Log(4.6/0.34) / math.Log(4)},
	}
	for _, c := range cases {
		if got := scalingExp(100, c.tA, 400, c.tB); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("scalingExp(100, %v, 400, %v) = %v, want %v", c.tA, c.tB, got, c.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	parent := span{ID: 1, Start: 0, End: 100 * ms}
	kids := []span{
		{Parent: 1, Start: 10 * ms, End: 30 * ms},
		{Parent: 1, Start: 20 * ms, End: 40 * ms},  // overlaps the first
		{Parent: 1, Start: 90 * ms, End: 120 * ms}, // runs past the parent
	}
	if got, want := selfTime(parent, kids), 60*ms; got != want {
		t.Errorf("self time = %v, want %v", got, want)
	}

	r := newRecorder()
	root := r.begin(7, 0, "root")
	child := r.begin(7, root, "child")
	time.Sleep(2 * ms)
	r.end(child)
	r.end(root)
	self := r.selfTimes()[7]
	full := r.durations()[7]
	if self["child"] != full["child"] || self["root"] != full["root"]-full["child"] {
		t.Errorf("self times %v do not partition durations %v", self, full)
	}
}

// smallInput is a trace small enough for unit tests.
func smallInput(t *testing.T, app string, faults string) *input {
	t.Helper()
	in, err := generate(traceSpec{App: app, Ranks: 4, Iters: 60, Seed: 3, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestGateRejectsPerturbedModel(t *testing.T) {
	ctx := context.Background()
	in := smallInput(t, "multiphase", "")
	ref, err := analyzeBytes(ctx, in.Bytes, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	pct, ok := phaseErrorPct(ref.Model, in.Truth)
	if !ok {
		t.Fatal("reference fits no region with ground truth")
	}
	want := reference{digest: modelDigest(ref.Model), errPct: pct}

	perturbations := map[string]func(a *analysis){
		"none": func(*analysis) {},
		"breakpoint": func(a *analysis) {
			for _, ca := range a.Model.Clusters {
				if ca.Fit != nil && len(ca.Fit.Breakpoints) > 0 {
					ca.Fit.Breakpoints[0] += 1e-9
					return
				}
			}
			t.Fatal("no breakpoint to perturb")
		},
		"label": func(a *analysis) { a.Model.Bursts[0].Cluster++ },
		"folded point": func(a *analysis) {
			for _, ca := range a.Model.Clusters {
				if ca.Folded != nil && len(ca.Folded.Points[0]) > 0 {
					ca.Folded.Points[0][0].Y += 1e-9
					return
				}
			}
			t.Fatal("no folded point to perturb")
		},
		"spmd": func(a *analysis) { a.Model.SPMDScore -= 1e-9 },
	}
	for name, perturb := range perturbations {
		got, err := analyzeBytes(ctx, in.Bytes, 2, false)
		if err != nil {
			t.Fatal(err)
		}
		perturb(got)
		err = gate(got, in, want)
		if name == "none" && err != nil {
			t.Errorf("parallel analysis rejected against the serial reference: %v", err)
		}
		if name != "none" && err == nil {
			t.Errorf("gate accepted a model with a perturbed %s", name)
		}
	}
}

func TestCheckServiceDoc(t *testing.T) {
	ctx := context.Background()
	in := smallInput(t, "stencil", "garble=0.02,chop=0.05")
	ref, err := analyzeBytes(ctx, in.Bytes, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if ref.outcome() != "degraded" {
		t.Fatalf("damaged trace analyzed as %q, want degraded", ref.outcome())
	}
	good := serviceDoc{Outcome: "degraded", Clusters: ref.Model.NumClusters, Bursts: ref.Model.NumBursts, Artifacts: map[string]string{}}
	for _, name := range artifactNames {
		good.Artifacts[name] = "/v1/results/x/" + name
	}
	if err := checkServiceDoc(good, ref); err != nil {
		t.Fatalf("matching reply rejected: %v", err)
	}
	wrong := map[string]func(d *serviceDoc){
		"outcome":  func(d *serviceDoc) { d.Outcome = "ok" },
		"clusters": func(d *serviceDoc) { d.Clusters++ },
		"bursts":   func(d *serviceDoc) { d.Bursts-- },
		"artifact": func(d *serviceDoc) { d.Artifacts = map[string]string{"perfetto.json": "x"} },
	}
	for name, mutate := range wrong {
		d := good
		mutate(&d)
		if err := checkServiceDoc(d, ref); err == nil {
			t.Errorf("reply with a wrong %s accepted", name)
		}
	}

	u := &upload{art: "flame.folded", artCode: 200}
	u.artSum = sha256.Sum256(ref.Artifacts["flame.folded"])
	if err := checkArtifact(u, ref); err != nil {
		t.Errorf("matching artifact rejected: %v", err)
	}
	u.artSum[0] ^= 1
	if err := checkArtifact(u, ref); err == nil {
		t.Error("artifact with other bytes accepted")
	}
}

func TestCompositionEqualsAnalyze(t *testing.T) {
	ctx := context.Background()
	in := smallInput(t, "cg", "")
	a, err := analyzeBytes(ctx, in.Bytes, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	c, err := compose(ctx, rec, 1, in.Bytes, 2, a.Model)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkComposition(c, a.Model); err != nil {
		t.Fatalf("composition differs from Analyze: %v", err)
	}
	self := rec.selfTimes()[1]
	for _, name := range spanLayers {
		if _, ok := self[name]; !ok {
			t.Errorf("no span for layer %s", name)
		}
	}
	c.labels[len(c.labels)-1]++
	if err := checkComposition(c, a.Model); err == nil {
		t.Error("composition with a relabelled burst accepted")
	}
	c.labels[len(c.labels)-1]--
	c.spmd += 0.01
	if err := checkComposition(c, a.Model); err == nil {
		t.Error("composition with another SPMD score accepted")
	}
}

func TestStreamedEqualsBatch(t *testing.T) {
	ctx := context.Background()
	in := smallInput(t, "nbody", "")
	a, err := analyzeBytes(ctx, in.Bytes, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := streamBytes(ctx, nil, 0, in.Bytes, 2)
	if err != nil {
		t.Fatal(err)
	}
	if modelDigest(m) != modelDigest(a.Model) {
		t.Fatal("streamed model differs from batch")
	}
}

func TestInputsAreSeeded(t *testing.T) {
	for _, app := range zooApps {
		for k := 0; k < 3; k++ {
			if a, b := smallInput(t, app, ""), smallInput(t, app, ""); !bytes.Equal(a.Bytes, b.Bytes) {
				t.Fatalf("%s: same seed gave different trace bytes", app)
			}
		}
	}
	a := smallInput(t, "amr", "")
	if splitmix(1, 0) == splitmix(2, 0) || splitmix(1, 0) == splitmix(1, 1) {
		t.Error("derived seeds collide")
	}
	warm := []*input{a}
	p1, err := plan(5, 40, warm)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := plan(5, 40, warm)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[uploadKind]int{}
	for i := range p1 {
		if p1[i].kind != p2[i].kind || !bytes.Equal(p1[i].in.Bytes, p2[i].in.Bytes) {
			t.Fatalf("upload %d differs between two plans from one seed: %v %v %d %d", i, p1[i].kind, p2[i].kind, len(p1[i].in.Bytes), len(p2[i].in.Bytes))
		}
		counts[p1[i].kind]++
	}
	if counts[kindQueued] != 18 || counts[kindChunked] != 6 || counts[kindHit] != 12 || counts[kindDamaged] != 4 {
		t.Errorf("40 uploads have mix %v, want 18 queued, 6 chunked, 12 hits, 4 damaged", counts)
	}
}

func TestManifestIsCommitted(t *testing.T) {
	want, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json is stale: regenerate it with perfbench --manifest BENCHMARK.json")
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, w := range workloads {
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
}

func TestResultHasEveryMetric(t *testing.T) {
	o := newOutcome()
	for _, d := range endToEnd {
		o.values[d.Name] = 1
	}
	o.check(nil)
	r, err := buildResult(o, false)
	if err != nil || len(r.Metrics) != len(endToEnd) || !r.Correct {
		t.Fatalf("untraced result %+v, %v", r, err)
	}
	delete(o.values, "setup_s")
	if _, err := buildResult(o, false); err == nil {
		t.Error("result without setup_s accepted")
	}
	r, err = buildResult(o, true)
	if err != nil || len(r.Metrics) != len(perLayer) {
		t.Fatalf("traced result has %d metrics, want %d (%v)", len(r.Metrics), len(perLayer), err)
	}
}
