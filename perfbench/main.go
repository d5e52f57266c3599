// Command perfbench is phasefold's benchmark. One invocation generates the
// seeded inputs of one workload, runs it for a fixed time, checks every
// output against a reference, and prints one JSON result line. With
// --trace 1 it runs the layer-by-layer composition instead and reports the
// per-layer figures. See README.md for the workloads and metrics.
//
//	perfbench --workload cg-structure --seed 1 --seconds 30 --trace 0
//	perfbench --manifest BENCHMARK.json
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// Benchmark constants.
const (
	// setupReps is how many times a run generates its inputs; setup_s is
	// the median.
	setupReps = 5
	// heapSampleEvery paces the live-heap sampler behind peak_heap_mb.
	heapSampleEvery = 2 * time.Millisecond
	// runSeconds is the measuring time a run is given by default and in
	// the manifest.
	runSeconds = 30
)

// metricDef names one end-to-end metric and the share of the parent's
// median by which it may worsen.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// layerDef names one per-layer metric; these have no bound.
type layerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the figures a user of phasefold sees, reported by every
// workload with tracing off; each regresses past its bound (a share of the
// parent's median).
//
// Timings get the widest bound allowed: on a shared 2-CPU virtual machine a
// fixed CPU loop varies by ±20% from one invocation to the next.
var endToEnd = []metricDef{
	{"trace_p50_s", "s", "lower", 0.25},
	{"stream_p50_s", "s", "lower", 0.25},
	{"alloc_mb_per_trace", "MB", "lower", 0.15},
	{"peak_heap_mb", "MB", "lower", 0.2},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the figures of single layers, reported by every workload in
// the traced run; a layer a workload does not exercise reads 0.
var perLayer = []layerDef{
	{"trace.decode_s", "s", "lower"},
	{"trace.decode_mb_per_s", "MB/s", "higher"},
	{"trace.records", "count", "lower"},
	{"trace.extract_s", "s", "lower"},
	{"trace.bursts", "count", "lower"},
	{"cluster.dbscan_s", "s", "lower"},
	{"cluster.points", "count", "lower"},
	{"cluster.clusters", "count", "lower"},
	{"cluster.clustered_ratio", "1", "higher"},
	{"align.spmd_s", "s", "lower"},
	{"align.dp_cells", "cells_computed", "lower"},
	{"align.alloc_mb", "MB", "lower"},
	{"folding.fold_s", "s", "lower"},
	{"folding.points", "count", "lower"},
	{"folding.used_ratio", "1", "higher"},
	{"pwl.fit_s", "s", "lower"},
	{"pwl.fits", "count", "lower"},
	{"pwl.segments", "count", "lower"},
	{"export.view_s", "s", "lower"},
	{"export.render_s", "s", "lower"},
	{"export.bytes", "bytes", "lower"},
	{"stream.consume_s", "s", "lower"},
	{"stream.snapshot_s", "s", "lower"},
	{"stream.done_s", "s", "lower"},
	{"stream.render_s", "s", "lower"},
	{"stream.peak_records", "count", "lower"},
	{"stream.trainings", "count", "lower"},
	{"stream.noise_ratio", "1", "lower"},
	{"service.admission_s", "s", "lower"},
	{"service.spool_s", "s", "lower"},
	{"service.cache_s", "s", "lower"},
	{"service.queue_wait_s", "s", "lower"},
	{"service.run_s", "s", "lower"},
	{"service.export_s", "s", "lower"},
	{"service.publish_s", "s", "lower"},
	{"service.hit_ratio", "1", "higher"},
	{"service.streamed_ratio", "1", "higher"},
	{"service.rejected", "count", "lower"},
	{"service.generator_lag_p90_s", "s", "lower"},
	{"service.backlog", "count", "lower"},
	{"service.miss_samples", "count", "higher"},
	{"service.hit_samples", "count", "higher"},
	{"upload_miss_p50_s", "s", "lower"},
	{"upload_miss_p90_s", "s", "lower"},
	{"upload_hit_p50_s", "s", "lower"},
	{"uploads_per_s", "1/s", "higher"},
	{"scaling_exp", "1", "lower"},
	{"phase_error_pct", "%", "lower"},
	{"fail_ratio", "1", "lower"},
	{"core.serial_trace_s", "s", "lower"},
	{"core.unattributed_s", "s", "lower"},
	{"core.traced_trace_s", "s", "lower"},
	{"core.tracing_overhead_pct", "%", "lower"},
	{"core.samples", "count", "higher"},
}

// workload is one benchmark workload.
type workload struct {
	name string
	why  string
	run  func(ctx context.Context, cfg runConfig) (*outcome, error)
}

var workloads = []workload{
	{"cg-structure", "cg, 16 ranks, 100+400 iterations, batch, 1 closed-loop caller: dense bursts make cluster+align ~90% of time, decode and fold ~1%", cgStructure.run},
	{"dense-samples", "multiphase, 8 ranks, 200 iterations, 20us sampling, batch then streamed: decode, extract and fold work while cluster is <2%", denseSamples.run},
	{"service-mix", "in-process daemon, open loop at 5 uploads/s of small zoo traces: 45% queued, 15% chunked, 30% cache hits, 10% damaged", serviceMix},
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	par     int       // workers of every parallel stage: the CPU count
	rec     *recorder // spans of the traced run; nil when tracing is off
	out     string    // directory for the run's span file and service state
}

// outcome is what a workload measured: named values plus the tally of
// checked operations.
type outcome struct {
	values    map[string]float64
	attempted int
	failed    int
	errs      []string
	notes     []string
}

func newOutcome() *outcome { return &outcome{values: make(map[string]float64)} }

// check counts one operation, failed when err is non-nil.
func (o *outcome) check(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		if len(o.errs) < 5 {
			o.errs = append(o.errs, err.Error())
		}
	}
}

// note records a timing's sample count and the tail percentile its count
// supports, for the human-readable summary.
func (o *outcome) note(name string, xs []float64) {
	s := fmt.Sprintf("%s: n=%d min=%.4g p50=%.4g max=%.4g", name, len(xs), percentile(xs, 0), median(xs), percentile(xs, 100))
	if p, ok := tailPercentile(len(xs)); ok && p > 50 {
		s += fmt.Sprintf(" p%g=%.4g", p, percentile(xs, p))
	}
	o.notes = append(o.notes, s)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildResult selects the metrics of the run's mode. Every end-to-end
// metric must have been measured; a per-layer metric the workload does not
// exercise reads 0.
func buildResult(o *outcome, traced bool) (*result, error) {
	r := &result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	if traced {
		o.values["fail_ratio"] = ratio(float64(o.failed), float64(o.attempted))
		for _, d := range perLayer {
			v := o.values[d.Name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("metric %s is %v", d.Name, v)
			}
			r.Metrics[d.Name] = metricValue{v, d.Unit}
		}
		return r, nil
	}
	for _, d := range endToEnd {
		v, ok := o.values[d.Name]
		if !ok || v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured (%v)", d.Name, v)
		}
		r.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	return r, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: cg-structure, dense-samples or service-mix")
	seed := fs.Uint64("seed", 1, "seed every input is derived from")
	seconds := fs.Int("seconds", runSeconds, "measuring time in seconds")
	traced := fs.Int("trace", 0, "1 runs the traced layer-by-layer pass and reports per-layer metrics")
	manifest := fs.String("manifest", "", "write the benchmark definition (BENCHMARK.json) to this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *manifest != "" {
		if err := writeManifest(*manifest); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	outDir := os.Getenv("PERFBENCH_OUT")
	if outDir == "" {
		outDir = ".bench_build"
	}
	cfg := runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		traced:  *traced == 1,
		par:     runtime.NumCPU(),
		out:     outDir,
	}
	if cfg.traced {
		cfg.rec = newRecorder()
	}
	o, err := w.run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	for _, n := range o.notes {
		fmt.Fprintln(stderr, "perfbench:", n)
	}
	for _, e := range o.errs {
		fmt.Fprintln(stderr, "perfbench: FAILED:", e)
	}
	if cfg.rec != nil {
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", w.name, cfg.seed))
		if err := cfg.rec.write(path); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
			return 1
		}
	}
	res, err := buildResult(o, cfg.traced)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// manifest is the BENCHMARK.json document.
type manifest struct {
	Command    []string    `json:"command"`
	Paths      []string    `json:"paths"`
	RunSeconds int         `json:"run_seconds"`
	Workloads  []manifestW `json:"workloads"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []layerDef  `json:"per_layer"`
}

type manifestW struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// manifestJSON renders the benchmark definition from the tables above.
func manifestJSON() ([]byte, error) {
	m := manifest{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestW{w.name, w.why})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func writeManifest(path string) error {
	b, err := manifestJSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
