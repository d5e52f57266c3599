package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"phasefold/internal/sim"
)

// batchWorkload analyzes generated traces in a closed loop with one caller:
// each repetition runs every input bytes → model + artifacts, then a
// streamed pass over one of them.
type batchWorkload struct {
	specs    func(seed uint64) []traceSpec
	head     int // the input trace_p50_s and the per-layer figures describe
	streamed int // the input that also gets streamed passes
	// streams is how many streamed passes a timed repetition makes, so a
	// short pass still gets as many samples as the run's time allows.
	streams int
	scaling bool // inputs 0 and 1 differ only in iterations: report scaling_exp
}

var cgStructure = batchWorkload{
	specs: func(seed uint64) []traceSpec {
		s := splitmix(seed, 0)
		return []traceSpec{
			{App: "cg", Ranks: 16, Iters: 100, Seed: s},
			{App: "cg", Ranks: 16, Iters: 400, Seed: s},
		}
	},
	head:     1,
	streamed: 0,
	streams:  3,
	scaling:  true,
}

var denseSamples = batchWorkload{
	specs: func(seed uint64) []traceSpec {
		return []traceSpec{{App: "multiphase", Ranks: 8, Iters: 200, Sampling: 20 * sim.Microsecond, Seed: splitmix(seed, 0)}}
	},
	streams: 1,
}

// reference is the set-up analysis of one input: serial, so every timed
// repetition is checked against a result computed with one worker.
type reference struct {
	digest  string
	errPct  float64
	serialS float64
}

func (w batchWorkload) run(ctx context.Context, cfg runConfig) (*outcome, error) {
	out := newOutcome()
	var inputs []*input
	var setups []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		inputs = inputs[:0]
		for _, s := range w.specs(cfg.seed) {
			in, err := generate(s)
			if err != nil {
				return nil, fmt.Errorf("generating %s: %w", s.App, err)
			}
			inputs = append(inputs, in)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	out.values["setup_s"] = median(setups)
	out.note("setup_s", setups)

	refs := make([]reference, len(inputs))
	for i, in := range inputs {
		t0 := time.Now()
		a, err := analyzeBytes(ctx, in.Bytes, 1, false)
		if err != nil {
			return nil, fmt.Errorf("reference analysis of %s: %w", in.Spec.App, err)
		}
		refs[i].serialS = time.Since(t0).Seconds()
		refs[i].digest = modelDigest(a.Model)
		pct, ok := phaseErrorPct(a.Model, in.Truth)
		if !ok {
			return nil, fmt.Errorf("reference analysis of %s fits no region with ground truth", in.Spec.App)
		}
		refs[i].errPct = pct
	}
	if cfg.traced {
		w.traced(ctx, cfg, inputs, refs, out)
	} else {
		w.timed(ctx, cfg, inputs, refs, out)
	}
	return out, nil
}

// gate checks one batch result against the input's reference: the model
// digest must match and the phase error, recomputed from ground truth, must
// equal the reference's.
func gate(a *analysis, in *input, ref reference) error {
	if d := modelDigest(a.Model); d != ref.digest {
		return fmt.Errorf("%s: model digest %.12s differs from the serial reference %.12s", in.Spec.App, d, ref.digest)
	}
	if pct, ok := phaseErrorPct(a.Model, in.Truth); !ok || pct != ref.errPct {
		return fmt.Errorf("%s: phase error %v%%, reference %v%%", in.Spec.App, pct, ref.errPct)
	}
	return nil
}

// timed is the measured loop with tracing off.
func (w batchWorkload) timed(ctx context.Context, cfg runConfig, inputs []*input, refs []reference, out *outcome) {
	times := make([][]float64, len(inputs))
	var allocs, streams []float64
	runtime.GC()
	heap := watchHeap(heapSampleEvery)
	start := time.Now()
	for rep := 0; another(rep, start, cfg.seconds); rep++ {
		for i, in := range inputs {
			runtime.GC() // every pass starts from the same heap
			a0 := allocatedBytes()
			t0 := time.Now()
			a, err := analyzeBytes(ctx, in.Bytes, cfg.par, false)
			dt := time.Since(t0).Seconds()
			if i == w.head {
				allocs = append(allocs, float64(allocatedBytes()-a0)/1e6)
			}
			if err == nil {
				times[i] = append(times[i], dt)
				err = gate(a, in, refs[i])
			}
			out.check(err)
		}
		for k := 0; k < w.streams; k++ {
			runtime.GC()
			t0 := time.Now()
			m, _, err := streamBytes(ctx, nil, 0, inputs[w.streamed].Bytes, cfg.par)
			dt := time.Since(t0).Seconds()
			if err == nil {
				streams = append(streams, dt)
				if d := modelDigest(m); d != refs[w.streamed].digest {
					err = fmt.Errorf("streamed model digest %.12s differs from batch %.12s", d, refs[w.streamed].digest)
				}
			}
			out.check(err)
		}
	}
	out.values["peak_heap_mb"] = heap.stopMB()
	out.values["trace_p50_s"] = median(times[w.head])
	out.values["stream_p50_s"] = median(streams)
	out.values["alloc_mb_per_trace"] = median(allocs)
	out.note("trace_p50_s", times[w.head])
	out.note("stream_p50_s", streams)
}

// traced is the layer-by-layer run: each repetition analyzes every input
// once untraced (the comparison) and once through the traced composition,
// then streams one input with spans around each session call.
func (w batchWorkload) traced(ctx context.Context, cfg runConfig, inputs []*input, refs []reference, out *outcome) {
	rec := cfg.rec
	untraced := make([][]float64, len(inputs))
	var unattributed []float64
	var headTIDs, streamTIDs []int
	var counts layerCounts
	var sst streamStats
	tid := 0
	start := time.Now()
	for rep := 0; another(rep, start, cfg.seconds); rep++ {
		for i, in := range inputs {
			a, err := analyzeBytes(ctx, in.Bytes, cfg.par, false)
			if err == nil {
				err = gate(a, in, refs[i])
			}
			out.check(err)
			if err != nil {
				continue
			}
			untraced[i] = append(untraced[i], a.DecodeS+a.AnalyzeS+a.ExportS)
			tid++
			c, err := compose(ctx, rec, tid, in.Bytes, cfg.par, a.Model)
			if err == nil {
				err = checkComposition(c, a.Model)
			}
			out.check(err)
			if err != nil || i != w.head {
				continue
			}
			headTIDs = append(headTIDs, tid)
			counts = c.counts
			self := rec.selfTimes()[tid]
			var layers time.Duration
			for _, name := range analyzeLayers {
				layers += self[name]
			}
			unattributed = append(unattributed, a.AnalyzeS-layers.Seconds())
		}
		tid++
		m, st, err := streamBytes(ctx, rec, tid, inputs[w.streamed].Bytes, cfg.par)
		if err == nil && modelDigest(m) != refs[w.streamed].digest {
			err = fmt.Errorf("streamed model differs from batch")
		}
		out.check(err)
		if err == nil {
			streamTIDs = append(streamTIDs, tid)
			sst = st
		}
	}
	self := rec.selfTimes()
	full := rec.durations()
	layer := func(tids []int, name string) float64 {
		var xs []float64
		for _, t := range tids {
			xs = append(xs, self[t][name].Seconds())
		}
		return median(xs)
	}
	v := out.values
	for _, name := range spanLayers {
		v[name+"_s"] = layer(headTIDs, name)
	}
	for _, name := range streamLayers {
		v[name+"_s"] = layer(streamTIDs, name)
	}
	v["trace.decode_mb_per_s"] = ratio(float64(counts.Bytes)/1e6, v["trace.decode_s"])
	v["trace.records"] = float64(counts.Records)
	v["trace.bursts"] = float64(counts.Bursts)
	v["cluster.points"] = float64(counts.Points)
	v["cluster.clusters"] = float64(counts.Clusters)
	v["cluster.clustered_ratio"] = ratio(float64(counts.Clustered), float64(counts.Bursts))
	v["align.dp_cells"] = counts.DPCells
	v["align.alloc_mb"] = float64(counts.AlignAlloc) / 1e6
	v["folding.points"] = float64(counts.FoldedPoints)
	v["folding.used_ratio"] = ratio(float64(counts.Used), float64(counts.Members))
	v["pwl.fits"] = float64(counts.Fits)
	v["pwl.segments"] = float64(counts.Segments)
	v["export.bytes"] = float64(counts.ExportBytes)
	v["stream.peak_records"] = float64(sst.PeakRecords)
	v["stream.trainings"] = float64(sst.Trainings)
	v["stream.noise_ratio"] = sst.NoiseRatio

	var tracedTotals []float64
	for _, t := range headTIDs {
		tracedTotals = append(tracedTotals, full[t]["trace"].Seconds())
	}
	v["core.serial_trace_s"] = refs[w.head].serialS
	v["core.unattributed_s"] = median(unattributed)
	v["core.traced_trace_s"] = median(tracedTotals)
	v["core.tracing_overhead_pct"] = 100 * (ratio(median(tracedTotals), median(untraced[w.head])) - 1)
	v["core.samples"] = float64(len(headTIDs))
	v["phase_error_pct"] = refs[w.head].errPct
	if w.scaling {
		a, b := inputs[0].Spec.Iters, inputs[1].Spec.Iters
		v["scaling_exp"] = scalingExp(float64(a), median(untraced[0]), float64(b), median(untraced[1]))
	}
}

// Span names of the composition. analyzeLayers are the layers inside
// Analyze; spanLayers every layer reported per trace; streamLayers the
// streaming session's calls.
var (
	analyzeLayers = []string{"trace.extract", "cluster.dbscan", "align.spmd", "folding.fold", "pwl.fit"}
	spanLayers    = append([]string{"trace.decode", "export.view", "export.render"}, analyzeLayers...)
	streamLayers  = []string{"stream.consume", "stream.snapshot", "stream.done", "stream.render"}
)

// another reports whether a run that started at start and has completed
// reps repetitions has time for one more: at least one always runs, and
// another starts only if it is expected to end inside the run's seconds.
func another(reps int, start time.Time, seconds time.Duration) bool {
	if reps == 0 {
		return true
	}
	elapsed := time.Since(start)
	return elapsed+elapsed/time.Duration(reps) <= seconds
}
