package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"phasefold/internal/core"
	"phasefold/internal/counters"
	"phasefold/internal/exec"
	"phasefold/internal/export"
	"phasefold/internal/metrics"
	"phasefold/internal/simapp"
	"phasefold/internal/trace"
)

// artifactNames are the four rendered outputs of an analysis, named as the
// service serves them under /v1/results/{digest}/.
var artifactNames = []string{"perfetto.json", "flame.folded", "snapshot.prom", "snapshot.json"}

// render writes every artifact of a view.
func render(v *core.ExportView) (map[string][]byte, error) {
	writers := map[string]func(*bytes.Buffer) error{
		"perfetto.json": func(b *bytes.Buffer) error { return export.WritePerfetto(b, v) },
		"flame.folded":  func(b *bytes.Buffer) error { return export.WriteFlamegraph(b, v, "") },
		"snapshot.prom": func(b *bytes.Buffer) error { return export.WriteOpenMetrics(b, v) },
		"snapshot.json": func(b *bytes.Buffer) error { return export.WriteSnapshotJSON(b, v) },
	}
	out := make(map[string][]byte, len(artifactNames))
	for _, name := range artifactNames {
		var buf bytes.Buffer
		if err := writers[name](&buf); err != nil {
			return nil, fmt.Errorf("rendering %s: %w", name, err)
		}
		out[name] = buf.Bytes()
	}
	return out, nil
}

// analysis is one trace analyzed end to end: bytes in, model and the four
// rendered artifacts out.
type analysis struct {
	Model     *core.Model
	Report    *trace.SalvageReport
	Artifacts map[string][]byte
	// DecodeS, AnalyzeS and ExportS time the three calls, in seconds.
	DecodeS, AnalyzeS, ExportS float64
}

// analyzeBytes decodes, analyzes and renders one trace with default options
// and the given worker cap.
func analyzeBytes(ctx context.Context, data []byte, par int, salvage bool) (*analysis, error) {
	t0 := time.Now()
	tr, rep, err := trace.Decode(ctx, bytes.NewReader(data), trace.DecodeOptions{Salvage: salvage, Exec: exec.Exec{Parallelism: par}})
	if err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	t1 := time.Now()
	opt := core.DefaultOptions()
	opt.Parallelism = par
	m, err := core.Analyze(ctx, tr, opt)
	if err != nil {
		return nil, fmt.Errorf("analyze: %w", err)
	}
	t2 := time.Now()
	arts, err := render(m.Export(tr))
	if err != nil {
		return nil, err
	}
	t3 := time.Now()
	return &analysis{Model: m, Report: rep, Artifacts: arts,
		DecodeS: t1.Sub(t0).Seconds(), AnalyzeS: t2.Sub(t1).Seconds(), ExportS: t3.Sub(t2).Seconds()}, nil
}

// outcome is the result class the service reports for an analysis.
func (a *analysis) outcome() string {
	if a.Model.Degraded() || (a.Report != nil && !a.Report.Complete()) {
		return "degraded"
	}
	return "ok"
}

// modelDigest hashes everything a model holds: the labelled bursts, every
// cluster's statistics, folded cloud, fit and phases, and the diagnostics.
// Two models have the same digest only if they are identical.
func modelDigest(m *core.Model) string {
	h := sha256.New()
	w := bufio.NewWriterSize(h, 1<<16)
	var b8 [8]byte
	u := func(vs ...uint64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b8[:], v)
			w.Write(b8[:])
		}
	}
	i := func(vs ...int64) {
		for _, v := range vs {
			u(uint64(v))
		}
	}
	f := func(vs ...float64) {
		for _, v := range vs {
			u(math.Float64bits(v))
		}
	}
	fmt.Fprintf(w, "%s|", m.App)
	i(int64(m.NumBursts), int64(m.NumClusters), int64(m.NoiseBursts), int64(m.TotalComputation))
	f(m.SPMDScore)
	for _, b := range m.Bursts {
		i(int64(b.Rank), b.Region, int64(b.Start), int64(b.End), b.Iter, int64(b.Group),
			int64(b.Cluster), int64(b.FirstSmp), int64(b.NumSmp))
		i(b.StartCtr[:]...)
		i(b.Delta[:]...)
	}
	for _, ca := range m.Clusters {
		fmt.Fprintf(w, "|%d %+v %d %q|", ca.Label, ca.Stat, ca.Quality, ca.QualityReason)
		if fd := ca.Folded; fd != nil {
			i(int64(fd.Cluster), int64(fd.NumBursts), int64(fd.UsedBursts), int64(fd.RepDuration))
			i(fd.TotalDelta[:]...)
			for id := range fd.Points {
				i(int64(len(fd.Points[id])))
				for _, p := range fd.Points[id] {
					f(p.X, p.Y)
				}
			}
			for _, s := range fd.Stacks {
				f(s.X)
				i(int64(s.Stack))
			}
		}
		if ca.Fit != nil {
			fmt.Fprintf(w, "|%+v|", *ca.Fit)
		}
		for _, ph := range ca.Phases {
			fmt.Fprintf(w, "|%+v|", ph)
		}
	}
	for _, d := range m.Diagnostics {
		fmt.Fprintf(w, "|%+v|", d)
	}
	w.Flush()
	return hex.EncodeToString(h.Sum(nil))
}

// phaseErrorPct is the mean relative MAE, in percent, of each fitted
// cluster's reconstructed MIPS profile against the simulator's ground truth
// for its region (the paper's <5% figure of merit). ok is false when no
// cluster has both a fit and a ground truth.
func phaseErrorPct(m *core.Model, truth *simapp.Truth) (pct float64, ok bool) {
	const grid = 200
	var sum float64
	n := 0
	for _, ca := range m.Clusters {
		rt := truth.Regions[ca.Stat.Region]
		if rt == nil || ca.Fit == nil || ca.Folded == nil {
			continue
		}
		scale, ok := ca.Folded.RateScale(counters.Instructions)
		if !ok {
			continue
		}
		got := metrics.SampleRates(ca.Fit, scale/1e6, grid)
		want := metrics.SampleTruthRates(func(x float64) float64 {
			return rt.RateAt(x)[counters.Instructions] / 1e6
		}, grid)
		sum += metrics.RelMAE(got, want)
		n++
	}
	if n == 0 {
		return 0, false
	}
	return 100 * sum / float64(n), true
}

// serviceDoc is the part of a POST /v1/traces reply the gate checks.
type serviceDoc struct {
	Digest    string            `json:"digest"`
	Outcome   string            `json:"outcome"`
	Clusters  int               `json:"clusters"`
	Bursts    int               `json:"bursts"`
	Artifacts map[string]string `json:"artifacts"`
}

// checkServiceDoc compares a service reply with the in-process analysis of
// the same bytes: outcome, cluster count and burst count must match, and
// every artifact must be offered.
func checkServiceDoc(doc serviceDoc, want *analysis) error {
	switch {
	case doc.Outcome != want.outcome():
		return fmt.Errorf("outcome %q, in-process %q", doc.Outcome, want.outcome())
	case doc.Clusters != want.Model.NumClusters:
		return fmt.Errorf("%d clusters, in-process %d", doc.Clusters, want.Model.NumClusters)
	case doc.Bursts != want.Model.NumBursts:
		return fmt.Errorf("%d bursts, in-process %d", doc.Bursts, want.Model.NumBursts)
	}
	for _, name := range artifactNames {
		if doc.Artifacts[name] == "" {
			return fmt.Errorf("artifact %s not offered", name)
		}
	}
	return nil
}
