package export

import (
	"context"
	"io"
	"sync"
	"testing"

	"phasefold/internal/core"
	"phasefold/internal/simapp"
)

// The benchmark pair mirrors the obs on/off pair: BenchmarkAnalyzeNoExport
// is the pipeline alone, BenchmarkAnalyzeWithExports adds the full export
// surface: the view plus the four artifacts phasefoldd renders for every
// job (Perfetto timeline, flamegraph, OpenMetrics and JSON snapshots).
// Exporting is strictly post-analysis, so the "no export" run must not pay
// anything for the export layer's existence; compare the two to see what
// exporting itself costs.
func BenchmarkAnalyzeNoExport(b *testing.B) {
	fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Analyze(context.Background(), fixTrace, core.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalyzeWithExports(b *testing.B) {
	fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := core.Analyze(context.Background(), fixTrace, core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		v := m.Export(fixTrace)
		if err := WritePerfetto(io.Discard, v); err != nil {
			b.Fatal(err)
		}
		if err := WriteFlamegraph(io.Discard, v, WeightTime); err != nil {
			b.Fatal(err)
		}
		if err := WriteOpenMetrics(io.Discard, v); err != nil {
			b.Fatal(err)
		}
		if err := WriteSnapshotJSON(io.Discard, v); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExportView isolates the view construction.
func BenchmarkExportView(b *testing.B) {
	fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := fixModel.Export(fixTrace); v == nil {
			b.Fatal("nil view")
		}
	}
}

// The cg 16 ranks × 400 iterations view: dense bursts, ~13 MB of timeline.
var (
	cgOnce sync.Once
	cgView *core.ExportView
	cgErr  error
)

func cgBenchView(b *testing.B) *core.ExportView {
	b.Helper()
	cgOnce.Do(func() {
		app, err := simapp.NewApp("cg")
		if err != nil {
			cgErr = err
			return
		}
		cfg := simapp.Config{Ranks: 16, Iterations: 400, Seed: 1, FreqGHz: 2}
		model, run, err := core.AnalyzeApp(context.Background(), app, cfg, core.DefaultOptions())
		if err != nil {
			cgErr = err
			return
		}
		cgView = model.Export(run.Trace)
	})
	if cgErr != nil {
		b.Fatal(cgErr)
	}
	return cgView
}

// BenchmarkWritePerfettoCG isolates the timeline render on the cg view;
// BenchmarkWritePerfettoCGOracle runs the former json.Encoder path on the
// same view for comparison.
func BenchmarkWritePerfettoCG(b *testing.B) {
	benchWritePerfetto(b, WritePerfetto)
}

func BenchmarkWritePerfettoCGOracle(b *testing.B) {
	benchWritePerfetto(b, oracleWritePerfetto)
}

func benchWritePerfetto(b *testing.B, write func(io.Writer, *core.ExportView) error) {
	v := cgBenchView(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := write(io.Discard, v); err != nil {
			b.Fatal(err)
		}
	}
}
