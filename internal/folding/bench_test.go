package folding

import (
	"testing"

	"phasefold/internal/sim"
)

func BenchmarkFold1kBursts(b *testing.B) {
	tr, bursts := buildFoldingTrace(b, 1000, 1.0, 3.0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fold(tr, bursts, 0, DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFoldDense folds one cluster in the dense-sampling shape: 1600
// bursts carrying ~176k samples, each with every counter and a stack, so
// the final sort orders twelve clouds of ~176k points.
func BenchmarkFoldDense(b *testing.B) {
	tr, bursts := buildFoldFixture(sim.NewRNG(1), foldShape{
		bursts: 1600, ranks: 8, labels: 1, maxSamples: 219, durations: []int64{1_000_000, 1_020_000},
	})
	for i := range bursts {
		bursts[i].Cluster = 0
	}
	f, err := Fold(tr, bursts, 0, Options{})
	if err != nil {
		b.Fatal(err)
	}
	if n := len(f.Stacks); n < 150_000 {
		b.Fatalf("dense fixture folds %d samples, want >= 150k", n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fold(tr, bursts, 0, DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAttribute(b *testing.B) {
	tr, bursts := buildFoldingTrace(b, 2000, 1.0, 3.0)
	f, err := Fold(tr, bursts, 0, DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x0 := float64(i%10) / 20
		if _, ok := Attribute(f, tr.Stacks, x0, x0+0.5); !ok {
			b.Fatal("no attribution")
		}
	}
}
