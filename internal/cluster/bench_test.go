package cluster

import (
	"testing"

	"phasefold/internal/sim"
)

func benchPoints(n, k int) []Point {
	rng := sim.NewRNG(5)
	pts := make([]Point, 0, n)
	per := n / k
	for c := 0; c < k; c++ {
		cx, cy := rng.Float64(), rng.Float64()
		pts = append(pts, blob(rng, per, cx, cy, 0.01)...)
	}
	return pts
}

func BenchmarkDBSCAN1k(b *testing.B) {
	pts := benchPoints(1000, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DBSCAN(pts, DBSCANOptions{Eps: 0.04, MinPts: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDBSCAN10k(b *testing.B) {
	pts := benchPoints(10000, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DBSCAN(pts, DBSCANOptions{Eps: 0.04, MinPts: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRefine10k(b *testing.B) {
	pts := benchPoints(10000, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Refine(pts, DefaultRefineOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDBSCAN80kTight is the dense case that was quadratic under the
// breadth-first expansion: 80k points in four tight blobs.
func BenchmarkDBSCAN80kTight(b *testing.B) {
	pts := benchPoints(80000, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DBSCAN(pts, DBSCANOptions{Eps: 0.04, MinPts: 4}); err != nil {
			b.Fatal(err)
		}
	}
}
