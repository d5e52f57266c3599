package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"phasefold/internal/sim"
)

// randomPointSet draws one of several point-set shapes in dim dimensions:
// tight and diffuse blobs, uniform scatter, and lattice points, which
// produce exact duplicates and pairs exactly one lattice step apart. Every
// shape straddles the origin, so negative coordinates are always present.
func randomPointSet(rng *sim.RNG, dim, n int) []Point {
	pts := make([]Point, n)
	shape := rng.Intn(4)
	centres := make([]Point, 1+rng.Intn(4))
	for k := range centres {
		centres[k] = make(Point, dim)
		for j := range centres[k] {
			centres[k][j] = rng.Float64()*2 - 1
		}
	}
	step := 0.01 * float64(1+rng.Intn(8))
	for i := range pts {
		c := centres[rng.Intn(len(centres))]
		p := make(Point, dim)
		for j := range p {
			switch shape {
			case 0: // tight blobs
				p[j] = c[j] + rng.Normal(0, 0.01)
			case 1: // diffuse blobs
				p[j] = c[j] + rng.Normal(0, 0.1)
			case 2: // uniform scatter
				p[j] = rng.Float64()*2 - 1
			default: // lattice
				p[j] = float64(rng.Intn(9)-4) * step
			}
		}
		pts[i] = p
	}
	return pts
}

func diffLabels(got, want []int) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d labels, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("point %d: label %d, BFS %d", i, got[i], want[i])
		}
	}
	return nil
}

// TestDBSCANMatchesBFS holds the grid algorithm to the sequential BFS label
// for label, against both the BFS's grid index and its linear scan, over
// random point sets in 1-7 dimensions, 5 eps values and 4 MinPts values.
func TestDBSCANMatchesBFS(t *testing.T) {
	rng := sim.NewRNG(13)
	sets := 100
	if testing.Short() {
		sets = 30
	}
	for s := 0; s < sets; s++ {
		dim := 1 + s%7
		pts := randomPointSet(rng, dim, 20+rng.Intn(180))
		for _, eps := range []float64{0.01, 0.03, 0.05, 0.1, 0.3} {
			for _, minPts := range []int{1, 2, 4, 8} {
				opt := DBSCANOptions{Eps: eps, MinPts: minPts}
				got, err := DBSCAN(pts, opt)
				if err != nil {
					t.Fatal(err)
				}
				for _, scan := range []bool{false, true} {
					if err := diffLabels(got, oracleDBSCAN(pts, opt, scan)); err != nil {
						t.Fatalf("set %d (dim %d, n %d) eps %v MinPts %d scan %v: %v",
							s, dim, len(pts), eps, minPts, scan, err)
					}
				}
			}
		}
	}
}

// TestDBSCANEpsBoundaryPairs pins the floating-point edge of the grid: in
// exact arithmetic two points of one cell are at most eps apart, but at a
// cell side of exactly eps/√d the computed dist2 of a corner-to-corner pair
// can exceed eps² by an ulp. The cells must stay compact (every pair passes
// the definition's comparison) with points on opposite corners, and pairs
// placed exactly eps apart along the diagonal across cells must label as the
// BFS labels them.
func TestDBSCANEpsBoundaryPairs(t *testing.T) {
	rng := sim.NewRNG(21)
	for trial := 0; trial < 400; trial++ {
		dim := 1 + trial%7
		eps := math.Ldexp(0.5+rng.Float64(), -rng.Intn(12))
		side := eps / math.Sqrt(float64(dim)) * cellShrink
		k := float64(rng.Intn(200) - 100)
		lo, hi := make(Point, dim), make(Point, dim)
		for j := range lo {
			lo[j] = k * side
			hi[j] = math.Nextafter((k+1)*side, math.Inf(-1))
		}
		// A dense cell with its points on the two extreme corners.
		var pts []Point
		for i := 0; i < 4; i++ {
			pts = append(pts, slices.Clone(lo), slices.Clone(hi))
		}
		// Diagonal pairs exactly eps apart, starting at a cell corner.
		for i := 0; i < 3; i++ {
			p := make(Point, dim)
			q := make(Point, dim)
			for j := range p {
				p[j] = float64(3*i+5)*side + k*side
				q[j] = p[j] + eps/math.Sqrt(float64(dim))
			}
			pts = append(pts, p, q)
		}
		g := newGrid(pts, eps)
		for c := range g.keys {
			if dim <= maxGridDim && !g.compact[c] {
				t.Fatalf("trial %d (dim %d eps %v): cell %v not compact", trial, dim, eps, g.keys[c])
			}
		}
		for _, minPts := range []int{1, 2, 4, 8} {
			opt := DBSCANOptions{Eps: eps, MinPts: minPts}
			got, err := DBSCAN(pts, opt)
			if err != nil {
				t.Fatal(err)
			}
			if err := diffLabels(got, oracleDBSCAN(pts, opt, true)); err != nil {
				t.Fatalf("trial %d (dim %d eps %v MinPts %d): %v", trial, dim, eps, minPts, err)
			}
		}
	}
}

// TestDBSCANNonFiniteAndExtremeCoordinates covers the single-cell collapse:
// coordinates too large for exact cell assignment, NaN and ±Inf.
func TestDBSCANNonFiniteAndExtremeCoordinates(t *testing.T) {
	sets := [][]Point{
		{{0, 0}, {0.01, 0}, {1e300, 0}, {1e300, 0.01}, {0.02, 0}},
		{{0, 0}, {math.NaN(), 0}, {0.01, 0}, {0.02, 0}},
		{{0, 0}, {math.Inf(1), 0}, {math.Inf(1), 0}, {0.01, 0}, {0, 0}},
	}
	for s, pts := range sets {
		for _, minPts := range []int{1, 2, 3} {
			opt := DBSCANOptions{Eps: 0.05, MinPts: minPts}
			got, err := DBSCAN(pts, opt)
			if err != nil {
				t.Fatal(err)
			}
			if err := diffLabels(got, oracleDBSCAN(pts, opt, true)); err != nil {
				t.Fatalf("set %d MinPts %d: %v", s, minPts, err)
			}
		}
	}
}

// FuzzDBSCANMatchesBFS decodes a point set in 1-7 dimensions whose
// coordinates are small-integer multiples of eps, eps/√d or eps/2, so
// duplicates, negative coordinates, points exactly eps apart and points on
// cell boundaries are common, and holds the grid algorithm to the
// linear-scan BFS.
func FuzzDBSCANMatchesBFS(f *testing.F) {
	f.Add([]byte{2, 40, 4, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{3, 7, 1, 1, 255, 0, 0, 1, 1, 1, 128, 127, 2, 2, 2})
	f.Add([]byte{7, 100, 2, 2, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{1, 1, 8, 3, 5, 5, 5, 5, 5, 5, 5, 5, 6, 4, 250})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		dim := 1 + int(data[0])%7
		eps := 0.01 * float64(1+int(data[1])%100)
		minPts := 1 + int(data[2])%8
		unit := [...]float64{eps, eps / math.Sqrt(float64(dim)), eps / 2, eps * cellShrink / math.Sqrt(float64(dim))}[data[3]%4]
		data = data[4:]
		if len(data) > 400 {
			data = data[:400]
		}
		var pts []Point
		for len(data) >= dim {
			p := make(Point, dim)
			for j := range p {
				p[j] = float64(int8(data[j])%16) * unit
			}
			pts = append(pts, p)
			data = data[dim:]
		}
		opt := DBSCANOptions{Eps: eps, MinPts: minPts}
		got, err := DBSCAN(pts, opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := diffLabels(got, oracleDBSCAN(pts, opt, true)); err != nil {
			t.Fatalf("dim %d eps %v MinPts %d unit %v: %v", dim, eps, minPts, unit, err)
		}
	})
}

// TestDBSCANCancelsPromptly cancels a run whose points differ only in
// ungridded dimensions, so they share one cell that is not compact: the
// worst case for the pair scans, quadratic in the point count. The run must
// return within 100 ms of the cancel.
func TestDBSCANCancelsPromptly(t *testing.T) {
	rng := sim.NewRNG(5)
	pts := make([]Point, 20000)
	for i := range pts {
		p := make(Point, maxGridDim+2)
		p[maxGridDim] = rng.Float64()
		p[maxGridDim+1] = rng.Float64()
		pts[i] = p
	}
	ctx, cancel := context.WithCancel(context.Background())
	var canceledAt atomic.Int64
	time.AfterFunc(20*time.Millisecond, func() {
		canceledAt.Store(time.Now().UnixNano())
		cancel()
	})
	_, err := DBSCANContext(ctx, pts, DBSCANOptions{Eps: 0.05, MinPts: 4})
	returned := time.Now().UnixNano()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if lag := time.Duration(returned - canceledAt.Load()); lag > 100*time.Millisecond {
		t.Fatalf("returned %v after the cancel, want < 100ms", lag)
	}
}
