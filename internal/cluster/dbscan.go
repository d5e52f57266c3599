// Package cluster implements the structure-detection stage: grouping the
// computation bursts of an SPMD execution into clusters of behaviourally
// identical code regions. It provides the density-based DBSCAN algorithm the
// original phase-detection work used (González et al., IPDPS 2009) and the
// Aggregative Cluster Refinement that fixes DBSCAN's two weaknesses —
// parameter sensitivity and varying-density data (IPDPS-W 2012).
package cluster

import (
	"context"
	"fmt"
	"math"

	"phasefold/internal/obs"
)

// Noise is the label DBSCAN assigns to points in no cluster.
const Noise = -1

// Point is one observation in feature space.
type Point []float64

// dist2 returns squared Euclidean distance.
func dist2(a, b Point) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// DBSCANOptions parameterizes a DBSCAN run.
type DBSCANOptions struct {
	// Eps is the neighbourhood radius in (normalized) feature space.
	Eps float64
	// MinPts is the minimum neighbourhood population for a core point.
	MinPts int
}

// Validate reports parameter errors.
func (o DBSCANOptions) Validate() error {
	if o.Eps <= 0 {
		return fmt.Errorf("cluster: non-positive eps %v", o.Eps)
	}
	if o.MinPts < 1 {
		return fmt.Errorf("cluster: MinPts %d < 1", o.MinPts)
	}
	return nil
}

// maxGridDim bounds the dimensionality the grid keys on. Every feature
// space in this package is 2-5 dimensional; a higher-dimensional point set
// is gridded on its first maxGridDim coordinates only, so its cells are not
// guaranteed to be eps-compact and the algorithm falls back to distance
// queries inside them (see grid.compact).
const maxGridDim = 6

// cellShrink narrows the cell side just below eps/√d, so that a cell's
// exact diagonal stays strictly under eps and its computed diagonal passes
// the same dist2 <= eps² comparison the definition uses, despite rounding
// in the cell assignment.
const cellShrink = 1 - 1e-9

// maxCellIndex bounds |coordinate / cell side|. Below it, floating-point
// rounding moves a point by far less than a cell, so the neighbour-cell
// test in near is exact; beyond it (or for a non-finite coordinate) the
// grid collapses to a single cell, which is exact but quadratic.
const maxCellIndex = 1 << 32

// cellCoord addresses one grid cell; dimensions past the gridded dimension
// stay zero. A comparable array key hashes without any per-query string
// encoding or allocation.
type cellCoord [maxGridDim]int64

// grid partitions the points into cells of side eps/√d. Two points in one
// compact cell are at most eps apart, so such a cell holding MinPts points
// makes all of them core without a distance query, and all core points of
// it belong to one cluster. Cells index their points in ascending point
// order through CSR offset arrays.
type grid struct {
	pts   []Point
	eps2  float64
	dim   int // point dimension
	gdim  int // gridded dimensions, min(dim, maxGridDim)
	keys  []cellCoord
	start []int // cell c holds members[start[c]:start[c+1]]
	// members lists point indices grouped by cell.
	members []int
	// compact[c] reports that every pair of points in cell c passes
	// dist2 <= eps², verified on the cell's bounding box (see newGrid).
	compact []bool
	// adjStart/adj list, per cell, the other cells that may hold a point
	// within eps of one of its points.
	adjStart []int
	adj      []int32
}

func (g *grid) cell(c int) []int   { return g.members[g.start[c]:g.start[c+1]] }
func (g *grid) nbrs(c int) []int32 { return g.adj[g.adjStart[c]:g.adjStart[c+1]] }

// newGrid buckets pts into cells, checks each cell's compactness and builds
// the cell adjacency.
func newGrid(pts []Point, eps float64) *grid {
	n := len(pts)
	g := &grid{pts: pts, eps2: eps * eps, dim: len(pts[0])}
	g.gdim = min(g.dim, maxGridDim)
	side := eps / math.Sqrt(float64(g.dim)) * cellShrink
	collapse := false
	for _, p := range pts {
		for _, v := range p[:g.gdim] {
			if q := v / side; !(math.Abs(q) < maxCellIndex) {
				collapse = true // also catches NaN and ±Inf
			}
		}
	}
	cellOf := make([]int32, n)
	ids := make(map[cellCoord]int32)
	for i, p := range pts {
		var key cellCoord
		if !collapse {
			for j, v := range p[:g.gdim] {
				key[j] = int64(math.Floor(v / side))
			}
		}
		id, ok := ids[key]
		if !ok {
			id = int32(len(g.keys))
			ids[key] = id
			g.keys = append(g.keys, key)
		}
		cellOf[i] = id
	}
	nc := len(g.keys)
	g.start = make([]int, nc+1)
	for _, c := range cellOf {
		g.start[c+1]++
	}
	for c := 0; c < nc; c++ {
		g.start[c+1] += g.start[c]
	}
	g.members = make([]int, n)
	fill := append([]int(nil), g.start[:nc]...)
	for i, c := range cellOf {
		g.members[fill[c]] = i
		fill[c]++
	}

	// A cell is compact when the computed diagonal of its bounding box
	// passes dist2 <= eps². Rounding is monotone, so every pair in the
	// cell, whose per-dimension differences are no larger than the box's,
	// then passes too: the claim "same cell => neighbour" is checked under
	// the exact comparison the definition uses rather than assumed. In
	// exact arithmetic every cell of a point set of at most maxGridDim
	// dimensions is compact; NaN or ±Inf coordinates fail the check.
	g.compact = make([]bool, nc)
	lo, hi := make(Point, g.dim), make(Point, g.dim)
	for c := 0; c < nc; c++ {
		m := g.cell(c)
		copy(lo, pts[m[0]])
		copy(hi, pts[m[0]])
		for _, i := range m[1:] {
			for j, v := range pts[i] {
				lo[j] = math.Min(lo[j], v)
				hi[j] = math.Max(hi[j], v)
			}
		}
		g.compact[c] = dist2(lo, hi) <= g.eps2
	}

	// Neighbour cells differ by at most reach = 1+⌊√d⌋ in every gridded
	// dimension, so bucketing cells into coarse cells of reach fine cells
	// puts every neighbour in one of the 3^gdim adjacent coarse cells.
	reach := int64(1 + math.Sqrt(float64(g.dim)))
	coarse := make(map[cellCoord][]int32, nc)
	coarseOf := func(k cellCoord) cellCoord {
		for j := 0; j < g.gdim; j++ {
			k[j] = floorDiv(k[j], reach)
		}
		return k
	}
	for c, k := range g.keys {
		ck := coarseOf(k)
		coarse[ck] = append(coarse[ck], int32(c))
	}
	g.adjStart = make([]int, nc+1)
	for c, k := range g.keys {
		base := coarseOf(k)
		var off cellCoord
		for j := 0; j < g.gdim; j++ {
			off[j] = -1
		}
		for {
			key := base
			for j := 0; j < g.gdim; j++ {
				key[j] += off[j]
			}
			for _, c2 := range coarse[key] {
				if int(c2) != c && g.near(k, g.keys[c2]) {
					g.adj = append(g.adj, c2)
				}
			}
			if !odometer(&off, g.gdim) {
				break
			}
		}
		g.adjStart[c+1] = len(g.adj)
	}
	return g
}

// odometer advances off through {-1,0,1}^dim and reports false once it
// wraps around.
func odometer(off *cellCoord, dim int) bool {
	for j := 0; j < dim; j++ {
		off[j]++
		if off[j] <= 1 {
			return true
		}
		off[j] = -1
	}
	return false
}

// near reports whether cells a and b can hold points within eps of each
// other: their gap, (|Δ|-1)·side summed in quadrature over the gridded
// dimensions, is at most eps = √d·side. The ungridded dimensions only add
// distance, so the test stays a valid filter for them.
func (g *grid) near(a, b cellCoord) bool {
	var gap int64
	for j := 0; j < g.gdim; j++ {
		d := a[j] - b[j]
		if d < 0 {
			d = -d
		}
		if d > 1 {
			gap += (d - 1) * (d - 1)
		}
	}
	return gap <= int64(g.dim)
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && a < 0 {
		q--
	}
	return q
}

// dbscanPoll is how many distance evaluations (or points, in the linear
// passes) run between context polls: a few tens of microseconds of work.
const dbscanPoll = 1 << 14

// dbscan is one run of the grid algorithm.
type dbscan struct {
	ctx    context.Context
	g      *grid
	minPts int
	work   int
	err    error
	core   []bool
	// coreStart/cores list each cell's core points, like grid.start/members.
	coreStart []int
	cores     []int
	parent    []int32
	// queried counts points whose core test needed distance queries.
	queried int64
}

// tick accounts for units of work and polls the context every dbscanPoll
// of them; it reports false once the context is done.
func (d *dbscan) tick(units int) bool {
	d.work += units
	if d.work >= dbscanPoll {
		d.work = 0
		d.err = d.ctx.Err()
	}
	return d.err == nil
}

func (d *dbscan) within(p, q int) bool {
	return dist2(d.g.pts[p], d.g.pts[q]) <= d.g.eps2
}

func (d *dbscan) coresOf(c int) []int { return d.cores[d.coreStart[c]:d.coreStart[c+1]] }

// DBSCAN labels each point with a cluster id in [0, k) or Noise. Labels are
// deterministic: clusters are numbered in order of discovery scanning points
// by index.
func DBSCAN(pts []Point, opt DBSCANOptions) ([]int, error) {
	return DBSCANContext(context.Background(), pts, opt)
}

// DBSCANContext is DBSCAN under a cancellable context, polled inside every
// pass, including the cell-pair scans, so a deadline interrupts even one
// degenerate everything-is-one-cell point set.
//
// It runs the exact grid algorithm (Gunawan 2013; Gan & Tao, SIGMOD 2015)
// in four passes: core test, core-point union-find, cluster numbering and
// border assignment. The labels equal those of the sequential breadth-first
// DBSCAN, which numbers clusters in order of each component's lowest-index
// core point and gives a border point to the first cluster that reaches it,
// i.e. the smallest id among the clusters with a core point within eps.
func DBSCANContext(ctx context.Context, pts []Point, opt DBSCANOptions) ([]int, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	for i, p := range pts {
		if len(p) != len(pts[0]) {
			return nil, fmt.Errorf("cluster: point %d has dimension %d, want %d", i, len(p), len(pts[0]))
		}
	}
	n := len(pts)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = Noise
	}
	if n == 0 {
		return labels, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	d := &dbscan{ctx: ctx, g: newGrid(pts, opt.Eps), minPts: opt.MinPts}
	if !d.markCores() || !d.link() {
		return nil, d.err
	}
	d.number(labels)
	if !d.assignBorders(labels) {
		return nil, d.err
	}
	// The points that needed distance queries measure the algorithm's
	// cost (dense cells resolve without any); surface the count to the
	// caller's telemetry.
	obs.SpanFromContext(ctx).AddInt("dbscan_expansions", d.queried)
	obs.Metrics(ctx).Counter(obs.MetricDBSCANExpansions,
		"DBSCAN points whose core test needed distance queries.").Add(d.queried)
	return labels, nil
}

// markCores decides every point's core status and indexes the core points
// by cell. A compact cell holding MinPts points is all core; any other
// point counts its neighbours, its own compact cell wholesale, and stops at
// MinPts.
func (d *dbscan) markCores() bool {
	g := d.g
	d.core = make([]bool, len(g.pts))
	nc := len(g.keys)
	d.coreStart = make([]int, nc+1)
	for c := 0; c < nc; c++ {
		m := g.cell(c)
		if g.compact[c] && len(m) >= d.minPts {
			for _, p := range m {
				d.core[p] = true
			}
			d.cores = append(d.cores, m...)
			d.coreStart[c+1] = len(d.cores)
			if !d.tick(len(m)) {
				return false
			}
			continue
		}
		for _, p := range m {
			d.queried++
			cnt := len(m)
			if !g.compact[c] {
				cnt = d.count(p, m, d.minPts)
			}
			for _, c2 := range g.nbrs(c) {
				if cnt >= d.minPts {
					break
				}
				cnt += d.count(p, g.cell(int(c2)), d.minPts-cnt)
			}
			if d.err != nil {
				return false
			}
			if cnt >= d.minPts {
				d.core[p] = true
				d.cores = append(d.cores, p)
			}
		}
		d.coreStart[c+1] = len(d.cores)
	}
	return true
}

// count returns how many of cand lie within eps of p, stopping at need.
func (d *dbscan) count(p int, cand []int, need int) int {
	cnt := 0
	for _, q := range cand {
		if d.within(p, q) {
			cnt++
			if cnt >= need {
				break
			}
		}
	}
	d.tick(len(cand))
	return cnt
}

func (d *dbscan) find(p int32) int32 {
	for d.parent[p] != p {
		d.parent[p] = d.parent[d.parent[p]]
		p = d.parent[p]
	}
	return p
}

func (d *dbscan) union(p, q int) {
	rp, rq := d.find(int32(p)), d.find(int32(q))
	if rp != rq {
		d.parent[rq] = rp
	}
}

// link unions core points within eps of each other. The core points of a
// compact cell are one component from the start; two compact cells join at
// their first in-range core pair. A cell that is not compact links its core
// points pair by pair, within itself and against its neighbours.
func (d *dbscan) link() bool {
	g := d.g
	d.parent = make([]int32, len(g.pts))
	for i := range d.parent {
		d.parent[i] = int32(i)
	}
	nc := len(g.keys)
	for c := 0; c < nc; c++ {
		cs := d.coresOf(c)
		if len(cs) == 0 {
			continue
		}
		if g.compact[c] {
			for _, p := range cs[1:] {
				d.parent[p] = int32(cs[0])
			}
			continue
		}
		if d.linkAll(cs, cs); d.err != nil {
			return false
		}
	}
	for c := 0; c < nc; c++ {
		as := d.coresOf(c)
		if len(as) == 0 {
			continue
		}
		for _, c2 := range g.nbrs(c) {
			if int(c2) < c {
				continue // each cell pair once
			}
			bs := d.coresOf(int(c2))
			if len(bs) == 0 {
				continue
			}
			if g.compact[c] && g.compact[c2] {
				if d.find(int32(as[0])) != d.find(int32(bs[0])) {
					d.linkFirst(as, bs)
				}
			} else {
				d.linkAll(as, bs)
			}
			if d.err != nil {
				return false
			}
		}
	}
	return true
}

// linkFirst unions the components of two compact cells at their first
// in-range core pair.
func (d *dbscan) linkFirst(as, bs []int) {
	for _, p := range as {
		for _, q := range bs {
			if d.within(p, q) {
				d.union(p, q)
				return
			}
		}
		if !d.tick(len(bs)) {
			return
		}
	}
}

// linkAll unions every in-range core pair across two cells, skipping pairs
// already in one component.
func (d *dbscan) linkAll(as, bs []int) {
	for _, p := range as {
		for _, q := range bs {
			if d.find(int32(p)) != d.find(int32(q)) && d.within(p, q) {
				d.union(p, q)
			}
		}
		if !d.tick(len(bs)) {
			return
		}
	}
}

// number labels the core points, numbering components in order of their
// lowest-index core point.
func (d *dbscan) number(labels []int) {
	id := make([]int32, len(labels))
	for i := range id {
		id[i] = -1
	}
	next := int32(0)
	for p, isCore := range d.core {
		if !isCore {
			continue
		}
		r := d.find(int32(p))
		if id[r] < 0 {
			id[r] = next
			next++
		}
		labels[p] = int(id[r])
	}
}

// assignBorders gives each non-core point the smallest cluster id among the
// core points within eps of it, or leaves it Noise. A compact cell's core
// points share one id, so its scan stops at the first one in range.
func (d *dbscan) assignBorders(labels []int) bool {
	g := d.g
	for c := range g.keys {
		m := g.cell(c)
		if g.compact[c] && len(m) >= d.minPts {
			continue // all core
		}
		for _, p := range m {
			if d.core[p] {
				continue
			}
			best := d.nearestLabel(p, c, Noise, labels)
			for _, c2 := range g.nbrs(c) {
				best = d.nearestLabel(p, int(c2), best, labels)
			}
			labels[p] = best
			if d.err != nil {
				return false
			}
		}
	}
	return true
}

// nearestLabel lowers best (Noise meaning none yet) to the smallest label
// of a core point in cell c within eps of p.
func (d *dbscan) nearestLabel(p, c, best int, labels []int) int {
	cs := d.coresOf(c)
	if len(cs) == 0 {
		return best
	}
	if d.g.compact[c] {
		l := labels[cs[0]]
		if best != Noise && l >= best {
			return best
		}
		for _, q := range cs {
			if d.within(p, q) {
				best = l
				break
			}
		}
	} else {
		for _, q := range cs {
			if l := labels[q]; (best == Noise || l < best) && d.within(p, q) {
				best = l
			}
		}
	}
	d.tick(len(cs))
	return best
}

// NumClusters returns the number of distinct non-noise labels.
func NumClusters(labels []int) int {
	maxL := -1
	for _, l := range labels {
		if l > maxL {
			maxL = l
		}
	}
	return maxL + 1
}

// Sizes returns the population of each cluster label plus the noise count.
func Sizes(labels []int) (sizes []int, noise int) {
	sizes = make([]int, NumClusters(labels))
	for _, l := range labels {
		if l == Noise {
			noise++
			continue
		}
		sizes[l]++
	}
	return sizes, noise
}
