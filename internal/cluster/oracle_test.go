package cluster

import "math"

// This file keeps the sequential breadth-first DBSCAN that the grid
// algorithm in dbscan.go replaced. It serves only as the oracle for the
// differential tests: the grid algorithm must reproduce its labels exactly.

// oracleGridDim bounds the dimensionality the oracle's grid index handles;
// higher-dimensional point sets use its linear scan.
const oracleGridDim = 6

type oracleCell [oracleGridDim]int64

// oracleGrid is a uniform-grid neighbourhood index with cell size eps: all
// eps-neighbours of a point lie in its 3^d adjacent cells. A nil cells map
// means the index declined to build (dimension too high, density so
// degenerate the grid could not prune, or a forced scan) and queries scan
// pts linearly.
type oracleGrid struct {
	eps   float64
	dim   int
	cells map[oracleCell][]int
	pts   []Point
}

func (g *oracleGrid) cellOf(p Point) oracleCell {
	var c oracleCell
	for j, v := range p {
		c[j] = int64(math.Floor(v / g.eps))
	}
	return c
}

func newOracleGrid(pts []Point, eps float64, scan bool) *oracleGrid {
	g := &oracleGrid{eps: eps, pts: pts}
	if len(pts) > 0 {
		g.dim = len(pts[0])
	}
	if scan || g.dim > oracleGridDim {
		return g
	}
	g.cells = make(map[oracleCell][]int, len(pts)/4+1)
	for i, p := range pts {
		c := g.cellOf(p)
		g.cells[c] = append(g.cells[c], i)
	}
	if len(g.cells) <= pow3(g.dim) {
		g.cells = nil
	}
	return g
}

func pow3(d int) int {
	p := 1
	for i := 0; i < d; i++ {
		p *= 3
	}
	return p
}

// neighbors appends to out the indices of points within eps of pts[i]
// (including i itself) and returns the extended slice.
func (g *oracleGrid) neighbors(i int, out []int) []int {
	p := g.pts[i]
	eps2 := g.eps * g.eps
	if g.cells == nil {
		for cand := range g.pts {
			if dist2(p, g.pts[cand]) <= eps2 {
				out = append(out, cand)
			}
		}
		return out
	}
	base := g.cellOf(p)
	var off oracleCell
	for j := 0; j < g.dim; j++ {
		off[j] = -1
	}
	for {
		var key oracleCell
		for j := 0; j < g.dim; j++ {
			key[j] = base[j] + off[j]
		}
		for _, cand := range g.cells[key] {
			if dist2(p, g.pts[cand]) <= eps2 {
				out = append(out, cand)
			}
		}
		j := 0
		for ; j < g.dim; j++ {
			off[j]++
			if off[j] <= 1 {
				break
			}
			off[j] = -1
		}
		if j == g.dim {
			break
		}
	}
	return out
}

// oracleDBSCAN is the sequential DBSCAN: scan points by index, start a
// cluster at every unvisited core point and grow it breadth-first. With scan
// set, every range query is a linear scan — the definition itself, immune to
// any grid's floating-point cell assignment.
func oracleDBSCAN(pts []Point, opt DBSCANOptions, scan bool) []int {
	n := len(pts)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = Noise
	}
	if n == 0 {
		return labels
	}
	g := newOracleGrid(pts, opt.Eps, scan)
	visited := make([]bool, n)
	var scratch, queue []int
	next := 0
	for i := 0; i < n; i++ {
		if visited[i] {
			continue
		}
		visited[i] = true
		scratch = g.neighbors(i, scratch[:0])
		if len(scratch) < opt.MinPts {
			continue
		}
		c := next
		next++
		labels[i] = c
		queue = claimNeighbors(scratch, c, labels, visited, queue[:0])
		for qi := 0; qi < len(queue); qi++ {
			scratch = g.neighbors(queue[qi], scratch[:0])
			if len(scratch) >= opt.MinPts {
				queue = claimNeighbors(scratch, c, labels, visited, queue)
			}
		}
	}
	return labels
}

// claimNeighbors folds one range query's result into cluster c: noise
// points (visited or not) are absorbed as members, and unvisited points are
// additionally claimed and enqueued for their own expansion.
func claimNeighbors(neighbors []int, c int, labels []int, visited []bool, queue []int) []int {
	for _, j := range neighbors {
		if !visited[j] {
			visited[j] = true
			labels[j] = c
			queue = append(queue, j)
		} else if labels[j] == Noise {
			labels[j] = c
		}
	}
	return queue
}
