// Package align scores the quality of a structure detection by sequence
// alignment, following the evaluation method of González et al. (PDCAT
// 2009): under the SPMD paradigm every rank executes the same sequence of
// computation regions, so if clustering recovered the true structure, the
// per-rank sequences of cluster labels must align almost perfectly. The
// package implements Needleman-Wunsch pairwise global alignment and a
// star-shaped progressive multiple alignment, from which it derives an
// SPMD-ness score in [0,1].
package align

import (
	"context"
	"fmt"
	"math"
	"slices"
)

// Gap is the symbol used for alignment gaps.
const Gap = -1

// Scoring holds the alignment scores. Defaults follow the usual unit-cost
// global alignment.
type Scoring struct {
	Match    int
	Mismatch int
	GapOpen  int
}

// DefaultScoring returns match +2, mismatch -1, gap -2.
func DefaultScoring() Scoring { return Scoring{Match: 2, Mismatch: -1, GapOpen: -2} }

// Pairwise computes the Needleman-Wunsch global alignment of a and b,
// returning the two gapped sequences (equal length, Gap where a gap was
// inserted) and the alignment score.
func Pairwise(a, b []int, sc Scoring) (ga, gb []int, score int) {
	al := aligner{ctx: context.Background(), sc: sc}
	ga, gb, score, _ = al.pairwise(a, b)
	return ga, gb, score
}

// Traceback moves, in the order the traceback prefers them on ties.
const (
	moveDiag byte = iota
	moveUp
	moveLeft
)

const (
	// initialBand is the first band half-width k tried; it doubles until
	// the banded score is provably optimal.
	initialBand = 8
	// alignPoll is how many DP cells are computed between context polls,
	// which happen between rows: well under a millisecond of work.
	alignPoll = 1 << 16
	// unreachable stands in for the score of a cell outside the band.
	unreachable = math.MinInt / 4
)

// aligner runs banded Needleman-Wunsch. SPMD ranks execute nearly the same
// sequence of regions, so the optimal alignment stays near the diagonal:
// the DP covers only the diagonals j-i in [min(0,m-n)-k, max(0,m-n)+k] and
// doubles k until no path leaving the band can match the banded score.
// Every optimal path then lies inside the band, each of its cells and their
// in-band predecessors carry their full-matrix values, and the traceback
// moves, chosen diagonal > up > left on ties exactly as over the full
// matrix, give the same gapped rows. The move table and score rows are
// reused across calls.
type aligner struct {
	ctx   context.Context
	sc    Scoring
	moves []byte // (n+1) rows of stride cells, row i starting at column max(0, i+lo)
	rows  []int  // previous and current score rows
	cells int    // cells computed since the last context poll
}

// pairwise aligns a and b, returning ctx's error if it is cancelled
// mid-alignment.
func (al *aligner) pairwise(a, b []int) (ga, gb []int, score int, err error) {
	n, m := len(a), len(b)
	sc := al.sc
	// The out-of-band bound needs matches to pay at least as well as
	// mismatches and nothing, and gaps to cost; otherwise use the whole
	// matrix.
	bounded := sc.Match >= 0 && sc.Match >= sc.Mismatch && sc.GapOpen < 0
	for k := initialBand; ; k *= 2 {
		lo, hi := min(0, m-n)-k, max(0, m-n)+k
		whole := !bounded || k >= min(n, m)
		if whole {
			lo, hi = -n, m
		}
		stride := min(m+1, hi-lo+1)
		if score, err = al.fill(a, b, lo, hi, stride); err != nil {
			return nil, nil, 0, err
		}
		if whole || score > outsideBand(n, m, k, sc) {
			ga, gb = al.traceback(a, b, lo, stride)
			return ga, gb, score, nil
		}
	}
}

// outsideBand bounds the score of any alignment path that leaves the band
// of half-width k. Such a path makes at least G = |m-n| + 2(k+1) gap moves
// and so at most (n+m-G)/2 diagonal moves, each worth at most Match; with
// Match >= 0 and GapOpen < 0 the bound falls as G grows.
func outsideBand(n, m, k int, sc Scoring) int {
	g := max(m-n, n-m) + 2*(k+1)
	return sc.Match*(n+m-g)/2 + sc.GapOpen*g
}

// fill computes the DP over the diagonals lo <= j-i <= hi, recording each
// cell's traceback move, and returns the score of cell (n, m).
func (al *aligner) fill(a, b []int, lo, hi, stride int) (int, error) {
	n, m := len(a), len(b)
	sc := al.sc
	need := (n + 1) * stride
	if cap(al.moves) < need {
		al.moves = make([]byte, need)
	}
	al.moves = al.moves[:need]
	if cap(al.rows) < 2*stride {
		al.rows = make([]int, 2*stride)
	}
	prev, cur := al.rows[:stride], al.rows[stride:2*stride]
	for j := 0; j <= min(m, hi); j++ {
		prev[j] = j * sc.GapOpen
		al.moves[j] = moveLeft
	}
	for i := 1; i <= n; i++ {
		jlo, jhi := max(0, i+lo), min(m, i+hi)
		plo, phi := max(0, i-1+lo), min(m, i-1+hi)
		if al.cells += jhi - jlo + 1; al.cells >= alignPoll {
			al.cells = 0
			if err := al.ctx.Err(); err != nil {
				return 0, err
			}
		}
		moves := al.moves[i*stride:]
		ai := a[i-1]
		for j := jlo; j <= jhi; j++ {
			best, mv := unreachable, moveDiag
			if j > plo {
				best = prev[j-1-plo] + sc.Mismatch
				if ai == b[j-1] {
					best += sc.Match - sc.Mismatch
				}
			}
			if j <= phi {
				if del := prev[j-plo] + sc.GapOpen; del > best {
					best, mv = del, moveUp
				}
			}
			if j > jlo {
				if ins := cur[j-1-jlo] + sc.GapOpen; ins > best {
					best, mv = ins, moveLeft
				}
			}
			cur[j-jlo] = best
			moves[j-jlo] = mv
		}
		prev, cur = cur, prev
	}
	return prev[m-max(0, n+lo)], nil
}

// traceback walks the recorded moves back from (n, m) and returns the
// gapped sequences.
func (al *aligner) traceback(a, b []int, lo, stride int) (ga, gb []int) {
	walk := func(visit func(i, j int, mv byte)) {
		i, j := len(a), len(b)
		for i > 0 || j > 0 {
			mv := al.moves[i*stride+j-max(0, i+lo)]
			visit(i, j, mv)
			switch mv {
			case moveDiag:
				i--
				j--
			case moveUp:
				i--
			default:
				j--
			}
		}
	}
	width := 0
	walk(func(int, int, byte) { width++ })
	if width == 0 {
		return nil, nil
	}
	ga, gb = make([]int, width), make([]int, width)
	k := width
	walk(func(i, j int, mv byte) {
		k--
		ga[k], gb[k] = Gap, Gap
		if mv != moveLeft {
			ga[k] = a[i-1]
		}
		if mv != moveUp {
			gb[k] = b[j-1]
		}
	})
	return ga, gb
}

// MSA is a multiple sequence alignment: rows of equal length over symbols
// and Gap.
type MSA struct {
	Rows [][]int
}

// Width returns the alignment length (0 for an empty MSA).
func (m *MSA) Width() int {
	if len(m.Rows) == 0 {
		return 0
	}
	return len(m.Rows[0])
}

// Progressive builds a star-shaped multiple alignment: the longest sequence
// is the initial center; every other sequence is aligned against the current
// consensus, with "once a gap, always a gap" column insertion.
func Progressive(seqs [][]int, sc Scoring) (*MSA, error) {
	return ProgressiveContext(context.Background(), seqs, sc)
}

// ProgressiveContext is Progressive under a cancellable context, polled
// between DP rows of every pairwise alignment.
func ProgressiveContext(ctx context.Context, seqs [][]int, sc Scoring) (*MSA, error) {
	if len(seqs) == 0 {
		return nil, fmt.Errorf("align: no sequences")
	}
	// Pick the longest sequence as the center (stable on ties).
	center := 0
	for i, s := range seqs {
		if len(s) > len(seqs[center]) {
			center = i
		}
	}
	msa := &MSA{Rows: [][]int{append([]int(nil), seqs[center]...)}}
	rowOf := make([]int, len(seqs)) // center stays row 0
	al := aligner{ctx: ctx, sc: sc}
	for si := range seqs {
		if si == center {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		gc, gs, _, err := al.pairwise(msa.consensus(), seqs[si])
		if err != nil {
			return nil, err
		}
		// gc tells where the existing alignment needs new gap columns.
		msa.insertAligned(gc, gs)
		rowOf[si] = len(msa.Rows) - 1
	}
	// Restore original sequence order in the rows.
	ordered := make([][]int, len(seqs))
	for si, row := range rowOf {
		ordered[si] = msa.Rows[row]
	}
	return &MSA{Rows: ordered}, nil
}

// consensus returns, per column, the most frequent non-gap symbol (ties
// break toward the smaller symbol), or Gap for all-gap columns. Each
// column's symbols are gathered into one reused slice; a column whose rows
// all agree, the common case, needs no sort.
func (m *MSA) consensus() []int {
	w := m.Width()
	out := make([]int, w)
	col := make([]int, 0, len(m.Rows))
	for c := 0; c < w; c++ {
		col = col[:0]
		uniform := true
		for _, row := range m.Rows {
			if sym := row[c]; sym != Gap {
				uniform = uniform && (len(col) == 0 || sym == col[0])
				col = append(col, sym)
			}
		}
		switch {
		case len(col) == 0:
			out[c] = Gap
		case uniform:
			out[c] = col[0]
		default:
			// Ascending runs: the first strictly longest run is the most
			// frequent symbol, and the smallest among equally frequent ones.
			slices.Sort(col)
			best, bestN := Gap, 0
			for r := 0; r < len(col); {
				e := r + 1
				for e < len(col) && col[e] == col[r] {
					e++
				}
				if e-r > bestN {
					best, bestN = col[r], e-r
				}
				r = e
			}
			out[c] = best
		}
	}
	return out
}

// insertAligned extends the MSA with the new gapped sequence gs, where gc is
// the gapped form of the previous consensus: a Gap in gc at column k means
// every existing row needs a gap column inserted at k.
func (m *MSA) insertAligned(gc, gs []int) {
	oldW := m.Width()
	newRows := make([][]int, len(m.Rows)+1)
	for r := range m.Rows {
		row := make([]int, 0, len(gc))
		oi := 0
		for k := range gc {
			if gc[k] == Gap {
				row = append(row, Gap)
				continue
			}
			if oi < oldW {
				row = append(row, m.Rows[r][oi])
				oi++
			} else {
				row = append(row, Gap)
			}
		}
		newRows[r] = row
	}
	newRows[len(m.Rows)] = append([]int(nil), gs...)
	m.Rows = newRows
}

// SPMDScore measures how SPMD-consistent the alignment is: the fraction of
// (row, column) cells that carry the column's consensus symbol, over all
// non-empty columns. A perfect structure detection on a true SPMD code
// scores 1.
func (m *MSA) SPMDScore() float64 {
	w := m.Width()
	if w == 0 || len(m.Rows) == 0 {
		return 0
	}
	cons := m.consensus()
	agree, total := 0, 0
	for c := 0; c < w; c++ {
		if cons[c] == Gap {
			continue
		}
		for _, row := range m.Rows {
			total++
			if row[c] == cons[c] {
				agree++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(agree) / float64(total)
}
