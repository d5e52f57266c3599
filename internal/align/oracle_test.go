package align

import "fmt"

// This file keeps the full-matrix Needleman-Wunsch and the map-counting
// progressive alignment that the banded aligner replaced. They serve only as
// oracles for the differential tests: the banded code must reproduce their
// gapped rows exactly.

// fullPairwise is Needleman-Wunsch over the whole (n+1)·(m+1) matrix.
func fullPairwise(a, b []int, sc Scoring) (ga, gb []int, score int) {
	n, m := len(a), len(b)
	w := m + 1
	dp := make([]int, (n+1)*w)
	for j := 1; j <= m; j++ {
		dp[j] = j * sc.GapOpen
	}
	for i := 1; i <= n; i++ {
		dp[i*w] = i * sc.GapOpen
		for j := 1; j <= m; j++ {
			sub := dp[(i-1)*w+j-1]
			if a[i-1] == b[j-1] {
				sub += sc.Match
			} else {
				sub += sc.Mismatch
			}
			del := dp[(i-1)*w+j] + sc.GapOpen
			ins := dp[i*w+j-1] + sc.GapOpen
			best := sub
			if del > best {
				best = del
			}
			if ins > best {
				best = ins
			}
			dp[i*w+j] = best
		}
	}
	i, j := n, m
	var ra, rb []int
	for i > 0 || j > 0 {
		switch {
		case i > 0 && j > 0 && dp[i*w+j] == dp[(i-1)*w+j-1]+matchScore(a[i-1], b[j-1], sc):
			ra = append(ra, a[i-1])
			rb = append(rb, b[j-1])
			i--
			j--
		case i > 0 && dp[i*w+j] == dp[(i-1)*w+j]+sc.GapOpen:
			ra = append(ra, a[i-1])
			rb = append(rb, Gap)
			i--
		default:
			ra = append(ra, Gap)
			rb = append(rb, b[j-1])
			j--
		}
	}
	reverse(ra)
	reverse(rb)
	return ra, rb, dp[n*w+m]
}

func matchScore(x, y int, sc Scoring) int {
	if x == y {
		return sc.Match
	}
	return sc.Mismatch
}

// oracleProgressive is the star alignment over fullPairwise and a
// per-column map consensus.
func oracleProgressive(seqs [][]int, sc Scoring) (*MSA, error) {
	if len(seqs) == 0 {
		return nil, fmt.Errorf("align: no sequences")
	}
	center := 0
	for i, s := range seqs {
		if len(s) > len(seqs[center]) {
			center = i
		}
	}
	msa := &MSA{Rows: [][]int{append([]int(nil), seqs[center]...)}}
	order := make([]int, 0, len(seqs)-1)
	for i := range seqs {
		if i != center {
			order = append(order, i)
		}
	}
	rowOf := map[int]int{center: 0}
	for _, si := range order {
		cons := oracleConsensus(msa)
		gc, gs, _ := fullPairwise(cons, seqs[si], sc)
		msa.insertAligned(gc, gs)
		rowOf[si] = len(msa.Rows) - 1
	}
	ordered := make([][]int, len(seqs))
	for si, row := range rowOf {
		ordered[si] = msa.Rows[row]
	}
	return &MSA{Rows: ordered}, nil
}

// oracleConsensus counts each column into a fresh map.
func oracleConsensus(m *MSA) []int {
	w := m.Width()
	out := make([]int, w)
	for c := 0; c < w; c++ {
		counts := make(map[int]int)
		for _, row := range m.Rows {
			if row[c] != Gap {
				counts[row[c]]++
			}
		}
		best, bestN := Gap, 0
		for sym, n := range counts {
			if n > bestN || (n == bestN && best != Gap && sym < best) {
				best, bestN = sym, n
			}
		}
		out[c] = best
	}
	return out
}

func reverse(s []int) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}
