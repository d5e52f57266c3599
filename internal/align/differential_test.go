package align

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"phasefold/internal/sim"
)

// spmdLike returns a periodic region sequence of about n symbols, as one
// SPMD rank would execute it, with edits (substitutions, insertions and
// deletions) at the given rate.
func spmdLike(rng *sim.RNG, n, period int, rate float64) []int {
	out := make([]int, 0, n+n/10)
	for i := 0; i < n; i++ {
		sym := i % period
		switch r := rng.Float64(); {
		case r < rate/3:
			out = append(out, rng.Intn(period+2))
		case r < 2*rate/3:
			out = append(out, sym, rng.Intn(period+2))
		case r < rate:
			// deletion
		default:
			out = append(out, sym)
		}
	}
	return out
}

func randomSeq(rng *sim.RNG, n, alphabet int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = rng.Intn(alphabet)
	}
	return out
}

// scorings include the default, others satisfying the band bound's
// preconditions, and ones violating each precondition.
var scorings = []Scoring{
	DefaultScoring(),
	{Match: 1, Mismatch: -1, GapOpen: -1},
	{Match: 0, Mismatch: -3, GapOpen: -1},
	{Match: 5, Mismatch: 5, GapOpen: -2},
	{Match: 1, Mismatch: 2, GapOpen: -1},   // Match < Mismatch
	{Match: -1, Mismatch: -2, GapOpen: -1}, // Match < 0
	{Match: 2, Mismatch: -1, GapOpen: 0},   // free gaps
	{Match: 2, Mismatch: -1, GapOpen: 1},   // rewarded gaps
}

func checkPairwise(t *testing.T, a, b []int, sc Scoring) {
	t.Helper()
	ga, gb, score := Pairwise(a, b, sc)
	wa, wb, wscore := fullPairwise(a, b, sc)
	if score != wscore || !reflect.DeepEqual(ga, wa) || !reflect.DeepEqual(gb, wb) {
		t.Fatalf("scoring %+v, a=%v b=%v:\nbanded %d %v %v\nfull   %d %v %v",
			sc, a, b, score, ga, gb, wscore, wa, wb)
	}
}

// TestPairwiseMatchesFull holds the banded aligner to the full-matrix
// Needleman-Wunsch, gapped row for gapped row, on near-identical SPMD-like
// pairs, unrelated pairs, very unequal lengths and empty sequences, under
// scorings inside and outside the band bound's preconditions.
func TestPairwiseMatchesFull(t *testing.T) {
	rng := sim.NewRNG(61)
	for trial := 0; trial < 300; trial++ {
		sc := scorings[trial%len(scorings)]
		var a, b []int
		switch trial % 5 {
		case 0, 1:
			n := rng.Intn(400)
			a, b = spmdLike(rng, n, 4, 0.02), spmdLike(rng, n, 4, 0.05)
		case 2:
			a, b = randomSeq(rng, rng.Intn(60), 3), randomSeq(rng, rng.Intn(60), 3)
		case 3:
			a, b = randomSeq(rng, rng.Intn(5), 2), randomSeq(rng, 50+rng.Intn(300), 2)
		default:
			a = spmdLike(rng, rng.Intn(300), 5, 0.01)
			b = append(append([]int(nil), a[:len(a)/2]...), a...)
		}
		if trial%2 == 1 {
			a, b = b, a
		}
		checkPairwise(t, a, b, sc)
	}
	checkPairwise(t, nil, nil, DefaultScoring())
	checkPairwise(t, []int{1}, nil, DefaultScoring())
}

// TestProgressiveMatchesOracle holds the banded star alignment, with its
// slice-counting consensus, to the full-matrix, map-counting one: rows and
// SPMD score must be identical.
func TestProgressiveMatchesOracle(t *testing.T) {
	rng := sim.NewRNG(67)
	for trial := 0; trial < 40; trial++ {
		ranks := 2 + rng.Intn(8)
		seqs := make([][]int, ranks)
		n := rng.Intn(300)
		for r := range seqs {
			seqs[r] = spmdLike(rng, n, 3+trial%4, 0.03*float64(trial%3))
		}
		if trial%7 == 0 {
			seqs[rng.Intn(ranks)] = nil
		}
		got, err := Progressive(seqs, DefaultScoring())
		if err != nil {
			t.Fatal(err)
		}
		want, _ := oracleProgressive(seqs, DefaultScoring())
		if !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Fatalf("trial %d: rows differ from the full-matrix alignment", trial)
		}
		if got.SPMDScore() != want.SPMDScore() {
			t.Fatalf("trial %d: SPMD score %v, oracle %v", trial, got.SPMDScore(), want.SPMDScore())
		}
	}
}

// TestConsensusMatchesMapCounting checks the tie-break toward the smaller
// symbol, negative symbols included, against per-column map counting.
func TestConsensusMatchesMapCounting(t *testing.T) {
	rng := sim.NewRNG(71)
	for trial := 0; trial < 200; trial++ {
		rows := make([][]int, 1+rng.Intn(9))
		w := rng.Intn(20)
		for r := range rows {
			rows[r] = make([]int, w)
			for c := range rows[r] {
				rows[r][c] = rng.Intn(5) - 3 // -3..1, with -1 = Gap
			}
		}
		m := &MSA{Rows: rows}
		if got, want := m.consensus(), oracleConsensus(m); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: consensus %v, map counting %v (rows %v)", trial, got, want, rows)
		}
	}
}

// FuzzPairwiseMatchesFull decodes a scoring (any signs, so the band bound's
// preconditions may fail) and two sequences of any relative length, and
// holds the banded aligner to the full matrix.
func FuzzPairwiseMatchesFull(f *testing.F) {
	f.Add([]byte{2, 255, 254, 10, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2})
	f.Add([]byte{1, 1, 255, 0, 3, 3, 3, 3})
	f.Add([]byte{5, 0, 1, 200, 1, 2, 3})
	f.Add([]byte{0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		sc := Scoring{Match: int(int8(data[0])) % 8, Mismatch: int(int8(data[1])) % 8, GapOpen: int(int8(data[2])) % 8}
		split := int(data[3])
		data = data[4:]
		if len(data) > 600 {
			data = data[:600]
		}
		split = min(split*len(data)/255, len(data))
		seq := func(bs []byte) []int {
			out := make([]int, len(bs))
			for i, v := range bs {
				out[i] = int(v % 4)
			}
			return out
		}
		checkPairwise(t, seq(data[:split]), seq(data[split:]), sc)
	})
}

// cancelAfterPolls is a context that reports cancellation from its n-th
// Err call on, so a test can cancel deterministically mid-alignment.
type cancelAfterPolls struct {
	context.Context
	polls atomic.Int64
	n     int64
}

func (c *cancelAfterPolls) Err() error {
	if c.polls.Add(1) >= c.n {
		return context.Canceled
	}
	return nil
}

// TestProgressiveCancelsPromptly cancels the alignment of 8 ranks × 6000
// bursts. Unrelated sequences drive the band out to the whole matrix, the
// slowest case; the return must follow the cancel within 100 ms.
func TestProgressiveCancelsPromptly(t *testing.T) {
	rng := sim.NewRNG(73)
	seqs := make([][]int, 8)
	for r := range seqs {
		seqs[r] = randomSeq(rng, 6000, 4)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var canceledAt atomic.Int64
	time.AfterFunc(30*time.Millisecond, func() {
		canceledAt.Store(time.Now().UnixNano())
		cancel()
	})
	_, err := ProgressiveContext(ctx, seqs, DefaultScoring())
	returned := time.Now().UnixNano()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if lag := time.Duration(returned - canceledAt.Load()); lag > 100*time.Millisecond {
		t.Fatalf("returned %v after the cancel, want < 100ms", lag)
	}

	// Near-identical SPMD sequences finish fast; cancel them
	// mid-alignment at a fixed context poll instead of by the clock.
	for r := range seqs {
		seqs[r] = spmdLike(rng, 6000, 6, 0.01)
	}
	cctx := &cancelAfterPolls{Context: context.Background(), n: 8}
	if _, err := ProgressiveContext(cctx, seqs, DefaultScoring()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// BenchmarkPairwise6000 aligns two near-identical 6000-symbol sequences.
func BenchmarkPairwise6000(b *testing.B) {
	rng := sim.NewRNG(79)
	x, y := spmdLike(rng, 6000, 6, 0.005), spmdLike(rng, 6000, 6, 0.005)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Pairwise(x, y, DefaultScoring())
	}
}
