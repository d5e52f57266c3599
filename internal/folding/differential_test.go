package folding

import (
	"fmt"
	"math"
	"testing"

	"phasefold/internal/callstack"
	"phasefold/internal/counters"
	"phasefold/internal/sim"
	"phasefold/internal/trace"
)

// foldShape parameterizes a random folding fixture. Each probability
// switches on one of the conditions that make a cloud's X sequence differ
// from its siblings', or make the fold take a side path.
type foldShape struct {
	bursts     int
	ranks      int
	labels     int // clusters 0..labels-1; some bursts are also noise
	maxSamples int // samples per burst are drawn from [0, maxSamples]
	// grid > 0 places sample offsets on grid+1 evenly spaced points of the
	// burst, so equal-duration bursts produce X ties across bursts.
	grid int
	// durations lists the burst durations drawn from (ns); several widely
	// spaced values make the duration band prune, or prune everything.
	durations []int64
	pMissing  float64 // a sample lacks a counter
	pBadDelta float64 // a burst's counter delta is zero, negative or missing
	pNoStack  float64 // a sample carries no stack
	pOutside  float64 // a sample lies outside its burst (x < 0 or x > 1)
	pBadDur   float64 // a burst has zero or negative duration
	// balanced alternates each cluster's members between the first two
	// durations, in equal numbers, so the median falls in the gap between
	// them and a narrow duration band prunes every member.
	balanced bool
}

// buildFoldFixture hand-builds a trace and linked, labelled bursts of the
// given shape. Bursts never overlap within a rank, so (Rank, Start) keys
// are unique, as CloudProjector requires.
func buildFoldFixture(rng *sim.RNG, sh foldShape) (*trace.Trace, []trace.Burst) {
	tr := trace.New("fold-oracle", sh.ranks, nil, nil)
	rid := tr.Symbols.Define(callstack.Routine{Name: "k", File: "k.c", StartLine: 1, EndLine: 99})
	var stacks []callstack.StackID
	for line := 1; line <= 4; line++ {
		stacks = append(stacks, tr.Stacks.Intern(callstack.Stack{{Routine: rid, Line: line}}))
	}
	now := make([]sim.Time, sh.ranks)
	bursts := make([]trace.Burst, sh.bursts)
	members := make([][]int, sh.labels)
	for i := range bursts {
		r := rng.Intn(sh.ranks)
		label := rng.Intn(sh.labels+1) - 1
		dur := sim.Duration(sh.durations[rng.Intn(len(sh.durations))])
		if label >= 0 {
			if sh.balanced {
				dur = sim.Duration(sh.durations[len(members[label])%2])
			}
			members[label] = append(members[label], i)
		}
		if rng.Float64() < sh.pBadDur {
			dur = sim.Duration(-rng.Intn(2))
		}
		b := trace.Burst{
			Rank:     int32(r),
			Region:   1,
			Start:    now[r],
			End:      now[r] + dur,
			Iter:     int64(i),
			StartCtr: counters.AllMissing(),
			Delta:    counters.AllMissing(),
			Cluster:  label,
			FirstSmp: -1,
		}
		now[r] += sim.Duration(math.Abs(float64(dur))) + 1 + sim.Duration(rng.Intn(50))
		for id := range b.StartCtr {
			b.StartCtr[id] = int64(rng.Intn(1 << 20))
			b.Delta[id] = 1 + int64(rng.Intn(1<<16))
			if rng.Float64() < sh.pBadDelta {
				b.Delta[id] = [...]int64{0, -int64(1 + rng.Intn(100)), counters.Missing}[rng.Intn(3)]
			}
			if rng.Float64() < sh.pBadDelta/4 {
				b.StartCtr[id] = counters.Missing
			}
		}
		rd := tr.Rank(r)
		n := rng.Intn(sh.maxSamples + 1)
		if n > 0 {
			b.FirstSmp = len(rd.Samples)
			b.NumSmp = n
		}
		for k := 0; k < n; k++ {
			var off sim.Duration
			switch {
			case rng.Float64() < sh.pOutside:
				off = sim.Duration(rng.Intn(41)-20) + []sim.Duration{-1, dur + 1}[rng.Intn(2)]
			case sh.grid > 0:
				off = dur * sim.Duration(rng.Intn(sh.grid+1)) / sim.Duration(sh.grid)
			case dur > 0:
				off = sim.Duration(rng.Intn(int(dur) + 1))
			}
			s := trace.Sample{Time: b.Start + off, Rank: int32(r), Counters: counters.AllMissing(), Stack: callstack.NoStack}
			for id := range s.Counters {
				if rng.Float64() < sh.pMissing {
					continue
				}
				// Occasionally step outside [base, base+delta] so the
				// projection clamps.
				s.Counters[id] = b.StartCtr[id] + int64(rng.Float64()*1.2*float64(max(b.Delta[id], 1))) - 3
			}
			if rng.Float64() >= sh.pNoStack {
				s.Stack = stacks[rng.Intn(len(stacks))]
			}
			tr.AddSample(s)
		}
		bursts[i] = b
	}
	if sh.balanced {
		// A label with an odd member count gives its latest member to noise.
		for _, m := range members {
			if len(m)%2 != 0 {
				bursts[m[len(m)-1]].Cluster = -1
			}
		}
	}
	return tr, bursts
}

// observeClouds builds the streaming path's per-burst clouds for bursts.
func observeClouds(tr *trace.Trace, bursts []trace.Burst) map[BurstKey]*BurstCloud {
	clouds := make(map[BurstKey]*BurstCloud)
	for i := range bursts {
		b := &bursts[i]
		if b.FirstSmp < 0 {
			continue
		}
		c := &BurstCloud{}
		samples := tr.Rank(int(b.Rank)).Samples[b.FirstSmp : b.FirstSmp+b.NumSmp]
		for k := range samples {
			c.Observe(b, &samples[k])
		}
		clouds[KeyOf(b)] = c
	}
	return clouds
}

// diffFolded describes the first difference between got and want, compared
// bit for bit (floats by their bits, clouds including nil-ness), or "".
func diffFolded(got, want *Folded) string {
	if (got == nil) != (want == nil) {
		return fmt.Sprintf("folded nil-ness: got %v, want %v", got == nil, want == nil)
	}
	if got == nil {
		return ""
	}
	if got.Cluster != want.Cluster || got.NumBursts != want.NumBursts || got.UsedBursts != want.UsedBursts ||
		got.RepDuration != want.RepDuration || got.TotalDelta != want.TotalDelta {
		return fmt.Sprintf("header: got %d %d/%d %v %v, want %d %d/%d %v %v",
			got.Cluster, got.UsedBursts, got.NumBursts, got.RepDuration, got.TotalDelta,
			want.Cluster, want.UsedBursts, want.NumBursts, want.RepDuration, want.TotalDelta)
	}
	for id := range want.Points {
		g, w := got.Points[id], want.Points[id]
		if (g == nil) != (w == nil) || len(g) != len(w) {
			return fmt.Sprintf("counter %d: %d points (nil %v), want %d (nil %v)", id, len(g), g == nil, len(w), w == nil)
		}
		for i := range w {
			if math.Float64bits(g[i].X) != math.Float64bits(w[i].X) || math.Float64bits(g[i].Y) != math.Float64bits(w[i].Y) {
				return fmt.Sprintf("counter %d point %d: got %+v, want %+v", id, i, g[i], w[i])
			}
		}
	}
	g, w := got.Stacks, want.Stacks
	if (g == nil) != (w == nil) || len(g) != len(w) {
		return fmt.Sprintf("%d stacks (nil %v), want %d (nil %v)", len(g), g == nil, len(w), w == nil)
	}
	for i := range w {
		if math.Float64bits(g[i].X) != math.Float64bits(w[i].X) || g[i].Stack != w[i].Stack {
			return fmt.Sprintf("stack %d: got %+v, want %+v", i, g[i], w[i])
		}
	}
	return ""
}

// checkFoldMatchesOracle folds every label of the fixture (plus a noise and
// an absent label) with FoldWith through both projectors and with the
// oracle, and fails on the first difference in result or error.
func checkFoldMatchesOracle(t *testing.T, tr *trace.Trace, bursts []trace.Burst, labels int, opt Options) {
	t.Helper()
	want := oracleTraceProjector(tr)
	projectors := []struct {
		name string
		p    Projector
	}{
		{"trace", TraceProjector(tr)},
		{"clouds", CloudProjector(observeClouds(tr, bursts))},
	}
	for label := -1; label <= labels; label++ {
		wf, werr := oracleFoldWith(want, bursts, label, opt)
		for _, pr := range projectors {
			gf, gerr := FoldWith(pr.p, bursts, label, opt)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("%s projector, label %d, %+v: error %v, oracle %v", pr.name, label, opt, gerr, werr)
			}
			if d := diffFolded(gf, wf); d != "" {
				t.Fatalf("%s projector, label %d, %+v: %s", pr.name, label, opt, d)
			}
		}
	}
}

var foldOracleOptions = []Options{
	{},
	DefaultOptions(),
	{MinBurstSamples: 2},
	{DurationBand: 0.05, MinBurstSamples: 1},
}

func TestFoldMatchesOracle(t *testing.T) {
	shapes := map[string]foldShape{
		// Every sample carries every counter and a stack: all clouds share
		// one X sequence, the fast path throughout.
		"clean": {bursts: 300, ranks: 2, labels: 2, maxSamples: 6, durations: []int64{100_000}},
		// A coarse offset grid and one duration: X ties everywhere, across
		// and within bursts.
		"quantized": {bursts: 600, ranks: 3, labels: 2, maxSamples: 8, grid: 4, durations: []int64{1000}},
		"missing-counters": {bursts: 400, ranks: 2, labels: 3, maxSamples: 6, grid: 16,
			durations: []int64{1000}, pMissing: 0.2},
		"bad-deltas": {bursts: 400, ranks: 2, labels: 2, maxSamples: 6, grid: 8,
			durations: []int64{1000, 1100}, pBadDelta: 0.3},
		"stackless": {bursts: 300, ranks: 1, labels: 2, maxSamples: 6, grid: 8,
			durations: []int64{1000}, pNoStack: 0.5},
		"no-stacks-at-all": {bursts: 200, ranks: 1, labels: 1, maxSamples: 5,
			durations: []int64{5000}, pNoStack: 1},
		"no-counters-at-all": {bursts: 200, ranks: 1, labels: 1, maxSamples: 5, grid: 3,
			durations: []int64{5000}, pMissing: 1},
		"outside-and-bad-durations": {bursts: 300, ranks: 2, labels: 2, maxSamples: 6,
			durations: []int64{1000, 1000, 1003}, pOutside: 0.2, pBadDur: 0.1},
		// Two widely separated durations in equal measure: the median sits
		// in the gap, the band prunes everything and the fold retries
		// without it.
		"bimodal": {bursts: 200, ranks: 2, labels: 2, maxSamples: 4, grid: 10,
			durations: []int64{1000, 4000}, balanced: true},
		"sparse": {bursts: 40, ranks: 1, labels: 3, maxSamples: 2, grid: 2, durations: []int64{10}},
		// Large enough for pdqsort's ninther pivots, equal-element
		// partitions and pattern breaking, with and without ties.
		"large": {bursts: 2500, ranks: 4, labels: 1, maxSamples: 8, durations: []int64{1 << 20}},
		"large-ties": {bursts: 2500, ranks: 4, labels: 1, maxSamples: 8, grid: 64,
			durations: []int64{1 << 20}, pMissing: 0.01},
		"everything": {bursts: 800, ranks: 3, labels: 3, maxSamples: 7, grid: 5,
			durations: []int64{1000, 1000, 1040, 3000}, pMissing: 0.1, pBadDelta: 0.1,
			pNoStack: 0.2, pOutside: 0.05, pBadDur: 0.02},
	}
	for name, sh := range shapes {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				tr, bursts := buildFoldFixture(sim.NewRNG(seed), sh)
				for _, opt := range foldOracleOptions {
					checkFoldMatchesOracle(t, tr, bursts, sh.labels, opt)
				}
				if sh.balanced {
					// The shape must really reach the relaxed-band retry.
					f, err := Fold(tr, bursts, 0, DefaultOptions())
					if err != nil || f.UsedBursts != f.NumBursts {
						t.Fatalf("balanced fixture did not retry without the band: %+v, %v", f, err)
					}
				}
			}
		})
	}
}

// TestFoldEqualLengthCloudsSortOnTheirOwn covers clouds that are as long as
// the reference X sequence but differ from it: every counter cloud and the
// stack timeline each miss a different sample, so only the element-wise X
// check can tell that the shared permutation does not apply.
func TestFoldEqualLengthCloudsSortOnTheirOwn(t *testing.T) {
	const n = 40
	tr := trace.New("fold-equal-length", 1, nil, nil)
	rid := tr.Symbols.Define(callstack.Routine{Name: "k", File: "k.c", StartLine: 1, EndLine: 9})
	sid := tr.Stacks.Intern(callstack.Stack{{Routine: rid, Line: 1}})
	b := trace.Burst{Start: 0, End: 1000, StartCtr: counters.AllMissing(), Delta: counters.AllMissing(), FirstSmp: 0, NumSmp: n}
	for id := range b.StartCtr {
		b.StartCtr[id], b.Delta[id] = 0, 1000
	}
	for i := 0; i < n; i++ {
		off := sim.Time(i * 17 % n * 1000 / n)
		s := trace.Sample{Time: off, Counters: counters.AllMissing(), Stack: sid}
		for id := range s.Counters {
			if id != i {
				s.Counters[id] = int64(off)
			}
		}
		if i == int(counters.NumIDs) {
			s.Stack = callstack.NoStack
		}
		tr.AddSample(s)
	}
	checkFoldMatchesOracle(t, tr, []trace.Burst{b}, 1, Options{})
}

func FuzzFoldMatchesOracle(f *testing.F) {
	f.Add(uint64(1), uint16(300), uint8(4), uint8(0), uint8(0))
	f.Add(uint64(2), uint16(50), uint8(0), uint8(0xff), uint8(3))
	f.Add(uint64(3), uint16(900), uint8(2), uint8(0x15), uint8(1))
	f.Add(uint64(4), uint16(7), uint8(1), uint8(0x2a), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, nBursts uint16, grid, flags, durs uint8) {
		p := func(bit uint) float64 {
			if flags&(1<<bit) == 0 {
				return 0
			}
			return [...]float64{0.05, 0.3}[flags>>6&1]
		}
		sh := foldShape{
			bursts:     1 + int(nBursts)%1000,
			ranks:      1 + int(flags>>7),
			labels:     1 + int(durs>>4)%3,
			maxSamples: 1 + int(durs>>2)%8,
			grid:       int(grid) % 33,
			durations:  [][]int64{{1000}, {1000, 1030}, {1000, 4000}, {7, 1 << 20}}[durs%4],
			pMissing:   p(0),
			pBadDelta:  p(1),
			pNoStack:   p(2),
			pOutside:   p(3),
			pBadDur:    p(4) / 4,
		}
		if flags&(1<<5) != 0 {
			sh.pNoStack = 1
		}
		tr, bursts := buildFoldFixture(sim.NewRNG(seed), sh)
		for _, opt := range foldOracleOptions {
			checkFoldMatchesOracle(t, tr, bursts, sh.labels, opt)
		}
	})
}
