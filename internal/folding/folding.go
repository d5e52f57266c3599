// Package folding implements the paper's central mechanism: projecting the
// sparse samples collected across many instances of a repeated computation
// region onto the normalized time of a single synthetic instance. Each
// instance contributes only a few samples, but because the sampling grid is
// uncorrelated with the region period, the projections land at different
// offsets, and a few hundred instances produce a dense cloud describing the
// counter evolution inside the region at a granularity far below the
// sampling period.
//
// For a sample taken at absolute time t inside a burst [s, e) whose counter
// c advanced from c(s) to c(e):
//
//	x = (t - s) / (e - s)                 normalized time in [0, 1)
//	y = (c(t) - c(s)) / (c(e) - c(s))     normalized cumulative progress
//
// The folded cloud (x, y) approximates the region's normalized cumulative
// counter function; its derivative is the instantaneous rate profile the
// piece-wise linear regression recovers.
package folding

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"phasefold/internal/callstack"
	"phasefold/internal/counters"
	"phasefold/internal/sim"
	"phasefold/internal/trace"
)

// foldScratch is the per-call working set of Fold — the member list, the
// duration vector, one delta vector per counter id, and the shared-sort
// buffers (reference X sequence, index permutation, visited bitset). The
// analysis pipeline folds many clusters concurrently, so the scratch is
// pooled: a steady-state Fold allocates only the Folded result it returns.
// The relaxed-band retry inside Fold recurses, which is safe — the inner
// call simply draws a second scratch from the pool.
type foldScratch struct {
	members []*trace.Burst
	durs    []float64
	deltas  [counters.NumIDs][]float64
	xs      []float64
	perm    []int32
	seen    []uint64
}

var scratchPool = sync.Pool{New: func() any { return new(foldScratch) }}

func putScratch(sc *foldScratch) {
	sc.members = sc.members[:0]
	sc.durs = sc.durs[:0]
	for i := range sc.deltas {
		sc.deltas[i] = sc.deltas[i][:0]
	}
	scratchPool.Put(sc)
}

// Point is one folded observation for one counter.
type Point struct {
	// X is normalized time in [0, 1].
	X float64
	// Y is normalized cumulative counter progress, clamped to [0, 1].
	Y float64
}

// StackSample is one folded call-stack observation.
type StackSample struct {
	X     float64
	Stack callstack.StackID
}

// Options controls the folding.
type Options struct {
	// DurationBand prunes outlier bursts: members whose duration deviates
	// from the cluster median by more than this fraction are skipped, so a
	// mis-clustered or perturbed instance does not smear the cloud. Zero
	// disables pruning.
	DurationBand float64
	// MinBurstSamples skips bursts with fewer samples than this. Zero
	// keeps even sample-less bursts (they still contribute to the
	// representative duration and counter totals).
	MinBurstSamples int
}

// DefaultOptions returns the pruning configuration used by the experiments:
// a ±15% duration band, matching the folding literature's practice of
// folding only instances close to the cluster representative.
func DefaultOptions() Options {
	return Options{DurationBand: 0.15}
}

// Folded is the result of folding one cluster.
type Folded struct {
	// Cluster is the cluster label folded.
	Cluster int
	// NumBursts and UsedBursts count the cluster members and the members
	// that survived outlier pruning.
	NumBursts, UsedBursts int
	// RepDuration is the representative (median) burst duration; slopes in
	// normalized time convert to rates via TotalDelta and RepDuration.
	RepDuration sim.Duration
	// TotalDelta is the per-counter median delta across used bursts;
	// counters never captured are Missing.
	TotalDelta counters.Set
	// Points is the folded cloud per counter, sorted by X.
	Points [counters.NumIDs][]Point
	// Stacks is the folded call-stack timeline, sorted by X.
	Stacks []StackSample
}

// NumPoints returns the folded cloud size for counter id.
func (f *Folded) NumPoints(id counters.ID) int {
	if !id.Valid() {
		return 0
	}
	return len(f.Points[id])
}

// TotalPoints returns the folded observation count summed over all
// counters — the cloud-size figure the telemetry layer records per fold.
func (f *Folded) TotalPoints() int {
	n := 0
	for id := range f.Points {
		n += len(f.Points[id])
	}
	return n
}

// RateScale returns the factor converting a normalized slope (dy/dx of the
// folded cloud) into an absolute rate in counts/second for counter id:
// rate = slope * total / duration. ok is false when the counter was never
// captured or the representative duration is zero.
func (f *Folded) RateScale(id counters.ID) (float64, bool) {
	total, ok := f.TotalDelta.Get(id)
	if !ok || f.RepDuration <= 0 {
		return 0, false
	}
	return float64(total) / f.RepDuration.Seconds(), true
}

// Projector appends one burst's folded observations (normalized points and
// stack samples) to f. It is the seam between the folding algebra — median
// durations, outlier pruning, delta medians, final sorts — and the source of
// the per-sample projections: the batch path projects lazily out of a
// resident trace (TraceProjector), the streaming path replays clouds built
// eagerly as samples arrived (CloudProjector). Both run the same per-sample
// projection (projectSample) and append in the same member order, so the
// pre-sort clouds are identical. The final sort is unstable, but its
// permutation depends only on the sequence of X comparisons, so identical
// X sequences come out identically ordered on both paths — which is also
// why one permutation can be shared by every cloud with the same X
// sequence (see sortClouds).
type Projector func(f *Folded, b *trace.Burst)

// TraceProjector projects burst samples directly out of the resident trace —
// the batch path.
func TraceProjector(tr *trace.Trace) Projector {
	return func(f *Folded, b *trace.Burst) { foldBurst(f, tr, b) }
}

// Fold projects the samples of all bursts labelled label onto the synthetic
// burst. bursts must carry cluster labels and sample links (ExtractBursts
// output after clustering).
func Fold(tr *trace.Trace, bursts []trace.Burst, label int, opt Options) (*Folded, error) {
	return FoldWith(TraceProjector(tr), bursts, label, opt)
}

// FoldWith is Fold with an explicit projection source; see Projector.
func FoldWith(project Projector, bursts []trace.Burst, label int, opt Options) (*Folded, error) {
	if label < 0 {
		return nil, fmt.Errorf("folding: cannot fold noise label %d", label)
	}
	sc := scratchPool.Get().(*foldScratch)
	defer putScratch(sc)
	members := sc.members[:0]
	for i := range bursts {
		if bursts[i].Cluster == label {
			members = append(members, &bursts[i])
		}
	}
	sc.members = members
	if len(members) == 0 {
		return nil, fmt.Errorf("folding: cluster %d has no bursts", label)
	}
	f := &Folded{Cluster: label, NumBursts: len(members)}

	// Representative duration and outlier band from the full membership.
	durs := sc.durs[:0]
	for _, b := range members {
		durs = append(durs, float64(b.Duration()))
	}
	sc.durs = durs
	medDur := sim.Median(durs)
	f.RepDuration = sim.Duration(medDur)

	// First pass: pick the used bursts (compacted in place into members),
	// collect their per-counter deltas for the medians, and count the
	// samples each cloud can receive so the second pass appends into
	// clouds allocated once at their final capacity.
	deltas := &sc.deltas
	var npts [counters.NumIDs]int
	nstacks := 0
	used := members[:0]
	for _, b := range members {
		if opt.DurationBand > 0 {
			dev := (float64(b.Duration()) - medDur) / medDur
			if dev > opt.DurationBand || dev < -opt.DurationBand {
				continue
			}
		}
		if opt.MinBurstSamples > 0 && b.NumSmp < opt.MinBurstSamples {
			continue
		}
		used = append(used, b)
		projects := b.Duration() > 0
		for id := counters.ID(0); id < counters.NumIDs; id++ {
			total, ok := b.Delta.Get(id)
			if !ok {
				continue
			}
			deltas[id] = append(deltas[id], float64(total))
			if _, ok := b.StartCtr.Get(id); ok && total > 0 && projects {
				npts[id] += b.NumSmp
			}
		}
		if projects {
			nstacks += b.NumSmp
		}
	}
	f.UsedBursts = len(used)
	if f.UsedBursts == 0 && opt.DurationBand > 0 {
		// A bimodal cluster (structure detection merged two behaviours) can
		// place the median duration in an empty gap, pruning every member.
		// Folding the mixed population is still more useful than failing,
		// so retry without the band.
		relaxed := opt
		relaxed.DurationBand = 0
		return FoldWith(project, bursts, label, relaxed)
	}
	if f.UsedBursts == 0 {
		return nil, fmt.Errorf("folding: cluster %d: all %d bursts pruned", label, len(members))
	}
	f.TotalDelta = counters.AllMissing()
	for id := counters.ID(0); id < counters.NumIDs; id++ {
		if len(deltas[id]) > 0 {
			f.TotalDelta[id] = int64(sim.Median(deltas[id]))
		}
	}

	// Second pass: project into the presized clouds.
	for id, n := range npts {
		if n > 0 {
			f.Points[id] = make([]Point, 0, n)
		}
	}
	if nstacks > 0 {
		f.Stacks = make([]StackSample, 0, nstacks)
	}
	for _, b := range used {
		project(f, b)
	}
	// An empty cloud is nil, whether or not it was presized.
	for id := range f.Points {
		if len(f.Points[id]) == 0 {
			f.Points[id] = nil
		}
	}
	if len(f.Stacks) == 0 {
		f.Stacks = nil
	}
	sc.sortClouds(f)
	return f, nil
}

// sortClouds sorts every cloud of f by X with the same unstable pdqsort
// sort.Slice runs, at the cost of one index sort per cluster rather than one
// reflective sort per cloud. Every sample yields the same x for each counter
// it carries and for its stack, so the clouds usually hold one X sequence.
// pdqsort's swaps depend only on the outcomes of comparisons between
// positions, and slices.SortFunc and sort.Slice are instances of one pdqsort
// template; sorting an index over a copy of the X sequence therefore yields
// exactly the permutation sort.Slice applies to any cloud with that X
// sequence, ties included. The permutation is applied in place to each such
// cloud; a cloud whose X sequence differs (a counter some samples lack, a
// burst whose delta is not positive, samples without a stack) is sorted on
// its own.
func (sc *foldScratch) sortClouds(f *Folded) {
	xs := sc.xs[:0]
	for id := range f.Points {
		if pts := f.Points[id]; len(pts) > 0 {
			for i := range pts {
				xs = append(xs, pts[i].X)
			}
			break
		}
	}
	if len(xs) == 0 {
		for i := range f.Stacks {
			xs = append(xs, f.Stacks[i].X)
		}
	}
	sc.xs = xs
	if len(xs) == 0 {
		return
	}
	perm := sc.perm[:0]
	for i := range xs {
		perm = append(perm, int32(i))
	}
	sc.perm = perm
	slices.SortFunc(perm, func(a, b int32) int { return cmpX(xs[a], xs[b]) })
	n := (len(xs) + 63) / 64
	sc.seen = slices.Grow(sc.seen[:0], n)[:n]

	shared := make([][]Point, 0, counters.NumIDs)
	for id := range f.Points {
		pts := f.Points[id]
		if samePointX(pts, xs) {
			shared = append(shared, pts)
		} else {
			slices.SortFunc(pts, func(a, b Point) int { return cmpX(a.X, b.X) })
		}
	}
	permute(shared, perm, sc.seen)
	if sameStackX(f.Stacks, xs) {
		permute([][]StackSample{f.Stacks}, perm, sc.seen)
	} else {
		slices.SortFunc(f.Stacks, func(a, b StackSample) int { return cmpX(a.X, b.X) })
	}
}

// cmpX orders by X with exactly the outcomes of the < operator (pdqsort
// only ever asks whether the result is negative), so NaN compares as
// sort.Slice's less function would see it, not as cmp.Compare orders it.
func cmpX(a, b float64) int {
	switch {
	case a < b:
		return -1
	case b < a:
		return 1
	}
	return 0
}

func samePointX(pts []Point, xs []float64) bool {
	if len(pts) != len(xs) {
		return false
	}
	for i := range pts {
		if pts[i].X != xs[i] {
			return false
		}
	}
	return true
}

func sameStackX(stacks []StackSample, xs []float64) bool {
	if len(stacks) != len(xs) {
		return false
	}
	for i := range stacks {
		if stacks[i].X != xs[i] {
			return false
		}
	}
	return true
}

// permute reorders every cloud (all of len(perm), at most counters.NumIDs
// of them) in place so that c[k] becomes the old c[perm[k]]. It walks each
// cycle of perm once, moving the element of every cloud at each step, so
// perm and the visited bitset seen are read once for all clouds; seen must
// hold at least len(perm) bits.
func permute[T any](clouds [][]T, perm []int32, seen []uint64) {
	if len(clouds) == 0 {
		return
	}
	var held [counters.NumIDs]T
	clear(seen)
	for i := range perm {
		if seen[i>>6]&(1<<(i&63)) != 0 {
			continue
		}
		for c, a := range clouds {
			held[c] = a[i]
		}
		j := i
		for {
			seen[j>>6] |= 1 << (j & 63)
			k := int(perm[j])
			if k == i {
				break
			}
			for _, a := range clouds {
				a[j] = a[k]
			}
			j = k
		}
		for c, a := range clouds {
			a[j] = held[c]
		}
	}
}

// foldBurst projects one burst's samples into the cloud.
func foldBurst(f *Folded, tr *trace.Trace, b *trace.Burst) {
	if b.FirstSmp < 0 || b.NumSmp == 0 {
		return
	}
	samples := tr.Rank(int(b.Rank)).Samples[b.FirstSmp : b.FirstSmp+b.NumSmp]
	for i := range samples {
		projectSample(&f.Points, &f.Stacks, b, &samples[i])
	}
}

// projectSample appends the projection of sample s, known to lie inside
// burst b, to the clouds: one point per counter id (ascending) that s, b's
// start and b's positive delta all carry, then the stack observation. It is
// the one copy of the per-sample arithmetic, shared by the batch projection
// (foldBurst) and the streaming one (BurstCloud.Observe).
func projectSample(points *[counters.NumIDs][]Point, stacks *[]StackSample, b *trace.Burst, s *trace.Sample) {
	dur := float64(b.End - b.Start)
	if dur <= 0 {
		return
	}
	x := float64(s.Time-b.Start) / dur
	if x < 0 || x > 1 {
		return
	}
	for id := range points {
		// A Missing delta is negative, so total > 0 also means captured.
		sv, base, total := s.Counters[id], b.StartCtr[id], b.Delta[id]
		if sv == counters.Missing || base == counters.Missing || total <= 0 {
			continue
		}
		y := sim.Clamp(float64(sv-base)/float64(total), 0, 1)
		points[id] = append(points[id], Point{X: x, Y: y})
	}
	if s.Stack != callstack.NoStack {
		*stacks = append(*stacks, StackSample{X: x, Stack: s.Stack})
	}
}

// FoldAll folds every non-noise cluster present in bursts, returning results
// keyed by label in ascending label order.
func FoldAll(tr *trace.Trace, bursts []trace.Burst, opt Options) ([]*Folded, error) {
	return FoldAllWith(TraceProjector(tr), bursts, opt)
}

// FoldAllWith is FoldAll with an explicit projection source; see Projector.
func FoldAllWith(project Projector, bursts []trace.Burst, opt Options) ([]*Folded, error) {
	seen := make(map[int]bool)
	var labels []int
	for i := range bursts {
		if l := bursts[i].Cluster; l >= 0 && !seen[l] {
			seen[l] = true
			labels = append(labels, l)
		}
	}
	sort.Ints(labels)
	out := make([]*Folded, 0, len(labels))
	for _, l := range labels {
		f, err := FoldWith(project, bursts, l, opt)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}
