package folding

import (
	"phasefold/internal/counters"
	"phasefold/internal/sim"
	"phasefold/internal/trace"
)

// BurstKey identifies one burst across the streaming pipeline. A rank's
// bursts start at strictly increasing times (each burst opens at an event at
// or after the previous burst's closing event), so (Rank, Start) is unique
// within a trace and survives the global SortBursts reordering.
type BurstKey struct {
	Rank  int32
	Start sim.Time
}

// KeyOf returns the key of b.
func KeyOf(b *trace.Burst) BurstKey {
	return BurstKey{Rank: b.Rank, Start: b.Start}
}

// BurstCloud accumulates the folded projections of one burst's samples as
// they arrive. The projection of a sample depends only on its burst's
// boundaries and counters — not on the cluster label, which the streaming
// pipeline assigns much later — so clouds can be built eagerly at sample
// attach time and replayed per cluster at the end via CloudProjector.
//
// Observe runs the batch projection's own per-sample routine
// (projectSample), so replaying members in the batch member order yields the
// identical pre-sort point sequence by construction. The final sort's
// permutation depends only on that sequence's X comparisons, so the sorted
// output is identical too, whether a cloud shares the cluster's permutation
// or is sorted on its own.
type BurstCloud struct {
	Points [counters.NumIDs][]Point
	Stacks []StackSample
}

// Observe projects sample s, known to lie inside burst b, into the cloud.
func (c *BurstCloud) Observe(b *trace.Burst, s *trace.Sample) {
	projectSample(&c.Points, &c.Stacks, b, s)
}

// NumPoints returns the observation count summed over all counters.
func (c *BurstCloud) NumPoints() int {
	n := 0
	for id := range c.Points {
		n += len(c.Points[id])
	}
	return n
}

// CloudProjector adapts a set of eagerly-built per-burst clouds into the
// Projector the folding algebra consumes. Bursts without a cloud (no
// samples attached, or every projection skipped) contribute nothing, exactly
// as the batch projection would.
func CloudProjector(clouds map[BurstKey]*BurstCloud) Projector {
	return func(f *Folded, b *trace.Burst) {
		c := clouds[KeyOf(b)]
		if c == nil {
			return
		}
		for id := range c.Points {
			f.Points[id] = append(f.Points[id], c.Points[id]...)
		}
		f.Stacks = append(f.Stacks, c.Stacks...)
	}
}
