package folding

import (
	"fmt"
	"sort"

	"phasefold/internal/callstack"
	"phasefold/internal/counters"
	"phasefold/internal/sim"
	"phasefold/internal/trace"
)

// This file keeps FoldWith as it was before the shared permutation and the
// presized clouds — one pass over the members that projects as it goes,
// growing each cloud by append, then one reflective sort.Slice per counter
// cloud and one for the stack timeline — together with the batch per-sample
// projection as it was before BurstCloud.Observe shared it. They serve only
// as the oracle for the differential tests: FoldWith must reproduce their
// output bit for bit.

// oracleFoldWith is the former FoldWith.
func oracleFoldWith(project Projector, bursts []trace.Burst, label int, opt Options) (*Folded, error) {
	if label < 0 {
		return nil, fmt.Errorf("folding: cannot fold noise label %d", label)
	}
	var members []*trace.Burst
	for i := range bursts {
		if bursts[i].Cluster == label {
			members = append(members, &bursts[i])
		}
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("folding: cluster %d has no bursts", label)
	}
	f := &Folded{Cluster: label, NumBursts: len(members)}

	var durs []float64
	for _, b := range members {
		durs = append(durs, float64(b.Duration()))
	}
	medDur := sim.Median(durs)
	f.RepDuration = sim.Duration(medDur)

	var deltas [counters.NumIDs][]float64
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
		f.UsedBursts++
		for id := counters.ID(0); id < counters.NumIDs; id++ {
			if v, ok := b.Delta.Get(id); ok {
				deltas[id] = append(deltas[id], float64(v))
			}
		}
		project(f, b)
	}
	if f.UsedBursts == 0 && opt.DurationBand > 0 {
		relaxed := opt
		relaxed.DurationBand = 0
		return oracleFoldWith(project, bursts, label, relaxed)
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
	for id := range f.Points {
		pts := f.Points[id]
		sort.Slice(pts, func(i, j int) bool { return pts[i].X < pts[j].X })
	}
	sort.Slice(f.Stacks, func(i, j int) bool { return f.Stacks[i].X < f.Stacks[j].X })
	return f, nil
}

// oracleTraceProjector is the former TraceProjector, with its own copy of
// the per-sample arithmetic.
func oracleTraceProjector(tr *trace.Trace) Projector {
	return func(f *Folded, b *trace.Burst) {
		if b.FirstSmp < 0 || b.NumSmp == 0 {
			return
		}
		dur := float64(b.Duration())
		if dur <= 0 {
			return
		}
		samples := tr.Rank(int(b.Rank)).Samples[b.FirstSmp : b.FirstSmp+b.NumSmp]
		for i := range samples {
			s := &samples[i]
			x := float64(s.Time-b.Start) / dur
			if x < 0 || x > 1 {
				continue
			}
			for id := counters.ID(0); id < counters.NumIDs; id++ {
				sv, ok1 := s.Counters.Get(id)
				base, ok2 := b.StartCtr.Get(id)
				total, ok3 := b.Delta.Get(id)
				if !ok1 || !ok2 || !ok3 || total <= 0 {
					continue
				}
				y := sim.Clamp(float64(sv-base)/float64(total), 0, 1)
				f.Points[id] = append(f.Points[id], Point{X: x, Y: y})
			}
			if s.Stack != callstack.NoStack {
				f.Stacks = append(f.Stacks, StackSample{X: x, Stack: s.Stack})
			}
		}
	}
}
