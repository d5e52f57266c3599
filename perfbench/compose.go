package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"

	"phasefold/internal/align"
	"phasefold/internal/cluster"
	"phasefold/internal/core"
	"phasefold/internal/counters"
	"phasefold/internal/exec"
	"phasefold/internal/folding"
	"phasefold/internal/pwl"
	"phasefold/internal/stream"
	"phasefold/internal/trace"
)

// layerCounts are the work counts the composition records at each layer
// boundary.
type layerCounts struct {
	Bytes, Records, Bursts      int
	Points, Clusters, Clustered int
	DPCells                     float64 // computed from sequence lengths
	AlignAlloc                  uint64
	FoldedPoints, Used, Members int
	Fits, Segments, ExportBytes int
}

// composed is what the layer-by-layer composition produced, kept for the
// comparison with Analyze's model.
type composed struct {
	labels []int
	spmd   float64
	used   map[int]int       // cluster label -> bursts surviving folding
	breaks map[int][]float64 // cluster label -> primary breakpoints
	counts layerCounts
}

// compose analyzes one pristine trace by calling each layer's public
// functions in the order Analyze runs them, with a span around every call.
// The layers that Analyze runs in parallel (extraction per rank, folding
// and fitting per cluster) run on the same number of workers here. The
// export layer renders want, the model Analyze produced for the same bytes.
func compose(ctx context.Context, rec *recorder, tid int, data []byte, par int, want *core.Model) (*composed, error) {
	opt := core.DefaultOptions()
	c := &composed{used: map[int]int{}, breaks: map[int][]float64{}}
	root := rec.begin(tid, 0, "trace")
	defer rec.end(root)

	sp := rec.begin(tid, root, "trace.decode")
	tr, _, err := trace.Decode(ctx, bytes.NewReader(data), trace.DecodeOptions{Exec: exec.Exec{Parallelism: par}})
	rec.end(sp)
	if err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	c.counts.Bytes = len(data)
	c.counts.Records = tr.NumEvents() + tr.NumSamples()

	an := rec.begin(tid, root, "core.analyze")
	sp = rec.begin(tid, an, "trace.extract")
	perRank := make([][]trace.Burst, tr.NumRanks())
	errs := make([]error, tr.NumRanks())
	parFor(par, tr.NumRanks(), func(r int) {
		perRank[r], errs[r] = trace.ExtractRankBursts(tr.Ranks[r], trace.BurstOptions{MinDuration: opt.MinBurstDuration})
	})
	var bursts []trace.Burst
	for r := range perRank {
		if errs[r] != nil {
			rec.end(sp)
			return nil, fmt.Errorf("extract rank %d: %w", r, errs[r])
		}
		bursts = append(bursts, perRank[r]...)
	}
	trace.SortBursts(bursts)
	rec.end(sp)
	c.counts.Bursts = len(bursts)

	sp = rec.begin(tid, an, "cluster.dbscan")
	labels, err := cluster.ClusterBurstsContext(ctx, bursts, opt.Features, opt.DBSCAN)
	rec.end(sp)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	c.labels = labels
	_, valid := cluster.Extract(bursts, opt.Features)
	for _, v := range valid {
		if v {
			c.counts.Points++
		}
	}
	_, noise := cluster.Sizes(labels)
	c.counts.Clusters = cluster.NumClusters(labels)
	c.counts.Clustered = len(bursts) - noise

	seqs := make([][]int, tr.NumRanks())
	for _, b := range bursts {
		if b.Cluster >= 0 {
			seqs[b.Rank] = append(seqs[b.Rank], b.Cluster)
		}
	}
	c.counts.DPCells = progressiveCells(seqs)
	a0 := allocatedBytes()
	sp = rec.begin(tid, an, "align.spmd")
	c.spmd = 1
	if len(seqs) > 1 {
		c.spmd = 0
		if msa, err := align.Progressive(seqs, align.DefaultScoring()); err == nil {
			c.spmd = msa.SPMDScore()
		}
	}
	rec.end(sp)
	c.counts.AlignAlloc = allocatedBytes() - a0

	sp = rec.begin(tid, an, "folding.fold")
	stats := cluster.Stats(bursts)
	project := folding.TraceProjector(tr)
	folded := make([]*folding.Folded, len(stats))
	parFor(par, len(stats), func(i int) {
		// A cluster that cannot be folded stays nil, as Analyze grades it.
		folded[i], _ = folding.FoldWith(project, bursts, stats[i].Label, opt.Folding)
	})
	rec.end(sp)
	for i, f := range folded {
		if f != nil {
			c.used[stats[i].Label] = f.UsedBursts
			c.counts.FoldedPoints += f.TotalPoints()
			c.counts.Used += f.UsedBursts
			c.counts.Members += f.NumBursts
		}
	}

	sp = rec.begin(tid, an, "pwl.fit")
	fits := make([]*pwl.Model, len(stats))
	refits := make([]int, len(stats))
	parFor(par, len(stats), func(i int) {
		fits[i], refits[i] = fitCluster(ctx, folded[i], opt)
	})
	rec.end(sp)
	rec.end(an)
	for i, fit := range fits {
		if fit != nil {
			c.breaks[stats[i].Label] = fit.Breakpoints
			c.counts.Fits += 1 + refits[i]
			c.counts.Segments += fit.K()
		}
	}

	sp = rec.begin(tid, root, "export.view")
	view := want.Export(tr)
	rec.end(sp)
	sp = rec.begin(tid, root, "export.render")
	arts, err := render(view)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	for _, b := range arts {
		c.counts.ExportBytes += len(b)
	}
	return c, nil
}

// fitCluster fits the primary (Instructions) model of one folded cloud and
// refits every other dense enough counter at its breakpoints, as Analyze
// does. It returns the primary fit (nil when the cloud is too sparse) and
// the number of refits.
func fitCluster(ctx context.Context, f *folding.Folded, opt core.Options) (*pwl.Model, int) {
	if f == nil {
		return nil, 0
	}
	xs, ys := cloud(f, counters.Instructions)
	if len(xs) < opt.MinFoldedPoints {
		return nil, 0
	}
	fit, err := pwl.FitContext(ctx, xs, ys, opt.PWL)
	if err != nil {
		return nil, 0
	}
	refits := 0
	for id := counters.ID(0); id < counters.NumIDs; id++ {
		if id == counters.Instructions {
			continue
		}
		cx, cy := cloud(f, id)
		if len(cx) < opt.MinFoldedPoints/2 {
			continue
		}
		if _, err := pwl.FitWithBreakpoints(cx, cy, fit.Breakpoints, opt.PWL); err == nil {
			refits++
		}
	}
	return fit, refits
}

func cloud(f *folding.Folded, id counters.ID) (xs, ys []float64) {
	pts := f.Points[id]
	xs = make([]float64, len(pts))
	ys = make([]float64, len(pts))
	for i, p := range pts {
		xs[i], ys[i] = p.X, p.Y
	}
	return xs, ys
}

// progressiveCells is the dynamic-programming cell count of a star
// alignment of seqs around the longest one, computed from the sequence
// lengths alone: every other sequence is aligned against a consensus of
// (at least) the center's length.
func progressiveCells(seqs [][]int) float64 {
	center := 0
	for i, s := range seqs {
		if len(s) > len(seqs[center]) {
			center = i
		}
	}
	var cells float64
	for i, s := range seqs {
		if i != center {
			cells += float64(len(seqs[center])+1) * float64(len(s)+1)
		}
	}
	return cells
}

// checkComposition reports the first difference between the composition
// and Analyze's model: burst labels, SPMD score, bursts used per cluster,
// and primary breakpoints must all be equal.
func checkComposition(c *composed, m *core.Model) error {
	if len(c.labels) != len(m.Bursts) {
		return fmt.Errorf("composition has %d bursts, Analyze %d", len(c.labels), len(m.Bursts))
	}
	for i, b := range m.Bursts {
		if c.labels[i] != b.Cluster {
			return fmt.Errorf("burst %d labelled %d, Analyze %d", i, c.labels[i], b.Cluster)
		}
	}
	if c.spmd != m.SPMDScore {
		return fmt.Errorf("SPMD score %v, Analyze %v", c.spmd, m.SPMDScore)
	}
	for _, ca := range m.Clusters {
		if ca.Folded != nil && c.used[ca.Label] != ca.Folded.UsedBursts {
			return fmt.Errorf("cluster %d uses %d bursts, Analyze %d", ca.Label, c.used[ca.Label], ca.Folded.UsedBursts)
		}
		var want []float64
		if ca.Fit != nil {
			want = ca.Fit.Breakpoints
		}
		if !slices.Equal(c.breaks[ca.Label], want) {
			return fmt.Errorf("cluster %d breakpoints %v, Analyze %v", ca.Label, c.breaks[ca.Label], want)
		}
	}
	return nil
}

// streamStats are the streaming session's figures, read from outside.
type streamStats struct {
	PeakRecords int
	Trainings   int
	NoiseRatio  float64
}

// streamBytes analyzes one trace incrementally, as a chunked upload is:
// chunks are decoded and fed to a streaming session with a snapshot taken
// after each feed, then Done finishes the model and the artifacts render
// from the stream's header.
func streamBytes(ctx context.Context, rec *recorder, tid int, data []byte, par int) (*core.Model, streamStats, error) {
	var st streamStats
	root := rec.begin(tid, 0, "stream")
	defer rec.end(root)
	cr, err := trace.NewChunkReader(ctx, bytes.NewReader(data), trace.DecodeOptions{Exec: exec.Exec{Parallelism: par}})
	if err != nil {
		return nil, st, fmt.Errorf("stream header: %w", err)
	}
	opt := core.DefaultOptions()
	opt.Parallelism = par
	sess, err := stream.New(ctx, stream.Header{
		App: cr.App(), NumRanks: cr.NumRanks(), Symbols: cr.Symbols(), Stacks: cr.Stacks(),
	}, stream.Options{Core: opt, SnapshotEvery: streamSnapshotEvery})
	if err != nil {
		return nil, st, err
	}
	consume := rec.begin(tid, root, "stream.consume")
	var last *stream.Snapshot
	trainedOn := 0
	for {
		chunk, err := cr.Next(streamChunkRecords)
		if err == io.EOF {
			break
		}
		if err != nil {
			rec.end(consume)
			return nil, st, fmt.Errorf("stream decode: %w", err)
		}
		if err := sess.Feed(chunk); err != nil {
			rec.end(consume)
			return nil, st, fmt.Errorf("stream feed: %w", err)
		}
		sp := rec.begin(tid, consume, "stream.snapshot")
		last = sess.Snapshot()
		rec.end(sp)
		if last.Trained && last.TrainedOn != trainedOn {
			trainedOn = last.TrainedOn
			st.Trainings++
		}
	}
	rec.end(consume)
	skel, err := cr.Skeleton()
	if err != nil {
		return nil, st, err
	}
	sp := rec.begin(tid, root, "stream.done")
	m, err := sess.Done()
	rec.end(sp)
	if err != nil {
		return nil, st, fmt.Errorf("stream done: %w", err)
	}
	sp = rec.begin(tid, root, "stream.render")
	_, err = render(m.Export(skel))
	rec.end(sp)
	if err != nil {
		return nil, st, err
	}
	st.PeakRecords = sess.PeakBufferedRecords()
	if last != nil {
		st.NoiseRatio = ratio(float64(last.Noise), float64(last.Bursts))
	}
	return m, st, nil
}

// Streaming cadence: records per decoded chunk (the service's value) and
// bursts between snapshot recomputations.
const (
	streamChunkRecords  = 4096
	streamSnapshotEvery = 256
)

// parFor runs fn(0..n-1) on up to workers goroutines and waits for them.
func parFor(workers, n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}
