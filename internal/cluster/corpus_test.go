package cluster_test

import (
	"testing"

	"phasefold/internal/cluster"
	"phasefold/internal/core"
	"phasefold/internal/faults"
	"phasefold/internal/simapp"
	"phasefold/internal/trace"
)

// TestDBSCANMatchesBFSOnFaultCorpus runs the differential test on the
// feature spaces structure detection really sees: every bundled
// application, pristine and under each trace fault, clustered on the
// default and on a wider feature set at several eps values.
func TestDBSCANMatchesBFSOnFaultCorpus(t *testing.T) {
	specs := []string{"", "drop=0.2", "dup=0.1", "reorder=0.1", "zero=0.05", "garble=0.05", "wrap=33", "skew=200us", "truncate=0.3", "killrank=0.3"}
	featureSets := [][]cluster.Feature{
		cluster.DefaultFeatures(),
		{cluster.FeatLogInstructions, cluster.FeatIPC, cluster.FeatL1PerKI, cluster.FeatLogDuration},
	}
	apps := simapp.AppNames()
	if testing.Short() {
		apps = apps[:2]
	}
	checked := 0
	for _, name := range apps {
		app, err := simapp.NewApp(name)
		if err != nil {
			t.Fatal(err)
		}
		run, err := core.RunApp(app, simapp.Config{Ranks: 4, Iterations: 40, Seed: 5, FreqGHz: 2}, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for si, spec := range specs {
			chain, err := faults.Parse(spec, uint64(si+1))
			if err != nil {
				t.Fatal(err)
			}
			tr := run.Trace.Clone()
			chain.ApplyTrace(tr)
			bursts, err := trace.ExtractBursts(tr, trace.BurstOptions{})
			if err != nil {
				continue // damage the extractor rejects never reaches DBSCAN
			}
			for _, feats := range featureSets {
				pts, valid := cluster.Extract(bursts, feats)
				cluster.Normalize(pts, valid, cluster.MinSpans(feats))
				var sub []cluster.Point
				for i, p := range pts {
					if valid[i] {
						sub = append(sub, p)
					}
				}
				checked += len(sub)
				for _, eps := range []float64{0.01, 0.05, 0.2} {
					opt := cluster.DBSCANOptions{Eps: eps, MinPts: 4}
					got, err := cluster.DBSCAN(sub, opt)
					if err != nil {
						t.Fatal(err)
					}
					want := cluster.OracleDBSCAN(sub, opt, false)
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s %q %d features eps %v: point %d label %d, BFS %d",
								name, spec, len(feats), eps, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
	if checked < 1000 {
		t.Fatalf("only %d points checked", checked)
	}
}
