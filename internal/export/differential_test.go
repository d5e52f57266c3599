package export

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"phasefold/internal/core"
	"phasefold/internal/faults"
	"phasefold/internal/sim"
	"phasefold/internal/simapp"
	"phasefold/internal/trace"
)

// checkMatchesOracle renders v with WritePerfetto and with the former
// encoder (oracle_test.go): the bytes must be identical, and where one
// fails the other must fail too, both with encoding/json's unsupported
// value error and neither having written anything.
func checkMatchesOracle(t testing.TB, name string, v *core.ExportView) {
	t.Helper()
	var want, got bytes.Buffer
	wantErr := oracleWritePerfetto(&want, v)
	gotErr := WritePerfetto(&got, v)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: error %v, oracle error %v", name, gotErr, wantErr)
	}
	if gotErr != nil {
		var ue *json.UnsupportedValueError
		if !errors.As(gotErr, &ue) || !errors.As(wantErr, &ue) {
			t.Errorf("%s: error %T %v, oracle error %T %v; want *json.UnsupportedValueError",
				name, gotErr, gotErr, wantErr, wantErr)
		}
		if got.Len() != 0 || want.Len() != 0 {
			t.Errorf("%s: failed render wrote %d bytes (oracle %d), want none", name, got.Len(), want.Len())
		}
		return
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		g, w := got.Bytes(), want.Bytes()
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		lo := max(0, i-80)
		t.Fatalf("%s: output differs from the oracle at byte %d (len %d vs %d):\n got: %q\nwant: %q",
			name, i, len(g), len(w), g[lo:min(len(g), i+80)], w[lo:min(len(w), i+80)])
	}
}

// zooView analyzes a small run of one simapp application.
func zooView(t *testing.T, name string) *core.ExportView {
	t.Helper()
	app, err := simapp.NewApp(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := simapp.Config{Ranks: 4, Iterations: 60, Seed: 3, FreqGHz: 2}
	model, run, err := core.AnalyzeApp(context.Background(), app, cfg, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return model.Export(run.Trace)
}

// salvagedView damages the fixture trace (garbled counters, dropped
// records), chops its encoding, decodes what is left in salvage mode and
// analyzes it: a view with diagnostics.
func salvagedView(t *testing.T) *core.ExportView {
	t.Helper()
	fixture(t)
	chain, err := faults.Parse("garble=0.1,drop=0.1,chop=0.3", 1)
	if err != nil {
		t.Fatal(err)
	}
	damaged := fixTrace.Clone()
	chain.ApplyTrace(damaged)
	var enc bytes.Buffer
	if err := trace.Encode(&enc, damaged); err != nil {
		t.Fatal(err)
	}
	tr, _, err := trace.Decode(context.Background(), bytes.NewReader(chain.ApplyStream(enc.Bytes())),
		trace.DecodeOptions{Salvage: true})
	if err != nil {
		t.Fatal(err)
	}
	model, err := core.Analyze(context.Background(), tr, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	v := model.Export(tr)
	if len(v.Diagnostics) == 0 {
		t.Fatal("salvaged trace produced no diagnostics")
	}
	return v
}

// edgeView is hand-built to reach every branch of the encoder: labels out
// of order and absent from Clusters, duplicate labels, unfitted and
// zero-length representatives, zero and negative zero durations, zero and
// non-finite shares, floats at the 'f'/'e' switch points and subnormals,
// extreme integers, and strings that need escaping.
func edgeView() *core.ExportView {
	negZero := math.Copysign(0, -1)
	const odd = "<a&b>    \"q\" \\ \x01\x1f\x7f \t\n\r\b\f \xff\xfe é"
	return &core.ExportView{
		App:   "edge " + odd,
		Ranks: 3,
		Clusters: []core.ExportCluster{
			{Label: 2, Region: 9, RepDuration: 1000, Phases: []core.ExportPhase{
				{Index: 0, X0: 0, X1: 0.25, Source: "init.c:12", Share: 0.5},
				{Index: 1, X0: 0.25, X1: 0.25, Share: 0},
				{Index: 2, X0: 0.25, X1: 1, Source: odd, Share: 0.999},
			}},
			{Label: 0, Region: math.MinInt64, RepDuration: 7},
			{Label: 1, Region: 3, RepDuration: 0, Phases: []core.ExportPhase{
				{Index: 0, X0: 0, X1: 1, Share: math.Inf(1)},
			}},
			{Label: -4, Region: 1, RepDuration: -5},
			{Label: 5, Region: 2, RepDuration: 1000, Phases: []core.ExportPhase{
				{Index: 0, X0: negZero, X1: 0, Share: math.NaN()},
				{Index: 1, X0: 0, X1: negZero},
				{Index: 2, X0: 1e-6, X1: 1e-9 * 1e3},
				{Index: 3, X0: 5e-324, X1: 2.2250738585072014e-308},
				{Index: 4, X0: 1e-7, X1: 9.999999999999999e-7},
				{Index: 5, X0: 1e21, X1: 9.999999999999999e20},
				{Index: 6, X0: 1e24, X1: -1e-300},
				{Index: 7, X0: 123456789.123456789, X1: -0.000123},
			}},
			{Label: 2, Region: 4, RepDuration: 1, Phases: []core.ExportPhase{
				{Index: 0, X0: 0.5, X1: 1, Source: "dup"},
			}},
		},
		Bursts: []core.ExportBurst{
			{Rank: 0, Start: 0, End: 1000, Cluster: 2, Region: 9, Iter: 1},
			{Rank: 0, Start: 1000, End: 1000, Cluster: 2, Region: 9, Iter: 0},
			{Rank: 0, Start: 1000, End: 1500, Cluster: 7, Region: 8, Iter: -3},
			{Rank: 0, Start: 1500, End: 2001, Cluster: -1, Region: 0, Iter: math.MaxInt64},
			{Rank: 1, Start: 5, End: 6, Cluster: 0, Region: math.MinInt64, Iter: math.MinInt64},
			{Rank: 1, Start: 6, End: 1<<53 + 1, Cluster: 5, Region: 2, Iter: 2},
			{Rank: 2, Start: 3, End: 2, Cluster: 1, Region: 3, Iter: 4},
			{Rank: 2, Start: 10, End: 20, Cluster: 2, Region: 4, Iter: 5},
			{Rank: math.MaxInt32, Start: -1000, End: 1000, Cluster: -1, Region: 1},
			{Rank: 1, Start: 0, End: 1, Cluster: 5, Region: 2},
		},
		Diagnostics: []core.ExportDiag{
			{Severity: "warn", Stage: "decode", Message: odd},
			{Severity: "<error>", Stage: "fold ", Message: ""},
		},
	}
}

// nonFiniteViews put NaN or ±Inf where they reach an encoded ts or dur,
// on the per-rank phase track or on the folded track only, plus one view
// whose non-finite breakpoints are never rendered.
func nonFiniteViews() map[string]*core.ExportView {
	nan, inf := math.NaN(), math.Inf(1)
	fitted := func(x0, x1 float64, rep sim.Duration) *core.ExportView {
		return &core.ExportView{
			App: "nonfinite", Ranks: 1,
			Clusters: []core.ExportCluster{{Label: 0, RepDuration: 0, Phases: []core.ExportPhase{
				{Index: 0, X0: 0, X1: 0.5}, {Index: 1, X0: x0, X1: x1},
			}}, {Label: 1, RepDuration: rep, Phases: []core.ExportPhase{{Index: 0, X0: x0, X1: x1}}}},
			Bursts: []core.ExportBurst{{Rank: 0, Start: 100, End: 200, Cluster: 0}},
		}
	}
	folded := func(x0, x1 float64) *core.ExportView {
		return &core.ExportView{
			App: "nonfinite", Ranks: 1,
			Clusters: []core.ExportCluster{{Label: 1, RepDuration: 50, Phases: []core.ExportPhase{{Index: 0, X0: x0, X1: x1}}}},
			Bursts:   []core.ExportBurst{{Rank: 0, Start: 100, End: 200, Cluster: 3}},
		}
	}
	return map[string]*core.ExportView{
		"NaN X0":           fitted(nan, 1, 0),
		"+Inf X1":          fitted(0.5, inf, 0),
		"-Inf X0":          fitted(-inf, 1, 0),
		"Inf X1 and NaN":   fitted(nan, inf, 10),
		"folded NaN X1":    folded(0, nan),
		"folded +Inf X0":   folded(inf, 1),
		"folded -Inf X1":   folded(0, -inf),
		"folded Inf-Inf":   folded(inf, inf),
		"rank Inf*0 span":  {App: "x", Ranks: 1, Clusters: []core.ExportCluster{{Label: 0, Phases: []core.ExportPhase{{X0: inf, X1: inf}}}}, Bursts: []core.ExportBurst{{Rank: 0, Start: 7, End: 7}}},
		"never rendered":   {App: "x", Ranks: 1, Clusters: []core.ExportCluster{{Label: 0, RepDuration: 0, Phases: []core.ExportPhase{{X0: nan, X1: inf}}}}},
		"NaN on every one": fitted(nan, nan, 3),
	}
}

// TestWritePerfettoMatchesOracle pins the direct encoder to the former
// json.Encoder path, byte for byte and error for error.
func TestWritePerfettoMatchesOracle(t *testing.T) {
	checkMatchesOracle(t, "fixture", fixture(t))
	checkMatchesOracle(t, "synthetic", syntheticView())
	checkMatchesOracle(t, "empty", &core.ExportView{})
	checkMatchesOracle(t, "negative ranks", &core.ExportView{App: "x", Ranks: -2})
	for _, app := range []string{"cg", "stencil", "nbody", "amr", "multiphase"} {
		checkMatchesOracle(t, app, zooView(t, app))
	}
	checkMatchesOracle(t, "salvaged", salvagedView(t))
	checkMatchesOracle(t, "edge", edgeView())
	for name, v := range nonFiniteViews() {
		checkMatchesOracle(t, name, v)
	}
	for name, v := range nonFiniteViews() {
		if name == "never rendered" {
			if err := WritePerfetto(&bytes.Buffer{}, v); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		} else if err := WritePerfetto(&bytes.Buffer{}, v); err == nil {
			t.Errorf("%s: rendered a non-finite time", name)
		}
	}
}

// fuzzReader hands out fields of a view from fuzz bytes, zero once they
// run out.
type fuzzReader []byte

func (r *fuzzReader) byte() byte {
	if len(*r) == 0 {
		return 0
	}
	c := (*r)[0]
	*r = (*r)[1:]
	return c
}

func (r *fuzzReader) u64() uint64 {
	var b [8]byte
	for i := range b {
		b[i] = r.byte()
	}
	return binary.LittleEndian.Uint64(b[:])
}

// float is mostly a breakpoint-like fraction, sometimes a special value
// and sometimes arbitrary bits (NaN and ±Inf included).
func (r *fuzzReader) float() float64 {
	specials := [...]float64{0, math.Copysign(0, -1), 1, 1e-6, 1e21, 5e-324, math.NaN(), math.Inf(1), math.Inf(-1), -1e-7}
	switch k := r.byte(); {
	case k < 160:
		return float64(k) / 128
	case k < 224:
		return specials[int(k)%len(specials)]
	default:
		return math.Float64frombits(r.u64())
	}
}

func (r *fuzzReader) str() string {
	n := int(r.byte() % 8)
	s := make([]byte, n)
	for i := range s {
		s[i] = r.byte()
	}
	return string(s)
}

// fuzzView builds a small view from fuzz bytes: a few ranks, clusters with
// labels in a narrow range (so duplicates and absent labels occur), and
// bursts pointing at them.
func fuzzView(data []byte) *core.ExportView {
	r := fuzzReader(data)
	v := &core.ExportView{App: r.str(), Ranks: int(r.byte()%5) - 1}
	for n := int(r.byte() % 5); n > 0; n-- {
		c := core.ExportCluster{
			Label:       int(r.byte()%6) - 1,
			Region:      int64(int8(r.byte())),
			RepDuration: sim.Duration(int16(r.byte())<<8 | int16(r.byte())),
		}
		for m := int(r.byte() % 4); m > 0; m-- {
			p := core.ExportPhase{Index: int(r.byte()), X0: r.float(), X1: r.float(), Share: r.float()}
			if r.byte()%2 == 0 {
				p.Source = r.str()
			}
			c.Phases = append(c.Phases, p)
		}
		v.Clusters = append(v.Clusters, c)
	}
	var t sim.Time
	for n := int(r.byte() % 24); n > 0; n-- {
		t += sim.Time(int8(r.byte())) * 1000
		b := core.ExportBurst{
			Rank:    int32(r.byte() % 5),
			Start:   t,
			End:     t + sim.Time(int16(r.byte())<<8|int16(r.byte())),
			Cluster: int(r.byte()%7) - 1,
			Region:  int64(r.byte() % 3),
			Iter:    int64(int8(r.byte())),
		}
		if r.byte() == 255 {
			b.Start, b.End = sim.Time(r.u64()), sim.Time(r.u64())
		}
		v.Bursts = append(v.Bursts, b)
	}
	for n := int(r.byte() % 3); n > 0; n-- {
		v.Diagnostics = append(v.Diagnostics, core.ExportDiag{Severity: r.str(), Stage: r.str(), Message: r.str()})
	}
	return v
}

// FuzzWritePerfettoMatchesOracle holds WritePerfetto to the oracle on views
// built from arbitrary bytes.
func FuzzWritePerfettoMatchesOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x03app\x03\x04\x02\x05\x00\x10\x02\x01\x20\x40\x00\x00\x60\x80\x01\x07\x01\x00\x02\x01"))
	f.Add(bytes.Repeat([]byte{0x11, 0x93, 0xe0, 0x05, 0x7f, 0xff}, 40))
	f.Add(bytes.Repeat([]byte{0xa0, 0x03, 0xff, 0x00, 0x41}, 60))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkMatchesOracle(t, "fuzz", fuzzView(data))
	})
}

// TestAppendFloatMatchesJSON holds appendFloat to encoding/json on whole
// nanosecond counts (its integer path, up to and past the 2^40 cut-off),
// on their neighbours one ulp away, and on arbitrary finite values.
func TestAppendFloatMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	check := func(f float64) {
		t.Helper()
		want, err := json.Marshal(f)
		if err != nil {
			return
		}
		if got := appendFloat(nil, f); !bytes.Equal(got, want) {
			t.Fatalf("appendFloat(%v) = %s, want %s", f, got, want)
		}
	}
	check(0)
	check(math.Copysign(0, -1))
	for _, n := range []int64{1, -1, 10, 100, 999, 1000, 1001, 1010, 1100, 123456789, 1<<40 - 1, 1 << 40, 1<<40 + 1, -(1<<40 - 1), 1 << 53} {
		check(float64(n) / 1e3)
	}
	for i := 0; i < 50000; i++ {
		n := (rng.Int64N(1<<54) - 1<<53) >> rng.UintN(54)
		f := float64(n) / 1e3
		check(f)
		check(math.Nextafter(f, math.Inf(1)))
		check(math.Nextafter(f, math.Inf(-1)))
		check(math.Float64frombits(rng.Uint64()))
	}
}
