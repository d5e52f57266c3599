package export

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// decodedTrace mirrors the subset of the Chrome trace-event schema the
// tests verify.
type decodedTrace struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Name string          `json:"name"`
		Ph   string          `json:"ph"`
		Ts   float64         `json:"ts"`
		Dur  float64         `json:"dur"`
		Pid  int             `json:"pid"`
		Tid  int             `json:"tid"`
		Cat  string          `json:"cat"`
		S    string          `json:"s"`
		Args json.RawMessage `json:"args"`
	} `json:"traceEvents"`
}

// TestWritePerfettoDeterministic: two renders of the same view are
// byte-for-byte identical — the property the CI golden artifacts rely on.
func TestWritePerfettoDeterministic(t *testing.T) {
	v := fixture(t)
	var a, b bytes.Buffer
	if err := WritePerfetto(&a, v); err != nil {
		t.Fatal(err)
	}
	if err := WritePerfetto(&b, v); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two renders of the same view differ")
	}
}

// TestWritePerfettoSchema validates the trace-event schema: the time unit,
// the event types and their required fields, the fixed pid layout, and
// that every track's complete events are monotonic and non-overlapping.
func TestWritePerfettoSchema(t *testing.T) {
	v := fixture(t)
	var buf bytes.Buffer
	if err := WritePerfetto(&buf, v); err != nil {
		t.Fatal(err)
	}
	var dec decodedTrace
	if err := json.Unmarshal(buf.Bytes(), &dec); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if dec.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", dec.DisplayTimeUnit)
	}
	if len(dec.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}

	type track struct{ pid, tid int }
	complete := make(map[track][][2]float64) // [ts, ts+dur] per track
	sawMeta, sawBurst, sawPhase, sawFolded := false, false, false, false
	inEvents := true
	for i, e := range dec.TraceEvents {
		switch e.Ph {
		case "M":
			sawMeta = true
			if !inEvents {
				t.Errorf("event %d: metadata after non-metadata events", i)
			}
			if e.Name != "process_name" && e.Name != "thread_name" {
				t.Errorf("event %d: unexpected metadata %q", i, e.Name)
			}
		case "X":
			inEvents = false
			if e.Name == "" {
				t.Errorf("event %d: complete event without a name", i)
			}
			if e.Dur < 0 {
				t.Errorf("event %d: negative dur %v", i, e.Dur)
			}
			complete[track{e.Pid, e.Tid}] = append(complete[track{e.Pid, e.Tid}], [2]float64{e.Ts, e.Ts + e.Dur})
			switch e.Cat {
			case "burst":
				sawBurst = true
				if e.Pid != pidRanks {
					t.Errorf("event %d: burst on pid %d, want %d", i, e.Pid, pidRanks)
				}
				if e.Tid < 0 || e.Tid >= v.Ranks {
					t.Errorf("event %d: burst tid %d outside rank range", i, e.Tid)
				}
			case "phase":
				sawPhase = true
				if e.Pid != pidPhases {
					t.Errorf("event %d: phase on pid %d, want %d", i, e.Pid, pidPhases)
				}
			case "folded":
				sawFolded = true
				if e.Pid != pidClusters {
					t.Errorf("event %d: folded on pid %d, want %d", i, e.Pid, pidClusters)
				}
			default:
				t.Errorf("event %d: complete event with cat %q", i, e.Cat)
			}
		case "i":
			inEvents = false
			if e.S != "g" {
				t.Errorf("event %d: instant scope %q, want g", i, e.S)
			}
			if e.Pid != pidDiagnostics {
				t.Errorf("event %d: instant on pid %d, want %d", i, e.Pid, pidDiagnostics)
			}
		default:
			t.Errorf("event %d: unexpected ph %q", i, e.Ph)
		}
	}
	if !sawMeta || !sawBurst || !sawPhase || !sawFolded {
		t.Errorf("missing event kinds: meta=%v burst=%v phase=%v folded=%v",
			sawMeta, sawBurst, sawPhase, sawFolded)
	}

	// Per-track events must read monotonically without overlap (a sliver of
	// float tolerance: breakpoints are exact but scaling is float math).
	const eps = 1e-6
	for tr, spans := range complete {
		if !sort.SliceIsSorted(spans, func(i, j int) bool { return spans[i][0] < spans[j][0] }) {
			t.Errorf("track %+v: events not sorted by ts", tr)
			continue
		}
		for i := 1; i < len(spans); i++ {
			if spans[i][0] < spans[i-1][1]-eps {
				t.Errorf("track %+v: event %d (ts %v) overlaps previous (ends %v)",
					tr, i, spans[i][0], spans[i-1][1])
			}
		}
	}
}

// TestWritePerfettoRankNames: every rank gets a thread_name on both the
// burst and the phase process.
func TestWritePerfettoRankNames(t *testing.T) {
	v := fixture(t)
	var buf bytes.Buffer
	if err := WritePerfetto(&buf, v); err != nil {
		t.Fatal(err)
	}
	var dec decodedTrace
	if err := json.Unmarshal(buf.Bytes(), &dec); err != nil {
		t.Fatal(err)
	}
	named := make(map[string]bool)
	for _, e := range dec.TraceEvents {
		if e.Ph == "M" && e.Name == "thread_name" {
			named[fmt.Sprintf("%d/%d", e.Pid, e.Tid)] = true
		}
	}
	for r := 0; r < v.Ranks; r++ {
		for _, pid := range []int{pidRanks, pidPhases} {
			if !named[fmt.Sprintf("%d/%d", pid, r)] {
				t.Errorf("rank %d missing thread_name on pid %d", r, pid)
			}
		}
	}
}

// TestWritePerfettoGolden diffs the synthetic view's timeline against the
// committed golden file, which the former json.Encoder path rendered; the
// oracle must still render it too.
func TestWritePerfettoGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "perfetto_synthetic.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got, oracle bytes.Buffer
	if err := WritePerfetto(&got, syntheticView()); err != nil {
		t.Fatal(err)
	}
	if err := oracleWritePerfetto(&oracle, syntheticView()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("WritePerfetto(syntheticView) differs from the golden file:\n%s", got.Bytes())
	}
	if !bytes.Equal(oracle.Bytes(), want) {
		t.Errorf("the oracle no longer renders the golden file:\n%s", oracle.Bytes())
	}
}

// countingWriter counts Write calls, the bytes they carry and the spare
// capacity behind them.
type countingWriter struct{ writes, n, spare int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	w.n += len(p)
	w.spare += cap(p) - len(p)
	return len(p), nil
}

// TestWritePerfettoWritesOnce pins the single-write contract: the whole
// document in one Write on success, from a buffer of exactly its size, and
// no Write at all on error, so a failed render leaves no partial JSON
// behind.
func TestWritePerfettoWritesOnce(t *testing.T) {
	var ok countingWriter
	if err := WritePerfetto(&ok, fixture(t)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePerfetto(&buf, fixture(t)); err != nil {
		t.Fatal(err)
	}
	if ok.writes != 1 || ok.n != buf.Len() {
		t.Errorf("success: %d writes of %d bytes, want 1 write of %d", ok.writes, ok.n, buf.Len())
	}
	if ok.spare != 0 {
		t.Errorf("success: the written buffer has %d bytes of spare capacity, want none", ok.spare)
	}
	var bad countingWriter
	if err := WritePerfetto(&bad, nonFiniteViews()["NaN X0"]); err == nil {
		t.Fatal("NaN breakpoint rendered without error")
	}
	if bad.writes != 0 {
		t.Errorf("error: %d writes of %d bytes, want none", bad.writes, bad.n)
	}
}
