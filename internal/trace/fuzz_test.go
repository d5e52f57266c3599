package trace

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"phasefold/internal/callstack"
	"phasefold/internal/counters"
)

// fuzzSeedTrace builds a small real trace to seed the corpus with valid
// encodings — fuzzing from structured seeds reaches far deeper than from
// random bytes.
func fuzzSeedTrace(tb testing.TB) *Trace {
	tb.Helper()
	syms := callstack.NewSymbolTable()
	rt := syms.Define(callstack.Routine{Name: "f", File: "f.c"})
	tr := New("fuzz", 2, syms, callstack.NewInterner())
	st := tr.Stacks.Intern(callstack.Stack{{Routine: rt, Line: 3}})
	for r := int32(0); r < 2; r++ {
		ctr := counters.AllMissing()
		ctr[counters.Instructions] = 100
		tr.AddEvent(Event{Time: 10, Rank: r, Type: IterBegin, Counters: ctr})
		tr.AddEvent(Event{Time: 20, Rank: r, Type: RegionEnter, Value: 7, Counters: counters.AllMissing()})
		ctr[counters.Instructions] = 900
		tr.AddSample(Sample{Time: 25, Rank: r, Counters: ctr, Stack: st})
		tr.AddEvent(Event{Time: 30, Rank: r, Type: RegionExit, Value: 7, Counters: counters.AllMissing()})
	}
	return tr
}

// FuzzDecode drives the binary decoder, strict and salvage, over arbitrary
// bytes. Both modes must be panic- and OOM-free; whatever they accept must
// validate; and salvage must never do worse than strict.
func FuzzDecode(f *testing.F) {
	var buf bytes.Buffer
	if err := Encode(&buf, fuzzSeedTrace(f)); err != nil {
		f.Fatal(err)
	}
	full := buf.Bytes()
	f.Add(full)
	f.Add(full[:len(full)/2])
	f.Add(full[:len(full)-3])
	f.Add([]byte(binaryMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, _, err := Decode(context.Background(), bytes.NewReader(data), DecodeOptions{})
		if err == nil {
			if verr := tr.Validate(); verr != nil {
				t.Fatalf("strict decode accepted an invalid trace: %v", verr)
			}
		}
		str, rep, serr := Decode(context.Background(), bytes.NewReader(data), DecodeOptions{Salvage: true})
		if serr == nil {
			if verr := str.Validate(); verr != nil {
				t.Fatalf("salvaged trace invalid: %v", verr)
			}
			if rep == nil {
				t.Fatal("salvage succeeded without a report")
			}
		}
		if err == nil && serr != nil {
			t.Fatalf("strict accepted what salvage rejected: %v", serr)
		}
	})
}

// FuzzChunkReaderMatchesDecode holds the streaming reader to the batch
// decoder on arbitrary bytes, strict and salvage: whatever strict Decode
// accepts, a ChunkReader drained a few records at a time yields record for
// record, and whatever a ChunkReader rejects, Decode rejects under the same
// sentinel.
func FuzzChunkReaderMatchesDecode(f *testing.F) {
	var buf bytes.Buffer
	if err := Encode(&buf, fuzzSeedTrace(f)); err != nil {
		f.Fatal(err)
	}
	full := buf.Bytes()
	f.Add(full)
	f.Add(full[:len(full)/2])
	f.Add(full[:len(full)-3])
	f.Add([]byte(binaryMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, salvage := range []bool{false, true} {
			opt := DecodeOptions{Salvage: salvage}
			tr, _, derr := Decode(context.Background(), bytes.NewReader(data), opt)
			var events [][]Event
			var samples [][]Sample
			cr, cerr := NewChunkReader(context.Background(), bytes.NewReader(data), opt)
			if cerr == nil {
				events, samples, cerr = collectChunks(cr, 3)
			}
			if cerr != nil {
				var sentinel error
				for _, s := range []error{ErrBadMagic, ErrTruncated, ErrCorrupt, ErrNoRanks} {
					if errors.Is(cerr, s) {
						sentinel = s
						break
					}
				}
				if sentinel == nil {
					t.Fatalf("salvage=%v: chunk reader error %v matches no sentinel", salvage, cerr)
				}
				if !errors.Is(derr, sentinel) {
					t.Fatalf("salvage=%v: chunk reader failed with %v, Decode with %v", salvage, cerr, derr)
				}
				continue
			}
			if salvage || derr != nil {
				continue
			}
			for r, rd := range tr.Ranks {
				if len(events[r]) != len(rd.Events) || len(events[r]) > 0 && !reflect.DeepEqual(events[r], rd.Events) {
					t.Fatalf("rank %d: chunked events differ from Decode's", r)
				}
				if len(samples[r]) != len(rd.Samples) || len(samples[r]) > 0 && !reflect.DeepEqual(samples[r], rd.Samples) {
					t.Fatalf("rank %d: chunked samples differ from Decode's", r)
				}
			}
		}
	})
}

// FuzzDecodeText drives the text decoder the same way.
func FuzzDecodeText(f *testing.F) {
	var buf bytes.Buffer
	if err := EncodeText(&buf, fuzzSeedTrace(f)); err != nil {
		f.Fatal(err)
	}
	full := buf.String()
	f.Add(full)
	f.Add(full[:len(full)/2])
	f.Add(textMagic + "\n")
	f.Add(textMagic + "\nE 0 bogus\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, data string) {
		tr, _, err := DecodeText(context.Background(), bytes.NewReader([]byte(data)), DecodeOptions{})
		if err == nil {
			if verr := tr.Validate(); verr != nil {
				t.Fatalf("strict text decode accepted an invalid trace: %v", verr)
			}
		}
		str, rep, serr := DecodeText(context.Background(), bytes.NewReader([]byte(data)), DecodeOptions{Salvage: true})
		if serr == nil {
			if verr := str.Validate(); verr != nil {
				t.Fatalf("salvaged text trace invalid: %v", verr)
			}
			if rep == nil {
				t.Fatal("salvage succeeded without a report")
			}
		}
		if err == nil && serr != nil {
			t.Fatalf("strict accepted what salvage rejected: %v", serr)
		}
	})
}
