package trace

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"time"

	"phasefold/internal/callstack"
	"phasefold/internal/counters"
	"phasefold/internal/exec"
	"phasefold/internal/obs"
	"phasefold/internal/par"
	"phasefold/internal/sim"
)

// Binary trace format ("PFT2"): a compact varint-based encoding analogous in
// role to Paraver's .prv container. Layout:
//
//	magic "PFT2"
//	app name (string)
//	symbol table: count, then {name, file, startLine, endLine}
//	stack table:  count, then {frames: count, {routine, line}...}
//	rank count
//	per rank: section byte length, then the section:
//	  event count, events (delta-coded times), sample count, samples
//
// The per-rank byte-length prefix is what makes the container parallel:
// sections are sliced off the stream sequentially (I/O is one pipe) but
// decoded concurrently, each into its own rank slot, so the merged trace is
// identical at any worker count.
//
// Counter snapshots are encoded as a presence bitmap plus varint values so
// multiplexed traces (mostly-Missing sets) stay small.

const binaryMagic = "PFT2"

type stringWriter interface {
	io.Writer
	io.StringWriter
}

type writer struct {
	w   stringWriter
	buf [binary.MaxVarintLen64]byte
	err error
}

func (w *writer) uvarint(v uint64) {
	if w.err != nil {
		return
	}
	n := binary.PutUvarint(w.buf[:], v)
	_, w.err = w.w.Write(w.buf[:n])
}

func (w *writer) varint(v int64) {
	if w.err != nil {
		return
	}
	n := binary.PutVarint(w.buf[:], v)
	_, w.err = w.w.Write(w.buf[:n])
}

func (w *writer) str(s string) {
	w.uvarint(uint64(len(s)))
	if w.err != nil {
		return
	}
	_, w.err = w.w.WriteString(s)
}

func (w *writer) bytes(b []byte) {
	if w.err != nil {
		return
	}
	_, w.err = w.w.Write(b)
}

func (w *writer) counterSet(s counters.Set) {
	var mask uint64
	for i, v := range s {
		if v != counters.Missing {
			mask |= 1 << uint(i)
		}
	}
	w.uvarint(mask)
	for i, v := range s {
		if mask&(1<<uint(i)) != 0 {
			w.varint(v)
		}
	}
}

// sectionPool recycles the per-rank section buffers used by both Encode and
// Decode. Batch runs decode hundreds of traces back to back; without reuse
// every pass re-grows multi-megabyte buffers just to throw them away.
var sectionPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledSection bounds what goes back in the pool: one pathological
// multi-gigabyte trace must not pin its buffers for the process lifetime.
const maxPooledSection = 16 << 20

func getSectionBuf() *bytes.Buffer {
	b := sectionPool.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

func putSectionBuf(b *bytes.Buffer) {
	if b != nil && b.Cap() <= maxPooledSection {
		sectionPool.Put(b)
	}
}

// Encode writes t to w in the current binary trace format ("PFT2").
// Rank sections are independent byte ranges, so their payloads are encoded
// concurrently and written out in rank order; the emitted bytes are
// identical at any worker count.
func Encode(w io.Writer, t *Trace) error {
	out := bufio.NewWriterSize(w, 1<<16)
	bw := &writer{w: out}
	if _, err := out.WriteString(binaryMagic); err != nil {
		return err
	}
	encodeHeader(bw, t)
	sections := make([]*bytes.Buffer, len(t.Ranks))
	par.ForEach(0, len(t.Ranks), func(_, i int) {
		sections[i] = encodeRankSection(t.Ranks[i])
	})
	for _, sec := range sections {
		bw.uvarint(uint64(sec.Len()))
		bw.bytes(sec.Bytes())
		putSectionBuf(sec)
	}
	if bw.err != nil {
		return bw.err
	}
	return out.Flush()
}

// encodeHeader writes everything after the magic up to the rank sections:
// app name, symbol table, stack table, and the rank count.
func encodeHeader(bw *writer, t *Trace) {
	bw.str(t.AppName)
	routines := t.Symbols.Routines()
	bw.uvarint(uint64(len(routines)))
	for _, r := range routines {
		bw.str(r.Name)
		bw.str(r.File)
		bw.uvarint(uint64(r.StartLine))
		bw.uvarint(uint64(r.EndLine))
	}
	stacks := t.Stacks.All()
	bw.uvarint(uint64(len(stacks)))
	for _, s := range stacks {
		bw.uvarint(uint64(len(s)))
		for _, f := range s {
			bw.varint(int64(f.Routine))
			bw.uvarint(uint64(f.Line))
		}
	}
	bw.uvarint(uint64(len(t.Ranks)))
}

func encodeRankSection(rd *RankData) *bytes.Buffer {
	buf := getSectionBuf()
	bw := &writer{w: buf}
	bw.uvarint(uint64(len(rd.Events)))
	var prev sim.Time
	for _, e := range rd.Events {
		bw.uvarint(uint64(e.Time - prev))
		prev = e.Time
		bw.uvarint(uint64(e.Type))
		bw.varint(e.Value)
		bw.uvarint(uint64(e.Group))
		bw.counterSet(e.Counters)
	}
	bw.uvarint(uint64(len(rd.Samples)))
	prev = 0
	for _, s := range rd.Samples {
		bw.uvarint(uint64(s.Time - prev))
		prev = s.Time
		bw.varint(int64(s.Stack))
		bw.uvarint(uint64(s.Group))
		bw.counterSet(s.Counters)
	}
	return buf
}

// byteReader is what the decoder needs from its source: the stream path
// supplies a *bufio.Reader, the per-section path a *bytes.Reader.
type byteReader interface {
	io.Reader
	io.ByteReader
}

type reader struct {
	r   byteReader
	ctx context.Context
	n   int // records decoded since the last cancellation poll
	err error
}

// pollInterval is how many records the decoder processes between context
// polls: frequent enough that a deadline interrupts a multi-gigabyte stream
// within milliseconds, rare enough to stay invisible in the decode profile.
const pollInterval = 1024

// poll checks the decode context every pollInterval records. It reports
// whether decoding may continue.
func (r *reader) poll() bool {
	if r.err != nil {
		return false
	}
	r.n++
	if r.n%pollInterval == 0 {
		if err := r.ctx.Err(); err != nil {
			r.err = err
			return false
		}
	}
	return true
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(r.r)
	if err != nil {
		r.err = err
	}
	return v
}

func (r *reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(r.r)
	if err != nil {
		r.err = err
	}
	return v
}

func (r *reader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > 1<<20 {
		r.err = fmt.Errorf("trace: string length %d exceeds sanity limit", n)
		return ""
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r.r, b); err != nil {
		r.err = err
		return ""
	}
	return string(b)
}

func (r *reader) counterSet() counters.Set {
	s := counters.AllMissing()
	mask := r.uvarint()
	if r.err != nil {
		return s
	}
	if mask >= 1<<uint(counters.NumIDs) {
		r.err = fmt.Errorf("%w: counter mask %#x has undefined bits", ErrCorrupt, mask)
		return s
	}
	for i := 0; i < int(counters.NumIDs); i++ {
		if mask&(1<<uint(i)) != 0 {
			s[i] = r.varint()
		}
	}
	return s
}

// Sanity limits on decoded collection sizes. Counts come straight from the
// (possibly hostile) input, so nothing may allocate proportionally to a
// count before enough bytes to justify it have actually been read; these
// caps bound the damage a single fabricated count can do.
const (
	maxDecodeCount  = 1 << 28 // events/samples per rank
	maxTableCount   = 1 << 22 // routines, stacks, ranks
	maxStackFrames  = 1 << 12 // frames per call stack
	maxSectionBytes = 1 << 36 // bytes per rank section (length prefix)
)

func (r *reader) count(what string, limit uint64) int {
	n := r.uvarint()
	if r.err != nil {
		// A partially-read varint can carry an arbitrary value; never let
		// it reach a caller that might size an allocation with it.
		return 0
	}
	if n > limit {
		r.err = fmt.Errorf("%w: %s count %d exceeds sanity limit %d", ErrCorrupt, what, n, limit)
		return 0
	}
	return int(n)
}

// DecodeOptions configures trace decoding.
type DecodeOptions struct {
	// Salvage enables lenient decoding: instead of failing on a truncated
	// or corrupt stream, Decode keeps every record decoded before the
	// damage, repairs the result with Sanitize, and reports what happened
	// in the SalvageReport. The header (magic, symbol and stack tables)
	// must still decode — without it the records are uninterpretable.
	Salvage bool
	// Exec composes the execution knobs shared with the analysis stages.
	// The decoder consumes Parallelism — the goroutine cap for per-rank
	// sections; zero or negative means runtime.GOMAXPROCS(0), and the
	// decoded trace (and in salvage mode the report) is identical at any
	// setting. Budget rides along for callers composing one struct; the
	// decoder does not enforce it. The fields are promoted, so
	// opt.Parallelism keeps working; only composite literals need the Exec
	// wrapper.
	exec.Exec
}

// SalvageReport describes what a lenient decode recovered.
type SalvageReport struct {
	// Err is the decode error that was suppressed, wrapping ErrTruncated
	// or ErrCorrupt; nil when the stream decoded cleanly.
	Err error
	// Events and Samples count the records recovered.
	Events, Samples int
	// RanksLost counts ranks whose streams were cut short or never
	// reached before the damage point.
	RanksLost int
	// Problems lists the repairs Sanitize made on the recovered records.
	Problems []Problem
}

// Complete reports whether the stream decoded without damage.
func (sr *SalvageReport) Complete() bool {
	return sr != nil && sr.Err == nil && len(sr.Problems) == 0
}

// Summary renders the report as a short human-readable line.
func (sr *SalvageReport) Summary() string {
	if sr.Complete() {
		return fmt.Sprintf("decoded cleanly: %d events, %d samples", sr.Events, sr.Samples)
	}
	s := fmt.Sprintf("recovered %d events, %d samples (%d ranks damaged, %d repairs)",
		sr.Events, sr.Samples, sr.RanksLost, len(sr.Problems))
	if sr.Err != nil {
		// errors.Join renders multi-line; flatten for the one-line summary.
		s += ": " + strings.ReplaceAll(fmt.Sprint(sr.Err), "\n", ": ")
	}
	return s
}

// Decode reads a binary-format ("PFT2") trace from rd under ctx and opt,
// decoding the per-rank sections concurrently on opt.Parallelism workers;
// the result is deterministic at any setting. The SalvageReport is non-nil
// exactly when opt.Salvage is set and any records were recovered; errors
// wrap the package sentinels (ErrBadMagic, ErrTruncated, ErrCorrupt,
// ErrNoRanks, ErrInvalid — all matching ErrFormat) for errors.Is dispatch.
//
// The record loops poll ctx every few thousand records, so a deadline or
// cancellation interrupts even a multi-gigabyte stream promptly; the
// resulting error matches errors.Is(err, context.Canceled/DeadlineExceeded)
// and is never absorbed by salvage mode (cancellation says nothing about the
// input). Cancellation can only interrupt a Read that returns; a reader that
// blocks indefinitely without honoring ctx itself still blocks the decode.
func Decode(ctx context.Context, rd io.Reader, opt DecodeOptions) (*Trace, *SalvageReport, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	ctx, span := obs.StartSpan(ctx, "decode")
	defer span.End()
	cr := &countingReader{r: rd}
	finish := startDecodePass(ctx, span, "binary", opt, cr)
	r := &reader{r: bufio.NewReaderSize(cr, 1<<16), ctx: ctx}
	h, err := decodeHeader(r)
	if err != nil {
		return nil, nil, err
	}
	t, err := NewChecked(h.app, h.nRanks, h.syms, h.stacks)
	if err != nil {
		return nil, nil, err
	}
	return decodeRankSections(ctx, r, t, h.stackIDs, opt, finish)
}

// header is everything a binary trace carries before its rank sections.
type header struct {
	app      string
	syms     *callstack.SymbolTable
	stacks   *callstack.Interner
	stackIDs []callstack.StackID // wire stack index -> interned ID
	nRanks   int
}

// decodeHeader reads the magic and everything up to the rank sections: app
// name, symbol table, stack table, and the rank count. Header damage is
// never salvageable — the tables interpret every record downstream.
func decodeHeader(r *reader) (header, error) {
	var h header
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(r.r, magic); err != nil {
		return h, fmt.Errorf("reading magic: %w", classifyRead(err))
	}
	if string(magic) != binaryMagic {
		return h, fmt.Errorf("%w: %q", ErrBadMagic, magic)
	}
	h.app = r.str()
	h.syms = callstack.NewSymbolTable()
	nRoutines := r.count("routine", maxTableCount)
	for i := 0; i < nRoutines && r.poll(); i++ {
		rt := callstack.Routine{
			Name:      r.str(),
			File:      r.str(),
			StartLine: int(r.uvarint()),
			EndLine:   int(r.uvarint()),
		}
		if r.err == nil {
			// Define panics on malformed routines (a programming error
			// in-process); from the wire, malformation is corruption.
			if cerr := rt.Check(); cerr != nil {
				r.err = fmt.Errorf("%w: routine %d: %v", ErrCorrupt, i, cerr)
				break
			}
			h.syms.Define(rt)
		}
	}
	h.stacks = callstack.NewInterner()
	nStacks := r.count("stack", maxTableCount)
	h.stackIDs = make([]callstack.StackID, 0, min(nStacks, 1<<16))
	for i := 0; i < nStacks && r.poll(); i++ {
		nf := r.count("frame", maxStackFrames)
		if r.err != nil {
			break
		}
		st := make(callstack.Stack, 0, min(nf, 64))
		for j := 0; j < nf && r.err == nil; j++ {
			st = append(st, callstack.Frame{
				Routine: callstack.RoutineID(r.varint()),
				Line:    int(r.uvarint()),
			})
		}
		if r.err != nil {
			break
		}
		h.stackIDs = append(h.stackIDs, h.stacks.Intern(st))
	}
	h.nRanks = r.count("rank", maxTableCount)
	if r.err != nil {
		return h, classifyRead(r.err)
	}
	if h.nRanks == 0 {
		return h, fmt.Errorf("%w: decoded trace has no ranks", ErrNoRanks)
	}
	return h, nil
}

// sectionLen reads a rank section's length prefix.
func (r *reader) sectionLen(rank int) int64 {
	n := r.uvarint()
	if r.err == nil && n > maxSectionBytes {
		r.err = fmt.Errorf("%w: rank %d section claims %d bytes, exceeds sanity limit %d",
			ErrCorrupt, rank, n, uint64(maxSectionBytes))
		return 0
	}
	return int64(n)
}

// errTrailing reports a section whose length prefix promised more bytes
// than its records consumed: the framing and the content disagree.
func errTrailing(rank int, n int64) error {
	return fmt.Errorf("%w: rank %d section carries %d trailing bytes", ErrCorrupt, rank, n)
}

// decodeEvent reads one event record. ok is false on a reader error; the
// partially-read record must then be discarded by the caller.
func decodeEvent(r *reader, rank int32, prev *sim.Time) (Event, bool) {
	*prev += sim.Time(r.uvarint())
	e := Event{
		Time:     *prev,
		Rank:     rank,
		Type:     EventType(r.uvarint()),
		Value:    r.varint(),
		Group:    uint8(r.uvarint()),
		Counters: r.counterSet(),
	}
	return e, r.err == nil
}

// decodeSample reads one sample record, mapping its stack reference through
// stackIDs. A dangling reference is an error in strict mode and is cleared
// (counted via dangling) in salvage mode. ok is false on a reader error.
func decodeSample(r *reader, rank int32, prev *sim.Time, stackIDs []callstack.StackID, salvage bool, dangling *int) (Sample, bool) {
	*prev += sim.Time(r.uvarint())
	sid := callstack.StackID(r.varint())
	if sid != callstack.NoStack && r.err == nil {
		if sid < 0 || int(sid) >= len(stackIDs) {
			if !salvage {
				r.err = fmt.Errorf("%w: sample references stack %d of %d", ErrCorrupt, sid, len(stackIDs))
				return Sample{}, false
			}
			*dangling++
			sid = callstack.NoStack
		} else {
			sid = stackIDs[sid]
		}
	}
	s := Sample{
		Time:     *prev,
		Rank:     rank,
		Stack:    sid,
		Group:    uint8(r.uvarint()),
		Counters: r.counterSet(),
	}
	return s, r.err == nil
}

// sectionPhase is where a sectionDecoder stands within its section.
type sectionPhase uint8

const (
	phaseEventCount sectionPhase = iota
	phaseEvents
	phaseSampleCount
	phaseSamples
	phaseDone
)

// sectionDecoder is the one place a rank section's bytes become records:
// event count, events (delta-coded times), sample count, samples. It can
// stop at any record boundary and resume, so the streaming reader drives it
// a chunk at a time while the batch decoder drains a buffered section in
// one call.
type sectionDecoder struct {
	r        *reader
	rank     int32
	stackIDs []callstack.StackID
	salvage  bool
	dangling *int // dangling stack references cleared (salvage mode)

	phase sectionPhase
	left  int // records left in the current phase
	prev  sim.Time
}

// decode appends up to limit records to c and reports whether the section's
// last record has been read. It stops early on a reader error, leaving it in
// d.r.err; records decoded before the damage stay in c, which is exactly
// what salvage keeps. Slices are pre-sized to min(count, limit, 1<<20) so a
// hostile count cannot force a large allocation.
func (d *sectionDecoder) decode(c *Chunk, limit int) bool {
	r := d.r
	for r.err == nil {
		switch d.phase {
		case phaseEventCount:
			d.left, d.prev = r.count("event", maxDecodeCount), 0
			d.phase = phaseEvents
		case phaseEvents:
			if c.Events == nil {
				c.Events = make([]Event, 0, min(d.left, limit, 1<<20))
			}
			for d.left > 0 && limit > 0 && r.poll() {
				e, ok := decodeEvent(r, d.rank, &d.prev)
				if !ok {
					break // discard the partially-read record
				}
				c.Events = append(c.Events, e)
				d.left--
				limit--
			}
			if d.left > 0 {
				return false // chunk full or damage
			}
			d.phase = phaseSampleCount
		case phaseSampleCount:
			d.left, d.prev = r.count("sample", maxDecodeCount), 0
			d.phase = phaseSamples
		case phaseSamples:
			if c.Samples == nil {
				c.Samples = make([]Sample, 0, min(d.left, limit, 1<<20))
			}
			for d.left > 0 && limit > 0 && r.poll() {
				s, ok := decodeSample(r, d.rank, &d.prev, d.stackIDs, d.salvage, d.dangling)
				if !ok {
					break
				}
				c.Samples = append(c.Samples, s)
				d.left--
				limit--
			}
			if d.left > 0 {
				return false
			}
			d.phase = phaseDone
		case phaseDone:
			return true
		}
	}
	return false
}

// decodeRankSections is the record path: slice the length-prefixed sections
// off the stream in rank order (the stream is one pipe — I/O stays
// sequential), then decode them concurrently, each worker writing only its
// claimed rank's slot. Slot indexing plus a fixed error-precedence scan make
// the result byte-identical to a serial decode.
func decodeRankSections(ctx context.Context, r *reader, t *Trace, stackIDs []callstack.StackID, opt DecodeOptions, finish func(*Trace, *SalvageReport)) (*Trace, *SalvageReport, error) {
	nRanks := len(t.Ranks)
	bufs := make([]*bytes.Buffer, nRanks)
	defer func() {
		for _, b := range bufs {
			putSectionBuf(b)
		}
	}()
	var streamErr error
	loaded := 0 // sections actually sliced off the stream (prefix of ranks)
	for rank := 0; rank < nRanks; rank++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		n := r.sectionLen(rank)
		if r.err != nil {
			streamErr = r.err
			break
		}
		buf := getSectionBuf()
		bufs[rank] = buf
		// Grow only as bytes actually arrive: a hostile length prefix must
		// not turn into an up-front allocation.
		m, err := buf.ReadFrom(io.LimitReader(r.r, n))
		loaded = rank + 1
		if err != nil {
			streamErr = err
			break
		}
		if m < n {
			// The stream ended inside this section; its prefix still
			// decodes below, which is what salvage keeps.
			streamErr = io.ErrUnexpectedEOF
			break
		}
	}
	workers := min(par.N(opt.Parallelism), loaded)
	wctxs, wspans := obs.WorkerSpans(ctx, "decode_worker", workers)
	rankErrs := make([]error, nRanks)
	rankDangling := make([]int, nRanks)
	par.ForEach(workers, loaded, func(worker, rank int) {
		br := bytes.NewReader(bufs[rank].Bytes())
		d := sectionDecoder{
			r:    &reader{r: br, ctx: wctxs[worker]},
			rank: int32(rank), stackIDs: stackIDs, salvage: opt.Salvage,
			dangling: &rankDangling[rank],
		}
		var c Chunk
		if d.decode(&c, math.MaxInt) && br.Len() > 0 {
			d.r.err = errTrailing(rank, int64(br.Len()))
		}
		rd := t.Ranks[rank]
		rd.Events, rd.Samples = c.Events, c.Samples
		rankErrs[rank] = d.r.err
		wspans[worker].AddInt("ranks", 1)
		wspans[worker].AddInt("records", int64(c.Records()))
	})
	for _, s := range wspans {
		s.End()
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	// Fixed error precedence keeps strict-mode failures deterministic:
	// the lowest-rank section error wins, then any stream-level one.
	decodeErr := streamErr
	for rank := 0; rank < loaded; rank++ {
		if rankErrs[rank] != nil {
			decodeErr = rankErrs[rank]
			break
		}
	}
	danglingStacks := 0
	for _, d := range rankDangling {
		danglingStacks += d
	}
	return sealDecode(t, decodeErr, danglingStacks, opt, finish)
}

// sealDecode finishes a decode whose records are in place: strict mode
// validates and returns, salvage mode repairs what was recovered and
// reports. decodeErr is the first damage hit while decoding records (nil
// for a clean stream).
func sealDecode(t *Trace, decodeErr error, danglingStacks int, opt DecodeOptions, finish func(*Trace, *SalvageReport)) (*Trace, *SalvageReport, error) {
	if decodeErr != nil && (!opt.Salvage ||
		errors.Is(decodeErr, context.Canceled) || errors.Is(decodeErr, context.DeadlineExceeded)) {
		return nil, nil, classifyRead(decodeErr)
	}
	if !opt.Salvage {
		if err := t.Validate(); err != nil {
			return nil, nil, fmt.Errorf("decoded trace invalid: %w", err)
		}
		finish(t, nil)
		return t, nil, nil
	}

	// Salvage path: keep what was recovered, repair it, and report.
	report := &SalvageReport{Err: classifyRead(decodeErr)}
	if danglingStacks > 0 {
		report.Problems = append(report.Problems, Problem{
			Rank: -1, Kind: ProblemDanglingStack, Count: danglingStacks,
			Detail: "samples referencing undefined stacks cleared",
		})
	}
	report.Problems = append(report.Problems, t.Sanitize()...)
	for _, rd := range t.Ranks {
		report.Events += len(rd.Events)
		report.Samples += len(rd.Samples)
	}
	if report.Err != nil {
		for _, rd := range t.Ranks {
			if len(rd.Events) == 0 && len(rd.Samples) == 0 {
				report.RanksLost++
			}
		}
	}
	if report.Err != nil && report.Events == 0 && report.Samples == 0 {
		// A record-free trace is only a failure when damage ate the records;
		// a file that legitimately encodes no records decodes fine strictly
		// and must decode fine here too.
		return nil, nil, fmt.Errorf("nothing salvageable: %w", report.Err)
	}
	if err := t.Validate(); err != nil {
		return nil, nil, fmt.Errorf("salvaged trace still invalid: %w", err)
	}
	finish(t, report)
	return t, report, nil
}

// countingReader counts the bytes pulled through an io.Reader so the decode
// span can report throughput. Single-goroutine by construction: both decoders
// read sequentially from the wrapped source.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// startDecodePass counts one decoder invocation and returns the closure a
// successful decode calls to land its volume on the caller's telemetry —
// record counts and throughput as span attributes and run-wide series, plus
// the decode latency histogram. cr may be nil (no byte accounting). All of
// it is inert when the context carries no telemetry.
func startDecodePass(ctx context.Context, span *obs.Span, format string, opt DecodeOptions, cr *countingReader) func(*Trace, *SalvageReport) {
	mode := "strict"
	if opt.Salvage {
		mode = "salvage"
	}
	span.SetAttr("format", format)
	span.SetAttr("mode", mode)
	reg := obs.Metrics(ctx)
	reg.Counter(obs.MetricDecodePasses, "Decoder passes run, by format and mode.",
		obs.Label{K: "format", V: format}, obs.Label{K: "mode", V: mode}).Inc()
	start := time.Now()
	return func(t *Trace, report *SalvageReport) {
		elapsed := time.Since(start)
		reg.Histogram(obs.MetricDecodeDuration, "Trace decode duration in seconds.",
			obs.DurationBuckets(), obs.Label{K: "format", V: format}).
			Observe(elapsed.Seconds())
		events, samples := 0, 0
		for _, rd := range t.Ranks {
			events += len(rd.Events)
			samples += len(rd.Samples)
		}
		span.SetAttr("ranks", len(t.Ranks))
		span.SetAttr("events", events)
		span.SetAttr("samples", samples)
		if sec := elapsed.Seconds(); sec > 0 {
			rps := float64(events+samples) / sec
			span.SetAttr("records_per_sec", rps)
			reg.Gauge(obs.MetricStageThroughput,
				"Records processed per second by the last pass of each stage.",
				obs.Label{K: "stage", V: "decode"}).Set(rps)
			if cr != nil && cr.n > 0 {
				span.SetAttr("bytes", cr.n)
				span.SetAttr("bytes_per_sec", float64(cr.n)/sec)
			}
		}
		reg.Counter(obs.MetricRecordsDecoded, "Trace records (events and samples) decoded.").
			Add(int64(events + samples))
		if report == nil {
			return
		}
		repairs := int64(0)
		for _, p := range report.Problems {
			repairs += int64(p.Count)
		}
		if repairs > 0 {
			span.SetAttr("salvage_repairs", repairs)
			reg.Counter(obs.MetricSalvageRepairs,
				"Records repaired or cleared by salvage decoding.").Add(repairs)
		}
	}
}
