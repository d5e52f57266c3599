package trace

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"

	"phasefold/internal/callstack"
)

// Chunk is a batch of decoded records from a single rank, in stream order.
// The streaming session consumes chunks; a chunk never spans ranks, so the
// per-rank time order the analysis depends on is preserved by construction.
type Chunk struct {
	Rank    int
	Events  []Event
	Samples []Sample
}

// Records returns the record count of the chunk.
func (c *Chunk) Records() int { return len(c.Events) + len(c.Samples) }

// ChunkReader decodes a binary trace stream ("PFT2") incrementally: the
// header (app name, symbol and stack tables, rank count) is decoded eagerly
// by NewChunkReader, and Next then yields bounded record chunks without ever
// materializing a whole rank section as records. Only the current section's
// undecoded bytes are buffered, so memory stays bounded by the chunk limit
// plus the codec's I/O buffers — this is the reader behind Stream sessions
// analyzing traces larger than memory.
//
// The records produced are bit-identical to Decode's: both paths run the
// same section decoder. Salvage mode keeps every record decoded before a
// damage point; a damaged section is skipped via its length prefix and
// later ranks still decode, matching the batch decoder's per-section
// isolation. Unlike Decode, salvage here does NOT run Sanitize over the
// recovered records (there is no resident trace to repair); the streaming
// session's own per-rank validation takes that role. Header damage is never
// salvageable.
type ChunkReader struct {
	header
	ctx   context.Context
	opt   DecodeOptions
	outer *reader // the stream between sections: header, length prefixes

	section *io.LimitedReader // the current section's undecoded bytes
	secBuf  *bufio.Reader
	dec     sectionDecoder // the current section

	rank    int // current rank being decoded; nRanks when exhausted
	started bool

	events, samples int
	emitted         []bool // per rank: any records yielded
	dangling        int
	damage          error // first suppressed damage (salvage mode)
	done            bool
}

// NewChunkReader reads the stream header from r and returns a reader
// positioned at the first rank's records. Errors wrap the package sentinels
// exactly as Decode's do.
func NewChunkReader(ctx context.Context, rd io.Reader, opt DecodeOptions) (*ChunkReader, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	outer := &reader{r: bufio.NewReaderSize(rd, 1<<16), ctx: ctx}
	h, err := decodeHeader(outer)
	if err != nil {
		return nil, err
	}
	return &ChunkReader{
		header: h, ctx: ctx, opt: opt, outer: outer,
		section: &io.LimitedReader{R: outer.r},
		secBuf:  bufio.NewReaderSize(nil, 1<<12),
		emitted: make([]bool, h.nRanks),
	}, nil
}

// App returns the application name from the header.
func (cr *ChunkReader) App() string { return cr.app }

// NumRanks returns the rank count from the header.
func (cr *ChunkReader) NumRanks() int { return cr.nRanks }

// Symbols returns the decoded symbol table.
func (cr *ChunkReader) Symbols() *callstack.SymbolTable { return cr.syms }

// Stacks returns the decoded stack interner.
func (cr *ChunkReader) Stacks() *callstack.Interner { return cr.stacks }

// Skeleton returns a record-free trace carrying the header (app name, rank
// count, symbol tables) — the shape Model.Export needs to render a streamed
// analysis identically to a batch one.
func (cr *ChunkReader) Skeleton() (*Trace, error) {
	return NewChecked(cr.app, cr.nRanks, cr.syms, cr.stacks)
}

// Report describes what a salvage-mode read recovered; it is meaningful
// once Next has returned io.EOF and nil before that (and always nil in
// strict mode, mirroring Decode). Problems stays empty: ChunkReader streams
// records through without retaining a trace to sanitize.
func (cr *ChunkReader) Report() *SalvageReport {
	if !cr.opt.Salvage || !cr.done {
		return nil
	}
	rep := &SalvageReport{Err: cr.damage, Events: cr.events, Samples: cr.samples}
	if cr.dangling > 0 {
		rep.Problems = append(rep.Problems, Problem{
			Rank: -1, Kind: ProblemDanglingStack, Count: cr.dangling,
			Detail: "samples referencing undefined stacks cleared",
		})
	}
	if rep.Err != nil {
		for _, ok := range cr.emitted {
			if !ok {
				rep.RanksLost++
			}
		}
	}
	return rep
}

// fail finishes the stream on damage: strict mode (or cancellation, never
// absorbed) returns the classified error; salvage mode records the first
// damage and skips to the next rank section.
func (cr *ChunkReader) fail(err error) error {
	err = classifyRead(err)
	if !cr.opt.Salvage || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		cr.done = true
		return err
	}
	if cr.damage == nil {
		cr.damage = err
	}
	if cr.started {
		// The section length prefix bounds the damage: drain the rest of
		// this rank's section and move on, like the batch decoder's
		// per-section isolation.
		if _, derr := io.Copy(io.Discard, cr.secBuf); derr == nil && cr.section.N == 0 {
			cr.rank++
			cr.started = false
			return nil
		}
	}
	// A short section or a stream-level error: nothing after this point is
	// decodable.
	cr.done = true
	return nil
}

// startRank reads the current rank's length prefix and points the section
// decoder at its bytes.
func (cr *ChunkReader) startRank() error {
	n := cr.outer.sectionLen(cr.rank)
	if cr.outer.err != nil {
		return cr.fail(cr.outer.err)
	}
	cr.section.N = n
	cr.secBuf.Reset(cr.section)
	cr.dec = sectionDecoder{
		r:    &reader{r: cr.secBuf, ctx: cr.ctx},
		rank: int32(cr.rank), stackIDs: cr.stackIDs, salvage: cr.opt.Salvage,
		dangling: &cr.dangling,
	}
	cr.started = true
	return nil
}

// endRank closes a section whose last record has been read. Its remaining
// bytes decide the verdict, as they do for Decode's buffered section:
// leftover bytes mean the length prefix and the content disagree, and a
// prefix the stream never reached means the stream was cut short.
func (cr *ChunkReader) endRank() error {
	rest, err := io.Copy(io.Discard, cr.secBuf)
	switch {
	case err != nil:
		return cr.fail(err)
	case rest > 0:
		return cr.fail(errTrailing(cr.rank, rest))
	case cr.section.N > 0:
		return cr.fail(io.ErrUnexpectedEOF)
	}
	cr.rank++
	cr.started = false
	return nil
}

// Next decodes up to limit records (limit <= 0 means 4096) of the current
// rank and returns them. A chunk never mixes ranks; empty ranks are skipped.
// The end of the stream returns io.EOF. In salvage mode damage is absorbed
// (inspect Report after EOF); cancellation is never absorbed.
func (cr *ChunkReader) Next(limit int) (Chunk, error) {
	if limit <= 0 {
		limit = 4096
	}
	for {
		if cr.done || cr.rank >= cr.nRanks {
			cr.done = true
			if cr.damage != nil && cr.events == 0 && cr.samples == 0 {
				return Chunk{}, fmt.Errorf("nothing salvageable: %w", cr.damage)
			}
			return Chunk{}, io.EOF
		}
		if !cr.started {
			if err := cr.startRank(); err != nil {
				return Chunk{}, err
			}
			continue
		}
		c := Chunk{Rank: cr.rank}
		var err error
		if cr.dec.decode(&c, limit) {
			err = cr.endRank()
		} else if cr.dec.r.err != nil {
			err = cr.fail(cr.dec.r.err)
		}
		if err != nil {
			return Chunk{}, err
		}
		if c.Records() > 0 {
			cr.emitted[c.Rank] = true
			cr.events += len(c.Events)
			cr.samples += len(c.Samples)
			return c, nil
		}
		// The rank carried no records, or damage ate the remainder; advance.
	}
}
