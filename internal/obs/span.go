package obs

import (
	"context"
	"strconv"
	"sync"
	"time"
)

// Attr is one key/value attribute on a span. Values are kept as-is; the
// manifest serializer handles strings, integers, floats, bools, and
// durations.
type Attr struct {
	Key   string
	Value any
}

// Span is one timed, attributed, possibly nested unit of pipeline work.
// The zero of usefulness is a nil *Span: every method is nil-safe and
// inert, so instrumented code never branches on whether telemetry is on.
type Span struct {
	name  string
	start time.Time

	mu       sync.Mutex
	end      time.Time
	attrs    []Attr
	children []*Span
}

// Name returns the span name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// SetAttr sets (or replaces) an attribute on the span.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = value
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// AddInt accumulates delta into an int64 attribute, creating it at zero.
// Concurrent stages (per-cluster fits feeding one "fit" span) use this to
// sum their contributions.
func (s *Span) AddInt(key string, delta int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			if v, ok := s.attrs[i].Value.(int64); ok {
				s.attrs[i].Value = v + delta
				return
			}
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: delta})
}

// Attr returns the value of one attribute and whether it is set.
func (s *Span) Attr(key string) (any, bool) {
	if s == nil {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range s.attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return nil, false
}

// Attrs returns a copy of the span's attributes.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Attr, len(s.attrs))
	copy(out, s.attrs)
	return out
}

// Children returns a copy of the nested spans.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Span, len(s.children))
	copy(out, s.children)
	return out
}

// Child returns the first child span with the given name, or nil.
func (s *Span) Child(name string) *Span {
	for _, c := range s.Children() {
		if c.name == name {
			return c
		}
	}
	return nil
}

// End stamps the span's end time. Ending twice keeps the first stamp.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
}

// Duration returns the span's wall-clock time; an unfinished span reports
// the time elapsed so far.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	end := s.end
	s.mu.Unlock()
	if end.IsZero() {
		return time.Since(s.start)
	}
	return end.Sub(s.start)
}

// Start returns the span's start time (zero on nil).
func (s *Span) Start() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.start
}

// NewSpanAt returns a detached span starting at t. It is the building
// block for lifecycle spans whose timing is known from persisted state
// (journal replay after a crash) or that must outlive the goroutine that
// opened them; attach it to a tree with Adopt and close it with End or
// EndAt.
func NewSpanAt(name string, t time.Time) *Span {
	return &Span{name: name, start: t}
}

// EndAt stamps the span's end time at t. Like End, ending twice keeps the
// first stamp.
func (s *Span) EndAt(t time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.end.IsZero() {
		s.end = t
	}
}

// Adopt attaches child under s. Both sides are nil-safe, so span-tree
// assembly code never branches on whether telemetry is on.
func (s *Span) Adopt(child *Span) {
	if s == nil || child == nil {
		return
	}
	s.addChild(child)
}

func (s *Span) addChild(c *Span) {
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
}

// Recorder collects the span trees of one run. A nil Recorder in context
// (the default) disables spans entirely.
type Recorder struct {
	mu    sync.Mutex
	roots []*Span
}

// NewRecorder returns an empty span recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Roots returns a copy of the top-level spans, in start order.
func (r *Recorder) Roots() []*Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Span, len(r.roots))
	copy(out, r.roots)
	return out
}

func (r *Recorder) addRoot(s *Span) {
	r.mu.Lock()
	r.roots = append(r.roots, s)
	r.mu.Unlock()
}

// WithRecorder attaches a span recorder to ctx, enabling StartSpan.
func WithRecorder(ctx context.Context, r *Recorder) context.Context {
	return context.WithValue(ctx, recorderKey, r)
}

// RecorderFromContext returns the recorder carried by ctx, or nil.
func RecorderFromContext(ctx context.Context) *Recorder {
	r, _ := ctx.Value(recorderKey).(*Recorder)
	return r
}

// StartSpan opens a span nested under the context's current span (or as a
// new root) and returns a context carrying it as the current span. When ctx
// carries no Recorder it returns ctx unchanged and a nil span — the whole
// call is one context lookup, which keeps disabled-telemetry overhead
// negligible. The caller must End the returned span (nil-safe).
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	rec := RecorderFromContext(ctx)
	if rec == nil {
		return ctx, nil
	}
	s := &Span{name: name, start: time.Now()}
	if parent, _ := ctx.Value(spanKey).(*Span); parent != nil {
		parent.addChild(s)
	} else {
		rec.addRoot(s)
	}
	return context.WithValue(ctx, spanKey, s), s
}

// WorkerSpans opens one child span per pool worker under ctx's current
// span, named prefix_0, prefix_1, ... — per worker, not per item, so span
// volume stays bounded however large the input is. Each worker owns its
// span exclusively; Span methods are also mutex-protected, so concurrent
// children under one parent are safe. Callers must End every returned span
// after the pool joins. workers below 1 counts as 1. With telemetry absent
// from ctx the spans are nil and every operation on them is a no-op.
func WorkerSpans(ctx context.Context, prefix string, workers int) ([]context.Context, []*Span) {
	workers = max(workers, 1)
	ctxs := make([]context.Context, workers)
	spans := make([]*Span, workers)
	for w := range ctxs {
		ctxs[w], spans[w] = StartSpan(ctx, prefix+"_"+strconv.Itoa(w))
	}
	return ctxs, spans
}

// SpanFromContext returns the current span, or nil. Instrumented leaf code
// (the DP fit, the decoders) uses it to attach attributes to whatever stage
// invoked it.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey).(*Span)
	return s
}
