package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. The benchmark records spans around
// its own calls into the program's packages; nothing inside the program is
// instrumented.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"` // 0 for a root
	Trace  int           `json:"trace"`            // shared by one repetition's spans
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"` // since the recorder was created
	End    time.Duration `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, so untraced runs pay only a nil check.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span named name under parent (0 for a new root) in the given
// trace and returns its id.
func (r *recorder) begin(trace, parent int, name string) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: now})
	return id
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// selfTimes sums, per trace and span name, each span's duration minus the
// part of its interval that its child spans cover.
func (r *recorder) selfTimes() map[int]map[string]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]map[string]time.Duration)
	for _, s := range r.spans {
		if out[s.Trace] == nil {
			out[s.Trace] = make(map[string]time.Duration)
		}
		out[s.Trace][s.Name] += selfTime(s, children[s.ID])
	}
	return out
}

// durations sums, per trace and span name, the spans' full durations.
func (r *recorder) durations() map[int]map[string]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[int]map[string]time.Duration)
	for _, s := range r.spans {
		if out[s.Trace] == nil {
			out[s.Trace] = make(map[string]time.Duration)
		}
		out[s.Trace][s.Name] += s.End - s.Start
	}
	return out
}

// selfTime is s's duration minus the union of its children's intervals
// clipped to s.
func selfTime(s span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, s.Start), min(k.End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, reach time.Duration
	reach = s.Start
	for _, v := range ivs {
		if v.b <= reach {
			continue
		}
		covered += v.b - max(v.a, reach)
		reach = v.b
	}
	return s.End - s.Start - covered
}

// write saves every span as one JSON document.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
