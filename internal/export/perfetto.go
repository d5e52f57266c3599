package export

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"

	"phasefold/internal/core"
	"phasefold/internal/sim"
)

// Perfetto pid/tid layout. Chrome trace-event viewers group events into
// processes (pid) and tracks (tid); we map the analysis onto three fixed
// processes so every view lands in a predictable place.
const (
	pidRanks       = 1 // per-rank burst timeline, tid = rank
	pidPhases      = 2 // per-rank reconstructed phase timeline, tid = rank
	pidClusters    = 3 // per-cluster folded representative burst, tid = label
	pidDiagnostics = 4 // absorbed-fault instant events, tid = 0
)

// The document is json.Encoder's output with SetIndent("", " "): a
// two-key object whose traceEvents array holds one object per event, keys
// in the order name, ph, ts, dur, pid, tid, cat, s, args, with dur, cat
// and s omitted when empty and args always present.
const (
	docOpen  = "{\n \"displayTimeUnit\": \"ms\",\n \"traceEvents\": [\n"
	docClose = "\n ]\n}\n"
	evSep    = ",\n"
	evClose  = "\n   }\n  }"
	keyDur   = ",\n   \"dur\": "
	keyPid   = ",\n   \"pid\": "
	keyTid   = ",\n   \"tid\": "
	keyIter  = ",\n    \"iter\": "
)

// event is one trace event in compact form: its sort key and the values
// that vary from event to event. The rest (name, ph, cat, scope and args)
// is shared by many events and rendered once, into the template tmpl.
type event struct {
	ts, dur float64 // microseconds
	tid     int
	iter    int64 // burst events only; written when non-zero
	tmpl    int32
	pid     uint8
	meta    bool
}

// tmpl locates one event template in perfetto.arena: [start, mid) is the
// event from its opening brace through the "ts" key, [mid, end) the fields
// after tid through the last args field before iter.
type tmpl struct{ start, mid, end int }

// perfetto accumulates the events and templates of one render.
type perfetto struct {
	arena []byte
	tmpls []tmpl
	evs   []event
	err   error // encoding/json's error for the first non-finite ts or dur
}

func usec(t sim.Time) float64 { return float64(t) / 1e3 } // sim.Time is ns

// WritePerfetto renders the view as a Chrome trace-event / Perfetto JSON
// timeline: per-rank burst tracks, per-rank reconstructed phase tracks
// (each burst of a fitted cluster subdivided at the fitted breakpoints),
// one synthetic folded-burst track per cluster, and the diagnostics as
// instant events. Events within a track are sorted by timestamp and never
// overlap; timestamps are microseconds and displayTimeUnit is "ms". The
// output is deterministic for a given view, byte for byte what
// encoding/json's Encoder with SetIndent("", " ") writes for the same
// events. The document reaches w in a single Write; a view that yields a
// NaN or infinite time fails with encoding/json's error and writes nothing.
func WritePerfetto(w io.Writer, v *core.ExportView) error {
	var p perfetto
	p.build(v)
	if p.err != nil {
		return p.err
	}
	slices.SortStableFunc(p.evs, cmpEvents)
	_, err := w.Write(p.render())
	return err
}

// build records the view's events and their templates. Events whose sort
// keys tie keep the order they are appended in, so within a pid that
// order is part of the output.
func (p *perfetto) build(v *core.ExportView) {
	// The last fitted cluster carrying a label subdivides its bursts.
	phasesOf := make(map[int]*core.ExportCluster, len(v.Clusters))
	for i := range v.Clusters {
		c := &v.Clusters[i]
		if len(c.Phases) > 0 {
			phasesOf[c.Label] = c
		}
	}

	// Burst kinds, one per (cluster, region): the burst event's template
	// and, for a fitted cluster, the templates of the phase slices that
	// subdivide the burst. kind[i] is burst i's.
	type burstKey struct {
		cluster int
		region  int64
	}
	type burstKind struct {
		tmpl   int32
		fitted *core.ExportCluster
		phases []int32
	}
	var kinds []burstKind
	kindOf := make(map[burstKey]int32)
	kind := make([]int32, len(v.Bursts))
	n := 2 + 2*max(v.Ranks, 0) + len(v.Bursts) + len(v.Diagnostics)
	for i := range v.Bursts {
		b := &v.Bursts[i]
		j, ok := kindOf[burstKey{b.Cluster, b.Region}]
		if !ok {
			name := "noise"
			if b.Cluster >= 0 {
				name = fmt.Sprintf("cluster %d", b.Cluster)
			}
			k := burstKind{tmpl: p.sliceTmpl(name, "burst", b.Cluster, b.Region, nil), fitted: phasesOf[b.Cluster]}
			if c := k.fitted; c != nil {
				for pi := range c.Phases {
					ph := &c.Phases[pi]
					k.phases = append(k.phases, p.sliceTmpl(phaseName(ph), "phase", c.Label, c.Region, ph))
				}
			}
			j = int32(len(kinds))
			kinds = append(kinds, k)
			kindOf[burstKey{b.Cluster, b.Region}] = j
		}
		kind[i] = j
		n += len(kinds[j].phases)
	}
	if len(v.Clusters) > 0 {
		n += 1 + len(v.Clusters)
	}
	if len(v.Diagnostics) > 0 {
		n++
	}
	for i := range v.Clusters {
		if c := &v.Clusters[i]; c.RepDuration > 0 {
			n += max(1, len(c.Phases))
		}
	}
	p.evs = make([]event, 0, n)

	// Process and thread naming metadata first, in pid/tid order.
	p.meta("process_name", pidRanks, 0, v.App+" ranks")
	for r := 0; r < v.Ranks; r++ {
		p.meta("thread_name", pidRanks, r, fmt.Sprintf("rank %d", r))
	}
	p.meta("process_name", pidPhases, 0, v.App+" phases")
	for r := 0; r < v.Ranks; r++ {
		p.meta("thread_name", pidPhases, r, fmt.Sprintf("rank %d phases", r))
	}
	if len(v.Clusters) > 0 {
		p.meta("process_name", pidClusters, 0, v.App+" clusters (folded)")
		for _, c := range v.Clusters {
			p.meta("thread_name", pidClusters, c.Label, fmt.Sprintf("cluster %d", c.Label))
		}
	}
	if len(v.Diagnostics) > 0 {
		p.meta("process_name", pidDiagnostics, 0, v.App+" diagnostics")
	}

	// Per-rank burst events, then the reconstructed phase slices: a burst
	// in a fitted cluster is subdivided at the cluster's normalized
	// breakpoints scaled into the burst's own [start, end) interval. Each
	// pid's events are appended in one run, in burst order, so the sort
	// finds them nearly in place; events of different pids never compare
	// equal, so this order leaves the stable sort's result unchanged.
	for i := range v.Bursts {
		b := &v.Bursts[i]
		p.add(event{
			ts: usec(b.Start), dur: usec(b.End - b.Start),
			pid: pidRanks, tid: int(b.Rank), iter: b.Iter, tmpl: kinds[kind[i]].tmpl,
		})
	}
	for i := range v.Bursts {
		b, k := &v.Bursts[i], &kinds[kind[i]]
		if k.fitted == nil {
			continue
		}
		span := float64(b.End - b.Start)
		for pi := range k.fitted.Phases {
			ph := &k.fitted.Phases[pi]
			t0 := float64(b.Start) + ph.X0*span
			t1 := float64(b.Start) + ph.X1*span
			p.add(event{
				ts: t0 / 1e3, dur: (t1 - t0) / 1e3,
				pid: pidPhases, tid: int(b.Rank), tmpl: k.phases[pi],
			})
		}
	}

	// Synthetic cluster tracks: the folded representative burst laid out
	// from t=0. A fitted cluster is drawn as its phase subdivision; an
	// unfitted one as a single representative slice. Either way the track
	// stays non-overlapping.
	for i := range v.Clusters {
		c := &v.Clusters[i]
		if c.RepDuration <= 0 {
			continue
		}
		if len(c.Phases) == 0 {
			p.add(event{
				dur: usec(c.RepDuration), pid: pidClusters, tid: c.Label,
				tmpl: p.sliceTmpl(fmt.Sprintf("cluster %d representative", c.Label), "folded", c.Label, c.Region, nil),
			})
			continue
		}
		rep := float64(c.RepDuration)
		for pi := range c.Phases {
			ph := &c.Phases[pi]
			p.add(event{
				ts: ph.X0 * rep / 1e3, dur: (ph.X1 - ph.X0) * rep / 1e3,
				pid: pidClusters, tid: c.Label,
				tmpl: p.sliceTmpl(phaseName(ph), "folded", c.Label, c.Region, ph),
			})
		}
	}

	for i := range v.Diagnostics {
		d := &v.Diagnostics[i]
		p.begin(d.Severity+": "+d.Stage, "i")
		p.arena = append(p.arena, ",\n   \"cat\": \"diagnostic\",\n   \"s\": \"g\",\n   \"args\": {\n    \"message\": "...)
		p.arena = appendString(p.arena, d.Message)
		p.add(event{ts: float64(i), pid: pidDiagnostics, tmpl: p.end()})
	}
}

// add appends e, noting encoding/json's error if ts or dur cannot be
// encoded (dur is encoded whenever it is non-zero, which NaN and ±Inf are).
func (p *perfetto) add(e event) {
	if p.err == nil {
		for _, f := range [2]float64{e.ts, e.dur} {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				_, p.err = json.Marshal(f)
				break
			}
		}
	}
	p.evs = append(p.evs, e)
}

func (p *perfetto) meta(kind string, pid, tid int, name string) {
	p.begin(kind, "M")
	p.arena = append(p.arena, ",\n   \"args\": {\n    \"name\": "...)
	p.arena = appendString(p.arena, name)
	p.add(event{pid: uint8(pid), tid: tid, meta: true, tmpl: p.end()})
}

// begin starts a template: the event's opening brace, name and ph, up to
// the "ts" key.
func (p *perfetto) begin(name, ph string) {
	p.tmpls = append(p.tmpls, tmpl{start: len(p.arena)})
	p.arena = append(p.arena, "  {\n   \"name\": "...)
	p.arena = appendString(p.arena, name)
	p.arena = append(p.arena, ",\n   \"ph\": \""...)
	p.arena = append(p.arena, ph...)
	p.arena = append(p.arena, "\",\n   \"ts\": "...)
	p.tmpls[len(p.tmpls)-1].mid = len(p.arena)
}

// end closes the template begin started and returns its index.
func (p *perfetto) end() int32 {
	i := len(p.tmpls) - 1
	p.tmpls[i].end = len(p.arena)
	return int32(i)
}

// sliceTmpl makes the template of a complete event whose args are a
// cluster and a region, followed for a phase slice (ph non-nil) by the
// phase's attribution and its share, when set. Burst events add their
// iteration after these.
func (p *perfetto) sliceTmpl(name, cat string, cluster int, region int64, ph *core.ExportPhase) int32 {
	p.begin(name, "X")
	p.arena = append(p.arena, ",\n   \"cat\": "...)
	p.arena = appendString(p.arena, cat)
	p.arena = append(p.arena, ",\n   \"args\": {\n    \"cluster\": "...)
	p.arena = strconv.AppendInt(p.arena, int64(cluster), 10)
	p.arena = append(p.arena, ",\n    \"region\": "...)
	p.arena = strconv.AppendInt(p.arena, region, 10)
	if ph != nil && ph.Source != "" {
		p.arena = append(p.arena, ",\n    \"source\": "...)
		p.arena = appendString(p.arena, ph.Source)
	}
	if ph != nil && ph.Share > 0 {
		p.arena = append(p.arena, ",\n    \"share\": "...)
		p.arena = appendString(p.arena, fmt.Sprintf("%.2f", ph.Share))
	}
	return p.end()
}

func phaseName(p *core.ExportPhase) string {
	if p.Source != "" {
		return p.Source
	}
	return fmt.Sprintf("phase %d", p.Index)
}

// cmpEvents orders metadata first, then by (pid, tid, ts, dur descending)
// so each track reads monotonically and enclosing events precede enclosed
// ones — the layout trace viewers expect. No ts or dur is NaN by the time
// events are sorted, so this is a strict weak order.
func cmpEvents(a, b event) int {
	switch {
	case a.meta != b.meta:
		if a.meta {
			return -1
		}
		return 1
	case a.pid != b.pid:
		return int(a.pid) - int(b.pid)
	case a.tid != b.tid:
		if a.tid < b.tid {
			return -1
		}
		return 1
	case a.ts != b.ts:
		if a.ts < b.ts {
			return -1
		}
		return 1
	case a.dur != b.dur:
		if a.dur > b.dur {
			return -1
		}
		return 1
	}
	return 0
}

// render writes the sorted events into one buffer of exactly the
// document's size, measured by rendering each event once into scratch. A
// length bound instead leaves the buffer a third larger than the output,
// which raised phasefoldd's peak heap.
func (p *perfetto) render() []byte {
	n := len(docOpen) + len(docClose) + max(len(p.evs)-1, 0)*len(evSep)
	var scratch []byte
	for i := range p.evs {
		scratch = p.appendEvent(scratch[:0], &p.evs[i])
		n += len(scratch)
	}
	b := make([]byte, 0, n)
	b = append(b, docOpen...)
	for i := range p.evs {
		if i > 0 {
			b = append(b, evSep...)
		}
		b = p.appendEvent(b, &p.evs[i])
	}
	return append(b, docClose...)
}

// appendEvent appends e's JSON object to b.
func (p *perfetto) appendEvent(b []byte, e *event) []byte {
	t := p.tmpls[e.tmpl]
	b = append(b, p.arena[t.start:t.mid]...)
	b = appendFloat(b, e.ts)
	if e.dur != 0 {
		b = append(b, keyDur...)
		b = appendFloat(b, e.dur)
	}
	b = append(b, keyPid...)
	b = strconv.AppendInt(b, int64(e.pid), 10)
	b = append(b, keyTid...)
	b = strconv.AppendInt(b, int64(e.tid), 10)
	b = append(b, p.arena[t.mid:t.end]...)
	if e.iter != 0 {
		b = append(b, keyIter...)
		b = strconv.AppendInt(b, e.iter, 10)
	}
	return append(b, evClose...)
}

// appendFloat appends a finite f as encoding/json does: the shortest
// representation in 'f' form, or in 'e' form outside [1e-6, 1e21), with a
// one-digit negative exponent written without its leading zero.
func appendFloat(b []byte, f float64) []byte {
	// A whole number of nanoseconds n, as every burst time is, below 2^40:
	// float64s there lie far closer together than 0.001, so the shortest
	// form is the decimal n/1000 itself, which is cheap to write.
	if n := int64(math.Round(f * 1e3)); n != 0 && -1<<40 < n && n < 1<<40 && float64(n)/1e3 == f {
		if n < 0 {
			b = append(b, '-')
			n = -n
		}
		b = strconv.AppendInt(b, n/1000, 10)
		if r := n % 1000; r != 0 {
			b = append(b, '.', byte('0'+r/100), byte('0'+r/10%10), byte('0'+r%10))
			for b[len(b)-1] == '0' {
				b = b[:len(b)-1]
			}
		}
		return b
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// clean up e-09 to e-9
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendString appends s as a JSON string with encoding/json's escaping
// (HTML-safe, invalid UTF-8 as U+FFFD, U+2028 and U+2029 escaped). It runs
// once per template, never per event.
func appendString(b []byte, s string) []byte {
	q, _ := json.Marshal(s) // a string always marshals
	return append(b, q...)
}
