package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary. Spans of one op share
// its id; Parent indexes the span that caused this one (-1 = none).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

func (s span) dur() float64 { return float64(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. The single client of
// an embedded workload nests spans with push/pop; everything recorded
// from another goroutine (the storage.File wrapper under the engine's
// pipeline, the two wire clients) goes through record and hangs under
// whatever span the client has open. A nil tracer records nothing.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	open  []int // push/pop stack; client goroutine only

	cur atomic.Int64 // innermost open span, -1 when none
	op  atomic.Int64 // op id of the open span, -1 when none
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.cur.Store(-1)
	t.op.Store(-1)
	return t
}

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

// push opens a nested span on the client goroutine.
func (t *tracer) push(name string, op int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: int(t.cur.Load()), Op: op})
	t.open = append(t.open, id)
	t.mu.Unlock()
	t.cur.Store(int64(id))
	t.op.Store(int64(op))
}

// pop closes the innermost open span.
func (t *tracer) pop() {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	id := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[id].End = end
	parent, op := -1, -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
		op = t.spans[parent].Op
	}
	t.mu.Unlock()
	t.cur.Store(int64(parent))
	t.op.Store(int64(op))
}

// record adds a finished span under the client's open span. op < 0
// inherits the open span's op id.
func (t *tracer) record(name string, start, end int64, op int) {
	if t == nil {
		return
	}
	if op < 0 {
		op = int(t.op.Load())
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: int(t.cur.Load()), Op: op})
	t.mu.Unlock()
}

// durations returns the duration (ns) of every span of that name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// durationsSuffix is durations over every name with the suffix (the
// device spans of both files).
func (t *tracer) durationsSuffix(suffix string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if strings.HasSuffix(s.Name, suffix) {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus what its
// child spans cover. Children of one span never overlap here (one
// client, and the pipeline goroutine works while the client waits).
func (t *tracer) selfTimes() []float64 {
	self := make([]float64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	for i := range self {
		if self[i] < 0 {
			self[i] = 0
		}
	}
	return self
}

// write stores the spans as JSON; the file is what `trace` points at
// for anyone who wants more than the summary metrics.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	body, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, body, 0o644)
}
