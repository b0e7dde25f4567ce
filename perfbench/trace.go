package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"datablocks/internal/exec"
)

// span is one timed interval of the traced run. Spans of one operation
// share Op; Parent is the span that caused this one (0 for the workload
// span). Times are nanoseconds since the trace began.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the spans kept in memory: the OLTP workload makes
// millions of calls per run, and the span file is for inspection, not for
// the metrics (those come from the per-call latency samples).
const maxSpans = 200_000

// tracer keeps spans in memory and writes them out when the run ends. A
// nil *tracer records nothing, so the untraced run pays only a nil check.
type tracer struct {
	t0      time.Time
	ids     atomic.Uint64
	mu      sync.Mutex
	spans   []span
	dropped int64
	root    uint64
}

func newTracer(workload string) *tracer {
	t := &tracer{t0: time.Now()}
	t.root = t.ids.Add(1)
	t.spans = append(t.spans, span{ID: t.root, Op: t.root, Name: "workload " + workload})
	return t
}

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.t0).Nanoseconds() }

// spanBuf is one goroutine's span buffer, flushed into the tracer in
// bulk so that recording a span takes no lock.
type spanBuf struct {
	t     *tracer
	spans []span
}

func (t *tracer) buf() *spanBuf {
	if t == nil {
		return nil
	}
	return &spanBuf{t: t}
}

// add records a finished span and returns its id. A zero parent means the
// workload span.
func (b *spanBuf) add(parent, op uint64, name string, start, end time.Time) uint64 {
	if b == nil {
		return 0
	}
	if parent == 0 {
		parent = b.t.root
	}
	id := b.t.newID()
	if op == 0 {
		op = id
	}
	b.spans = append(b.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: b.t.ns(start), End: b.t.ns(end)})
	if len(b.spans) >= 4096 {
		b.flush()
	}
	return id
}

func (b *spanBuf) flush() {
	if b == nil || len(b.spans) == 0 {
		return
	}
	t := b.t
	t.mu.Lock()
	room := maxSpans - len(t.spans)
	if room < 0 {
		room = 0
	}
	if room > len(b.spans) {
		room = len(b.spans)
	}
	t.spans = append(t.spans, b.spans[:room]...)
	t.dropped += int64(len(b.spans) - room)
	t.mu.Unlock()
	b.spans = b.spans[:0]
}

// addProfile adds one child span per operator of a profiled query under
// the call span parent. The profile's operator times are inclusive of
// everything downstream and summed across workers; each child is laid out
// from the call's start with its self time (inclusive minus downstream)
// divided by the worker count, so the children partition one worker's
// share of the pipeline and the call span keeps the rest (build sides,
// compilation, merging) as its own self time.
func (b *spanBuf) addProfile(parent, op uint64, start time.Time, p *exec.QueryProfile) {
	if b == nil || p == nil {
		return
	}
	workers := time.Duration(max(1, len(p.Workers)))
	at := start
	for i, o := range p.Operators {
		self := selfTime(p, i) / workers
		b.add(parent, op, "op "+o.Name, at, at.Add(self))
		at = at.Add(self)
	}
}

// selfTime is operator i's inclusive time minus its downstream
// operator's. The order-by runs after the pipeline and is timed alone.
func selfTime(p *exec.QueryProfile, i int) time.Duration {
	ops := p.Operators
	self := ops[i].Time
	if i+1 < len(ops) && ops[i+1].Name != "order-by" {
		self -= ops[i+1].Time
	}
	if self < 0 {
		self = 0
	}
	return self
}

// write stores the spans as one JSON document under dir.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	t.mu.Lock()
	t.spans[0].End = t.ns(time.Now())
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Dropped  int64  `json:"dropped_spans"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.dropped, t.spans}
	buf, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s.json", workload))
	return path, os.WriteFile(path, buf, 0o644)
}
