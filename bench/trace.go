package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Parent is the id of
// the span that caused it (0 = a root); spans of one request share the
// "req" attribute.
type span struct {
	ID      int            `json:"id"`
	Parent  int            `json:"parent"`
	Name    string         `json:"name"`
	StartNs int64          `json:"start_ns"`
	EndNs   int64          `json:"end_ns"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the benchmark ends. A nil *tracer
// is tracing switched off: every method is a no-op, so the untraced
// pass runs the same code without recording.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(parent int, name string, start, end time.Time, attrs map[string]any) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name,
		StartNs: start.Sub(t.epoch).Nanoseconds(),
		EndNs:   end.Sub(t.epoch).Nanoseconds(),
		Attrs:   attrs,
	})
	return id
}

// open starts a span whose children are recorded before it ends.
func (t *tracer) open(parent int, name string, attrs map[string]any) int {
	now := time.Now()
	return t.add(parent, name, now, now, attrs)
}

// close ends a span started with open.
func (t *tracer) close(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// timed runs fn inside a span and returns its duration.
func (t *tracer) timed(parent int, name string, attrs map[string]any, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(parent, name, start, end, attrs)
	return end.Sub(start)
}

func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes maps each span id to its self time: its duration minus the
// part of its interval that its child spans cover. Overlapping children
// (requests in flight together under one phase) are counted once, and a
// child is clipped to its parent's interval.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, edge), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.EndNs - s.StartNs - covered
	}
	return self
}

// traceFile is what -trace-out receives.
type traceFile struct {
	Stamp stamp  `json:"stamp"`
	Spans []span `json:"spans"`
	// SelfNs is self time per span id (see selfTimes).
	SelfNs map[int]int64 `json:"self_ns"`
}

func writeTrace(path string, st stamp, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(traceFile{Stamp: st, Spans: spans, SelfNs: selfTimes(spans)})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
