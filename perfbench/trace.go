package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// tracer times every call the benchmark makes into a layer's public
// functions. The timing is always taken, because metrics need it; when
// on is set the call is also kept as a span in memory, and write dumps
// the spans when the run ends. Nothing inside the program is
// instrumented: a span covers exactly one call made from this package.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

// span is one timed call, or Calls back-to-back calls of the same
// function where one call is too short to time on its own. Op is the
// index of the timed op (the request) the span belongs to, -1 for
// set-up and layer probes; Parent indexes the enclosing span, -1 for a
// root.
type span struct {
	Name   string
	Op     int
	Parent int
	Calls  int
	Start  time.Duration
	Dur    time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanHandle is an open span; end closes it and returns its duration.
type spanHandle struct {
	tr    *tracer
	id    int
	start time.Time
}

// start opens a span named after the called function. parent is the id
// of the enclosing handle (-1 for none).
func (t *tracer) start(name string, op, parent int) spanHandle {
	return t.startCalls(name, op, parent, 1)
}

// startCalls opens a span covering calls consecutive calls.
func (t *tracer) startCalls(name string, op, parent, calls int) spanHandle {
	h := spanHandle{tr: t, id: -1}
	if t.on {
		h.id = len(t.spans)
		t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Calls: calls})
	}
	h.start = time.Now()
	return h
}

func (h spanHandle) end() time.Duration {
	d := time.Since(h.start)
	if h.id >= 0 {
		s := &h.tr.spans[h.id]
		s.Start = h.start.Sub(h.tr.t0)
		s.Dur = d
	}
	return d
}

// timed runs f inside a span and returns its duration.
func (t *tracer) timed(name string, op, parent int, f func() error) (time.Duration, error) {
	h := t.start(name, op, parent)
	err := f()
	return h.end(), err
}

// selfTimes sums each span name's self time: its duration minus the
// part its child spans cover.
func (t *tracer) selfTimes() map[string]float64 {
	self := make(map[string]float64)
	for _, s := range t.spans {
		self[s.Name] += s.Dur.Seconds()
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Name] -= s.Dur.Seconds()
		}
	}
	return self
}

// write dumps the spans as a Chrome trace-event file (load it in
// chrome://tracing or Perfetto): one complete event per span, the op
// index and parent in its args, and the run's stamp under otherData.
func (t *tracer) write(path string, stamp map[string]any) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64(s.Dur.Nanoseconds()) / 1e3,
			Args: map[string]int{"op": s.Op, "parent": s.Parent, "id": i, "calls": s.Calls},
		}
	}
	other := map[string]any{"self_time_s": t.selfTimes()}
	for k, v := range stamp {
		other[k] = v
	}
	data, err := json.MarshalIndent(map[string]any{"traceEvents": events, "otherData": other}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
