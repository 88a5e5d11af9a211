package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// span is one timed call at a seam. Spans of one session, batch or run
// share a group ID; parent is the ID of the span that caused it (0 for a
// root). Spans on one track must nest.
type span struct {
	name       string
	track      int
	id, parent uint64
	group      uint64
	start, end time.Time
}

// tracer keeps spans in memory and writes them as a Chrome trace when the
// run ends. A nil *tracer records nothing, which is the untraced mode.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	ids    uint64
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// newID reserves a span or group ID.
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ids++
	return t.ids
}

// record stores a finished span; id 0 assigns a fresh one.
func (t *tracer) record(s span) {
	if t == nil {
		return
	}
	if s.id == 0 {
		s.id = t.newID()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
}

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace renders the spans as Chrome trace_event JSON: per track, a
// B/E pair per span in nesting order, timestamps in microseconds since the
// tracer started. The result passes telemetry.ValidateChromeTrace, the
// checker behind cmd/tracecheck.
func (t *tracer) chromeTrace() ([]byte, error) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.track != b.track {
			return a.track < b.track
		}
		if !a.start.Equal(b.start) {
			return a.start.Before(b.start)
		}
		return a.end.After(b.end) // parents before the children they enclose
	})
	us := func(at time.Time) float64 { return float64(at.Sub(t.origin).Nanoseconds()) / 1e3 }
	events := make([]chromeEvent, 0, 2*len(spans)+1)
	events = append(events, chromeEvent{Name: "process_name", Ph: "M", Args: map[string]any{"name": "perfbench"}})
	var open []span
	last := 0.0
	emit := func(name, ph string, at time.Time, track int, args map[string]any) {
		ts := us(at)
		if ts < last { // clamp: a child that overran its parent by a tick
			ts = last
		}
		last = ts
		events = append(events, chromeEvent{Name: name, Ph: ph, TS: ts, Pid: 1, Tid: track, Args: args})
	}
	closeUntil := func(track int, at time.Time, all bool) {
		for len(open) > 0 {
			top := open[len(open)-1]
			if !all && top.track == track && top.end.After(at) {
				return
			}
			emit(top.name, "E", top.end, top.track, nil)
			open = open[:len(open)-1]
		}
	}
	for i, s := range spans {
		if i > 0 && spans[i-1].track != s.track {
			closeUntil(0, time.Time{}, true)
			last = 0
		}
		closeUntil(s.track, s.start, false)
		emit(s.name, "B", s.start, s.track, map[string]any{"id": s.id, "parent": s.parent, "group": s.group})
		open = append(open, s)
	}
	closeUntil(0, time.Time{}, true)
	data, err := json.Marshal(events)
	if err != nil {
		return nil, err
	}
	if _, err := telemetry.ValidateChromeTrace(data); err != nil {
		return nil, fmt.Errorf("span trace fails validation: %w", err)
	}
	return data, nil
}

// writeFile writes the Chrome trace to path.
func (t *tracer) writeFile(path string) error {
	data, err := t.chromeTrace()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
