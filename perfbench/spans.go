package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sgr/internal/obs"
)

// spanRec is one span of the traced run. ID groups the spans of one
// operation (a restore, a crawl, a job); Count > 1 marks an aggregate of
// many short episodes, as obs.Timer spans are.
type spanRec struct {
	Name  string
	Cat   string // layer the span times
	ID    int64
	Start time.Duration // from the log's start
	Dur   time.Duration
	Count int64
}

// spanLog keeps the traced run's spans in memory; they are written out
// once the run ends. Methods on a nil log do nothing, so untraced runs
// pass nil.
type spanLog struct {
	start time.Time
	mu    sync.Mutex
	spans []spanRec
}

func newSpanLog() *spanLog { return &spanLog{start: time.Now()} }

// add records a span measured on the benchmark's side of a layer call.
func (l *spanLog) add(cat, name string, id int64, start time.Time, dur time.Duration, count int64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, spanRec{Name: name, Cat: cat, ID: id, Start: start.Sub(l.start), Dur: dur, Count: count})
	l.mu.Unlock()
}

// addProgram records spans the program itself produced (core.Options.Trace,
// GET /v1/jobs/{id}/trace), placing them relative to base, the instant
// their trace started.
func (l *spanLog) addProgram(cat string, id int64, base time.Time, spans []obs.Span) {
	for _, s := range spans {
		l.add(cat, s.Name, id, base.Add(time.Duration(s.StartUS)*time.Microsecond),
			time.Duration(s.DurUS)*time.Microsecond, s.Count)
	}
}

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur"`
	PID  int            `json:"pid"`
	TID  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans in the Chrome trace_event format, one
// thread row per operation, with the run's stamp as metadata.
func (l *spanLog) writeChrome(path string, st stamp) error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	events := make([]chromeEvent, 0, len(l.spans))
	for _, s := range l.spans {
		ev := chromeEvent{Name: s.Name, Cat: s.Cat, Ph: "X", TS: s.Start.Microseconds(),
			Dur: s.Dur.Microseconds(), PID: 1, TID: s.ID}
		if s.Count > 1 {
			ev.Args = map[string]any{"count": s.Count}
		}
		events = append(events, ev)
	}
	l.mu.Unlock()
	body, err := json.Marshal(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
		OtherData       stamp         `json:"otherData"`
	}{events, "ms", st})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, body, 0o644)
}
