package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer. Parent is the index of the
// enclosing span, -1 at top level.
type span struct {
	Name    string  `json:"name"`
	Parent  int     `json:"parent"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// ledger times calls into the program's layers. With recording off it
// still returns each call's duration, so the untraced pass and the
// traced pass run the same code; only the traced pass keeps spans.
type ledger struct {
	record bool
	t0     time.Time
	spans  []span
	stack  []int
}

func newLedger(record bool) *ledger { return &ledger{record: record, t0: time.Now()} }

// do runs fn as a span named name, nested under the innermost open span,
// and returns its duration.
func (l *ledger) do(name string, fn func() error) (time.Duration, error) {
	start := time.Now()
	idx := -1
	if l.record {
		parent := -1
		if len(l.stack) > 0 {
			parent = l.stack[len(l.stack)-1]
		}
		idx = len(l.spans)
		l.spans = append(l.spans, span{Name: name, Parent: parent, StartUS: us(start.Sub(l.t0))})
		l.stack = append(l.stack, idx)
	}
	err := fn()
	d := time.Since(start)
	if l.record {
		l.spans[idx].EndUS = us(start.Add(d).Sub(l.t0))
		l.stack = l.stack[:len(l.stack)-1]
	}
	return d, err
}

// covered is the time the top-level spans account for.
func (l *ledger) covered() time.Duration {
	var d float64
	for _, s := range l.spans {
		if s.Parent == -1 {
			d += s.EndUS - s.StartUS
		}
	}
	return time.Duration(d * 1e3)
}

// selfTimes sums each span name's duration minus the part its child
// spans cover.
func (l *ledger) selfTimes() map[string]time.Duration {
	self := map[string]float64{}
	for _, s := range l.spans {
		self[s.Name] += s.EndUS - s.StartUS
		if s.Parent >= 0 {
			self[l.spans[s.Parent].Name] -= s.EndUS - s.StartUS
		}
	}
	out := make(map[string]time.Duration, len(self))
	for k, v := range self {
		out[k] = time.Duration(v * 1e3)
	}
	return out
}

// write stores the spans as JSON at path.
func (l *ledger) write(path string) error {
	data, err := json.MarshalIndent(l.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
