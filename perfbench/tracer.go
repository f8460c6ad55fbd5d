package main

import (
	"strings"
	"time"
)

// span is one timed interval of a traced repetition, recorded by the
// benchmark around a call into the simulator.
type span struct {
	Name string `json:"name"`
	// Parent indexes the enclosing span; -1 marks a top-level span.
	Parent int     `json:"parent"`
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s"`
}

// tracer keeps the spans of the traced run in memory until the run ends.
// A nil tracer records nothing, so untraced repetitions pay one nil check
// per span.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its index, for end and for children.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin).Seconds()
	t.spans = append(t.spans, span{Name: name, Parent: parent, StartS: now, EndS: now})
	return len(t.spans) - 1
}

// end closes the span begin opened.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].EndS = time.Since(t.origin).Seconds()
}

// add records a top-level span whose bounds were observed elsewhere, such
// as the timestamps of a progress hook.
func (t *tracer) add(name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{
		Name:   name,
		Parent: -1,
		StartS: start.Sub(t.origin).Seconds(),
		EndS:   end.Sub(t.origin).Seconds(),
	})
}

// total sums the durations of every span with the given name.
func (t *tracer) total(name string) float64 {
	var s float64
	for _, sp := range t.spans {
		if sp.Name == name {
			s += sp.EndS - sp.StartS
		}
	}
	return s
}

// durations lists the durations of every span whose name has the prefix.
func (t *tracer) durations(prefix string) []float64 {
	var ds []float64
	for _, sp := range t.spans {
		if strings.HasPrefix(sp.Name, prefix) {
			ds = append(ds, sp.EndS-sp.StartS)
		}
	}
	return ds
}
