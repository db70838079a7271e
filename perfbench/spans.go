package main

import (
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Parent is the id of the
// enclosing span (0 for a root); ids start at 1.
type span struct {
	Name   string  `json:"name"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s"`
}

func (s span) dur() float64 { return s.EndS - s.StartS }

// tracer keeps spans in memory until the benchmark writes them out. A nil
// tracer records nothing, so untraced repetitions pay one nil check per
// boundary.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans) + 1, Parent: parent, StartS: now})
	return len(t.spans)
}

// end closes the span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndS = now
}

// durations returns the durations of the spans named name. Read spans
// only once every repetition has returned: all spans are closed then.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// children returns the spans whose parent is id.
func (t *tracer) children(id int) []span {
	var out []span
	for _, s := range t.spans {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

// poolStats derives the worker-pool metrics of one runner.Map span from
// its job spans: busy is the jobs' summed time over workers x wall, and
// tail runs from the first worker going idle for good (the first job end
// after the last job started) to the end of the map.
func poolStats(mapSpan span, jobs []span, workers int) (busy, tail float64) {
	if len(jobs) == 0 || workers <= 0 || mapSpan.dur() <= 0 {
		return 0, 0
	}
	var sum, lastStart float64
	for _, j := range jobs {
		sum += j.dur()
		if j.StartS > lastStart {
			lastStart = j.StartS
		}
	}
	firstIdle := mapSpan.EndS
	for _, j := range jobs {
		if j.EndS > lastStart && j.EndS < firstIdle {
			firstIdle = j.EndS
		}
	}
	return sum / (float64(workers) * mapSpan.dur()), mapSpan.EndS - firstIdle
}
