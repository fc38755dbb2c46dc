package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer of the
// simulator. All spans of one cell, analysis or job share an id.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Parent int    `json:"parent"` // index of the parent span, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced passes pay only for the nil checks.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	ids   int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// newID returns a fresh id for the spans of one cell, analysis or job
// (0 on a nil recorder).
func (r *recorder) newID() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ids++
	return r.ids
}

// begin opens a span and returns its index (-1 on a nil recorder).
func (r *recorder) begin(id int, name string, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: id, Name: name, Parent: parent, Start: now})
	return len(r.spans) - 1
}

// end closes the span begin returned.
func (r *recorder) end(idx int) {
	if r == nil || idx < 0 {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[idx].End = now
	r.mu.Unlock()
}

// selfTimes returns, per span name, the summed self time in seconds of
// the spans recorded from index from on: each span's duration minus
// the time its children cover.
func (r *recorder) selfTimes(from int) map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	spans := r.spans[from:]
	child := make([]int64, len(spans))
	for _, s := range spans {
		if p := s.Parent - from; s.Parent >= 0 && p >= 0 {
			child[p] += s.End - s.Start
		}
	}
	out := make(map[string]float64)
	for i, s := range spans {
		out[s.Name] += float64(s.End-s.Start-child[i]) / 1e9
	}
	return out
}

// mark returns the index the next span will get.
func (r *recorder) mark() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// write dumps every span as JSON to path.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
