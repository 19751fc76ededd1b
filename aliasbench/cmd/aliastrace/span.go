package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// Span is one call into a layer: which layer, when, under which parent, and
// the counts taken at the same boundary. Spans of one request share Req.
type Span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Req     string `json:"req"`
	Layer   string `json:"layer"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Pairs   int    `json:"pairs,omitempty"`
	Instrs  int    `json:"instrs,omitempty"`
	Mallocs uint64 `json:"mallocs,omitempty"`
	Bytes   int64  `json:"bytes,omitempty"`
}

// Dur returns the span's duration.
func (s *Span) Dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// Tracer keeps spans in memory until the run ends.
type Tracer struct {
	epoch time.Time
	spans []Span
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Call runs f as one span of layer under parent and returns the span. The
// pointer is valid until the next Call.
func (t *Tracer) Call(req, layer string, parent int, f func()) *Span {
	start := time.Now()
	f()
	end := time.Now()
	t.spans = append(t.spans, Span{
		ID: len(t.spans) + 1, Parent: parent, Req: req, Layer: layer,
		StartNS: start.Sub(t.epoch).Nanoseconds(), EndNS: end.Sub(t.epoch).Nanoseconds(),
	})
	return &t.spans[len(t.spans)-1]
}

// CallCounted is Call with the mallocs f made recorded on the span. The
// counter is read with the world stopped, outside the timed interval.
func (t *Tracer) CallCounted(req, layer string, parent int, f func()) *Span {
	m0 := mallocs()
	sp := t.Call(req, layer, parent, f)
	sp.Mallocs = mallocs() - m0
	return sp
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// Write stores every span, one JSON object per line, in dir/name.
func (t *Tracer) Write(dir, name string) (string, error) {
	if dir == "" {
		return "", nil
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	return path, nil
}

// Sum totals the durations and mallocs of every span of one layer.
type Sum struct {
	Dur     time.Duration
	Mallocs uint64
}

// Sums totals the spans by layer.
func (t *Tracer) Sums() map[string]Sum {
	out := map[string]Sum{}
	for i := range t.spans {
		sp := &t.spans[i]
		s := out[sp.Layer]
		s.Dur += sp.Dur()
		s.Mallocs += sp.Mallocs
		out[sp.Layer] = s
	}
	return out
}
