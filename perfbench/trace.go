package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// tracer keeps the traced run's spans in memory and writes them out when
// the run ends. Spans are recorded by the benchmark around its calls into
// the program's public entry points; nothing inside the program is
// traced. A nil *tracer records nothing.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

// span is one interval at a layer boundary. Spans of one timed operation
// share Op; Parent is the enclosing span's ID (0 for an operation root).
// Names are "<layer>.<what>", so self time aggregates by layer.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Op      int64  `json:"op"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// record stores a finished span and returns its ID (0 on a nil tracer).
func (t *tracer) record(name string, op, parent int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		StartNS: start.Sub(t.origin).Nanoseconds(),
		EndNS:   end.Sub(t.origin).Nanoseconds(),
	})
	return id
}

// reserve allocates the ID of a span that is recorded later with fill,
// so children can name a parent that has not ended yet.
func (t *tracer) reserve(name string, op, parent int64) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: int64(len(t.spans) + 1), Parent: parent, Op: op, Name: name})
	return int64(len(t.spans))
}

// fill sets the interval of a reserved span.
func (t *tracer) fill(id int64, start, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.StartNS = start.Sub(t.origin).Nanoseconds()
	s.EndNS = end.Sub(t.origin).Nanoseconds()
}

// selfTimes returns, per layer, the summed self time of its spans in
// seconds: each span's duration minus the part of it its children cover.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		covered := coveredNS(s, children[s.ID])
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += float64(s.EndNS-s.StartNS-covered) / 1e9
	}
	return out
}

// coveredNS is how much of parent's interval the union of kids covers.
func coveredNS(parent span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.StartNS, parent.StartNS), min(k.EndNS, parent.EndNS)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// write saves the environment, the per-layer self times and every span
// as one JSON document.
func (t *tracer) write(path string, env map[string]any) error {
	self := t.selfTimes()
	t.mu.Lock()
	doc := map[string]any{"env": env, "self_s": self, "spans": t.spans}
	data, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
