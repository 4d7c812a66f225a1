// Package obs is the tuning pipeline's observability layer: atomic
// counters, time-bucketed histograms, span-style wall-clock timers with
// parent/child nesting, and a Registry that renders everything as a
// human-readable report or JSON.
//
// The package is dependency-free and built around two properties the
// pipeline requires:
//
//   - Goroutine safety. The collecting component fans simulator runs out
//     across GOMAXPROCS goroutines, so every metric mutation is an atomic
//     operation (or, for the structured types, a short critical section).
//
//   - A near-zero-cost off switch. Every metric method is safe to call on
//     a nil receiver and does nothing, and a nil *Registry hands out nil
//     metrics. Instrumented code therefore holds plain metric pointers and
//     calls them unconditionally; when no registry is attached the whole
//     instrumentation path collapses to a handful of nil checks, cheap
//     enough to stay on in benchmarks (see the overhead guard test in
//     internal/sparksim).
//
// Hot paths should resolve their metrics once (Registry.Counter and
// friends take a lock to get-or-create by name) and hold the pointers, as
// internal/sparksim's Instrument does.
package obs

import (
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically adjustable integer metric. The zero value is
// ready to use; a nil *Counter ignores all writes.
type Counter struct {
	n atomic.Int64
}

// Add increments the counter by d. No-op on a nil receiver.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.n.Add(d)
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// FloatCounter accumulates a float64 total (megabytes spilled, simulated
// seconds, ...) with lock-free compare-and-swap adds. A nil *FloatCounter
// ignores all writes.
type FloatCounter struct {
	bits atomic.Uint64
}

// Add accumulates v. No-op on a nil receiver.
func (c *FloatCounter) Add(v float64) {
	if c == nil {
		return
	}
	for {
		old := c.bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Value returns the accumulated total (0 on a nil receiver).
func (c *FloatCounter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Histogram distributes observations over a fixed set of bucket
// boundaries. Bucket i counts observations v <= Bounds[i]; one overflow
// bucket catches the rest. Observe is lock-free; a nil *Histogram ignores
// all writes.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last is overflow
	count  atomic.Int64
	sum    FloatCounter
	min    atomic.Uint64 // float64 bits; valid only when count > 0
	max    atomic.Uint64
}

// newHistogram builds a histogram over sorted bucket bounds.
func newHistogram(bounds []float64) *Histogram {
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	h.min.Store(math.Float64bits(math.Inf(1)))
	h.max.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// DefaultTimeBounds are the bucket boundaries Registry.Histogram uses when
// none are given: exponential from 1ms to ~18h, suiting both wall-clock
// fits and simulated run times (seconds).
var DefaultTimeBounds = []float64{
	0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1, 3, 10, 30,
	100, 300, 1000, 3000, 10000, 30000, 65536,
}

// DefaultLatencyBounds suit request-serving latencies in seconds: the
// daemon's hot predict path answers in microseconds while its cold
// Load-per-request fallback takes milliseconds, so the buckets run
// 1µs–10s on a 1-2.5-5 ladder. DefaultTimeBounds would fold the entire
// hot path into its first bucket and report a useless p99.
var DefaultLatencyBounds = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Observe records one sample. No-op on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	casFloorCeil(&h.min, v, true)
	casFloorCeil(&h.max, v, false)
}

// casFloorCeil lowers (floor) or raises (!floor) the stored float bits to v.
func casFloorCeil(a *atomic.Uint64, v float64, floor bool) {
	for {
		old := a.Load()
		cur := math.Float64frombits(old)
		if (floor && v >= cur) || (!floor && v <= cur) {
			return
		}
		if a.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the observation total (0 on a nil receiver).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}

// Mean returns the observation mean (0 when empty or nil).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Quantile estimates the q-quantile (0 <= q <= 1) from the bucket
// counts: it finds the bucket holding rank q·n and interpolates linearly
// across that bucket, from max(lower bound, Min) to min(upper bound,
// Max), so an estimate never leaves the observed range. Quantile(0) is
// Min and Quantile(1) is Max. Returns 0 when empty or nil.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	rank := math.Max(0, math.Min(1, q)) * float64(n)
	lo, hi := h.Min(), h.Max()
	var seen int64
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 || float64(seen+c) < rank {
			seen += c
			continue
		}
		l, u := lo, hi
		if i > 0 {
			l = math.Max(h.bounds[i-1], lo)
		}
		if i < len(h.bounds) {
			u = math.Min(h.bounds[i], hi)
		}
		return l + (u-l)*(rank-float64(seen))/float64(c)
	}
	return hi
}

// Min and Max return the extreme observations (0 when empty or nil).
func (h *Histogram) Min() float64 {
	if h.Count() == 0 {
		return 0
	}
	return math.Float64frombits(h.min.Load())
}

// Max returns the largest observation (0 when empty or nil).
func (h *Histogram) Max() float64 {
	if h.Count() == 0 {
		return 0
	}
	return math.Float64frombits(h.max.Load())
}

// HistogramSnapshot is a histogram's JSON form.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	// Bounds and Counts describe the non-empty buckets: Counts[i] samples
	// fell at or below Bounds[i]. The overflow bucket reports the observed
	// Max as its bound so the snapshot stays finite (JSON has no +Inf).
	Bounds []float64 `json:"bounds,omitempty"`
	Counts []int64   `json:"counts,omitempty"`
}

// snapshot captures the histogram's current state.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.Count(), Sum: h.Sum(), Mean: h.Mean(),
		Min: h.Min(), Max: h.Max(),
		P50: h.Quantile(0.50), P95: h.Quantile(0.95), P99: h.Quantile(0.99),
	}
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			continue
		}
		bound := s.Max
		if i < len(h.bounds) {
			bound = h.bounds[i]
		}
		s.Bounds = append(s.Bounds, bound)
		s.Counts = append(s.Counts, n)
	}
	return s
}

// Series records append-only runs of float64 values — the GA's
// best-so-far trajectory per Minimize call, for example. A nil *Series
// ignores all writes.
type Series struct {
	mu   sync.Mutex
	runs [][]float64
}

// AddRun appends one complete run (the values are copied).
func (s *Series) AddRun(values []float64) {
	if s == nil {
		return
	}
	cp := append([]float64(nil), values...)
	s.mu.Lock()
	s.runs = append(s.runs, cp)
	s.mu.Unlock()
}

// Runs returns a deep copy of the recorded runs (nil on a nil receiver).
func (s *Series) Runs() [][]float64 {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([][]float64, len(s.runs))
	for i, r := range s.runs {
		out[i] = append([]float64(nil), r...)
	}
	return out
}
