package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	// Every path must be callable and silent on a nil registry.
	c := r.Counter("a")
	c.Add(5)
	c.Inc()
	if c.Value() != 0 {
		t.Fatalf("nil counter value = %d", c.Value())
	}
	f := r.Float("b")
	f.Add(2.5)
	if f.Value() != 0 {
		t.Fatalf("nil float value = %v", f.Value())
	}
	h := r.Histogram("c", nil)
	h.Observe(1)
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram recorded something")
	}
	s := r.Series("d")
	s.AddRun([]float64{1, 2})
	if s.Runs() != nil {
		t.Fatal("nil series recorded something")
	}
	sp := r.StartSpan("e")
	sp.Child("f").End()
	sp.End()
	if got := r.Report(); got != "" {
		t.Fatalf("nil registry report = %q", got)
	}
	snap := r.Snapshot()
	if snap.Counters != nil || snap.Spans != nil {
		t.Fatal("nil registry snapshot not empty")
	}
}

func TestCounterAndFloat(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("runs")
	c.Add(3)
	c.Inc()
	if c.Value() != 4 {
		t.Fatalf("counter = %d, want 4", c.Value())
	}
	if r.Counter("runs") != c {
		t.Fatal("Counter did not return the existing instance")
	}
	f := r.Float("mb")
	f.Add(1.5)
	f.Add(2.25)
	if f.Value() != 3.75 {
		t.Fatalf("float = %v, want 3.75", f.Value())
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("sec", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 2, 3, 20, 500} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if got, want := h.Sum(), 525.5; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	if h.Min() != 0.5 || h.Max() != 500 {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	// Rank 3 of 5 lands in the (1,10] bucket.
	if got := h.Quantile(0.5); got != 10 {
		t.Fatalf("p50 = %v, want 10", got)
	}
	// Rank 5 is in the overflow bucket, reported as the exact max.
	if got := h.Quantile(0.99); got != 500 {
		t.Fatalf("p99 = %v, want 500", got)
	}
	snap := h.snapshot()
	var n int64
	for _, c := range snap.Counts {
		n += c
	}
	if n != 5 {
		t.Fatalf("snapshot bucket counts sum to %d", n)
	}

	// Every value sits below its bucket's bound: the bound-based estimate
	// must clamp to the observed range, so no quantile exceeds the max
	// (or undercuts the min).
	low := r.Histogram("low", []float64{1, 10, 100})
	for _, v := range []float64{0.3, 0.5, 0.8047} {
		low.Observe(v)
	}
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		if got := low.Quantile(q); got != 0.8047 {
			t.Fatalf("below-bound q%v = %v, want the max 0.8047", q, got)
		}
	}
	high := r.Histogram("high", []float64{1, 10, 100})
	for _, v := range []float64{5, 6} {
		high.Observe(v)
	}
	if got := high.Quantile(0.5); got != 6 {
		t.Fatalf("p50 = %v, want the max 6", got)
	}
	if s := low.snapshot(); s.P50 > s.Max || s.P99 > s.Max {
		t.Fatalf("snapshot quantiles above max: %+v", s)
	}
}

func TestSpanTreeAggregates(t *testing.T) {
	r := NewRegistry()
	root := r.StartSpan("tune")
	for i := 0; i < 3; i++ {
		c := root.Child("search")
		c.End()
	}
	root.Child("collect").End()
	root.End()

	snap := r.Snapshot()
	if len(snap.Spans) != 1 {
		t.Fatalf("roots = %d", len(snap.Spans))
	}
	tune := snap.Spans[0]
	if tune.Name != "tune" || tune.Count != 1 {
		t.Fatalf("root = %+v", tune)
	}
	if len(tune.Children) != 2 {
		t.Fatalf("children = %d", len(tune.Children))
	}
	// First-open order: search before collect.
	if tune.Children[0].Name != "search" || tune.Children[0].Count != 3 {
		t.Fatalf("child 0 = %+v", tune.Children[0])
	}
	if tune.Children[1].Name != "collect" || tune.Children[1].Count != 1 {
		t.Fatalf("child 1 = %+v", tune.Children[1])
	}
}

func TestSeriesRuns(t *testing.T) {
	r := NewRegistry()
	s := r.Series("ga.best")
	s.AddRun([]float64{3, 2, 1})
	s.AddRun([]float64{5})
	runs := s.Runs()
	if len(runs) != 2 || len(runs[0]) != 3 || runs[1][0] != 5 {
		t.Fatalf("runs = %v", runs)
	}
	// The stored run must be a copy.
	src := []float64{9}
	s.AddRun(src)
	src[0] = 0
	if got := s.Runs()[2][0]; got != 9 {
		t.Fatalf("AddRun aliased caller slice: %v", got)
	}
}

func TestReportAndJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("sim.runs").Add(7)
	r.Float("sim.spill.mb").Add(12.5)
	r.Histogram("sim.run.simsec", nil).Observe(42)
	r.Series("ga.best").AddRun([]float64{10, 8})
	sp := r.StartSpan("tune")
	sp.Child("model").End()
	sp.End()

	rep := r.Report()
	for _, want := range []string{"phases (wall-clock):", "tune", "model", "sim.runs", "7", "sim.spill.mb", "ga.best", "run 1: 2 points"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("round-tripping JSON: %v", err)
	}
	if snap.Counters["sim.runs"] != 7 {
		t.Fatalf("JSON counters = %v", snap.Counters)
	}
	if snap.Histograms["sim.run.simsec"].Count != 1 {
		t.Fatalf("JSON histogram = %+v", snap.Histograms["sim.run.simsec"])
	}
	if len(snap.Spans) != 1 || snap.Spans[0].Children[0].Name != "model" {
		t.Fatalf("JSON spans = %+v", snap.Spans)
	}
}

// TestConcurrentWriters hammers every metric type from many goroutines;
// run under -race this is the package's own race test, and the totals
// check that no increment is lost.
func TestConcurrentWriters(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("n")
			f := r.Float("x")
			h := r.Histogram("h", []float64{0.5})
			s := r.Series("s")
			root := r.StartSpan("root")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				f.Add(0.5)
				h.Observe(float64(i % 2))
				child := root.Child("work")
				child.End()
			}
			s.AddRun([]float64{1})
			root.End()
		}()
	}
	wg.Wait()
	if got := r.Counter("n").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Float("x").Value(); math.Abs(got-workers*perWorker*0.5) > 1e-6 {
		t.Fatalf("float = %v", got)
	}
	if got := r.Histogram("h", nil).Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d", got)
	}
	if got := len(r.Series("s").Runs()); got != workers {
		t.Fatalf("series runs = %d", got)
	}
	snap := r.Snapshot()
	if snap.Spans[0].Children[0].Count != workers*perWorker {
		t.Fatalf("span count = %d", snap.Spans[0].Children[0].Count)
	}
}
