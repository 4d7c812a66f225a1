package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
	"time"
)

// benchmarkFile is the part of ../BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestMetricListsMatchBenchmarkFile pins the metric names, units and
// workloads the binary reports to the ones BENCHMARK.json declares.
func TestMetricListsMatchBenchmarkFile(t *testing.T) {
	bf := loadBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		if _, ok := workloadRuns[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
		names = append(names, w.Name)
	}
	if len(names) != len(workloadRuns) {
		t.Errorf("BENCHMARK.json lists %d workloads, the binary implements %d", len(names), len(workloadRuns))
	}
	compare := func(kind string, got []metricDef, want []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(got) != len(want) {
			t.Errorf("%s: binary reports %d metrics, BENCHMARK.json declares %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: binary %s (%s), BENCHMARK.json %s (%s)",
					kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	compare("end_to_end", endToEnd, bf.EndToEnd)
	compare("per_layer", perLayer, bf.PerLayer)
}

// tinyScale shrinks every budget so each workload runs in seconds.
var tinyScale = scale{name: "tiny", quick: true, setupReps: 2, predictRate: 100, minOps: 2}

// TestSmokeEveryWorkload runs every workload at the tiny scale, untraced
// and traced, and checks that each declared metric is emitted with its
// unit and that every output check passes.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	names := make([]string, 0, len(workloadRuns))
	for name := range workloadRuns {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, trace := range []bool{false, true} {
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			out, err := run(config{
				workload: name,
				seed:     3,
				window:   2 * time.Second,
				trace:    trace,
				scale:    tinyScale,
				workDir:  t.TempDir(),
			})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d",
					name, trace, out.Correct, out.Attempted, out.Failed)
			}
			if len(out.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(out.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := out.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", name, trace, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", name, trace, d.name, m.Unit, d.unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", name, trace, d.name, m.Value)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, m.Value)
				}
			}
		}
	}
}

func TestPanelSeedsRotateAFixedList(t *testing.T) {
	a, b := panelSeeds(3, 8), panelSeeds(11, 8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeds 3 and 11 rotate an 8-seed panel identically: %v vs %v", a, b)
		}
	}
	if a[0] != 4 || a[7] != 3 {
		t.Fatalf("panelSeeds(3, 8) = %v, want rotation starting at 4", a)
	}
	if neg := panelSeeds(-1, 8); neg[0] != 8 {
		t.Fatalf("panelSeeds(-1, 8) = %v, want rotation starting at 8", neg)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.origin.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.record("bench.op", 1, 0, at(0), at(100))
	tr.record("core.a", 1, root, at(10), at(40))
	tr.record("core.b", 1, root, at(30), at(60)) // overlaps core.a
	self := tr.selfTimes()
	if got := self["bench"]; math.Abs(got-0.050) > 1e-9 {
		t.Errorf("bench self time = %v, want 0.050", got)
	}
	if got := self["core"]; math.Abs(got-0.060) > 1e-9 {
		t.Errorf("core self time = %v, want 0.060", got)
	}
}
