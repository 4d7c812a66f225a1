package core

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/conf"
	"repro/internal/dataset"
	"repro/internal/ga"
	"repro/internal/hm"
	"repro/internal/sparksim"
	"repro/internal/workloads"
)

// TestCollectResumableMatchesCollect pins the collecting paths'
// equivalence contract against the serial oracle (serialSet): with no
// known rows, CollectResumable at any checkpoint batch size, Collect, and
// ExecuteRows over a shuffled chunk partition must all produce a CSV and
// cluster time identical to one-row-at-a-time execution, and the paths
// with a batch hook must deliver every row exactly once.
func TestCollectResumableMatchesCollect(t *testing.T) {
	w, err := workloads.ByAbbr("TS")
	if err != nil {
		t.Fatal(err)
	}
	sim := sparksim.New(cluster.Standard(), 8)
	tuner := &Tuner{
		Space: conf.StandardSpace(),
		Exec:  NewSimExecutor(sim, &w.Program),
		Opt:   Options{NTrain: 150, Seed: 1},
	}
	sizes := tuner.TrainingSizesMB(10*1024, 50*1024)
	ref, refHours := serialSet(tuner, sizes)
	refCSV := csvOf(t, ref)

	type collectCase struct {
		name string
		// run collects, handing fresh rows to onBatch when the path has
		// a batch hook (delivers).
		run      func(onBatch func([]RowTime)) (*dataset.Set, Overhead, error)
		delivers bool
	}
	cases := []collectCase{
		{name: "Collect", run: func(func([]RowTime)) (*dataset.Set, Overhead, error) { return tuner.Collect(sizes) }},
		{name: "ExecuteRows/shuffled-chunks", delivers: true, run: func(onBatch func([]RowTime)) (*dataset.Set, Overhead, error) {
			return executeRowsSet(t, tuner, sizes, onBatch)
		}},
	}
	for _, batchRows := range []int{1, 7, 64, 1000} {
		cases = append(cases, collectCase{
			name:     fmt.Sprintf("CollectResumable/batchRows=%d", batchRows),
			delivers: true,
			run: func(onBatch func([]RowTime)) (*dataset.Set, Overhead, error) {
				return tuner.CollectResumable(context.Background(), sizes, CollectHooks{BatchRows: batchRows, OnBatch: onBatch})
			},
		})
	}
	for _, c := range cases {
		var mu sync.Mutex
		seen := make(map[int]float64)
		set, ov, err := c.run(func(rows []RowTime) {
			mu.Lock()
			defer mu.Unlock()
			for _, r := range rows {
				if _, dup := seen[r.Index]; dup {
					t.Errorf("%s: row %d delivered twice", c.name, r.Index)
				}
				seen[r.Index] = r.TimeSec
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !bytes.Equal(csvOf(t, set), refCSV) {
			t.Fatalf("%s: CSV differs from the serial oracle", c.name)
		}
		if ov.CollectClusterHours != refHours {
			t.Fatalf("%s: cluster-hours drifted: %v vs %v", c.name, ov.CollectClusterHours, refHours)
		}
		if c.delivers && len(seen) != tuner.Opt.NTrain {
			t.Fatalf("%s: OnBatch saw %d rows, want %d", c.name, len(seen), tuner.Opt.NTrain)
		}
	}

	// Known rows short-circuit: feed half the rows back, require the other
	// half to be the only fresh executions, and the set to stay identical.
	half := make(map[int]float64)
	for i, pv := range ref.Vectors {
		if i%2 == 0 {
			half[i] = pv.TimeSec
		}
	}
	fresh := 0
	var mu sync.Mutex
	set, _, err := tuner.CollectResumable(context.Background(), sizes, CollectHooks{
		Known: func(i int) (float64, bool) { v, ok := half[i]; return v, ok },
		OnBatch: func(rows []RowTime) {
			mu.Lock()
			defer mu.Unlock()
			for _, r := range rows {
				if _, known := half[r.Index]; known {
					t.Errorf("known row %d re-executed", r.Index)
				}
				fresh++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csvOf(t, set), refCSV) {
		t.Fatal("half-resumed collect CSV differs from the serial oracle")
	}
	if fresh != tuner.Opt.NTrain-len(half) {
		t.Fatalf("resumed sweep executed %d fresh rows, want %d", fresh, tuner.Opt.NTrain-len(half))
	}
}

// TestCollectResumableCancel pins cancellation: a cancelled sweep returns
// ctx's error, and the rows delivered before the cancel replay through
// Known to finish the sweep with a byte-identical CSV.
func TestCollectResumableCancel(t *testing.T) {
	w, err := workloads.ByAbbr("TS")
	if err != nil {
		t.Fatal(err)
	}
	sim := sparksim.New(cluster.Standard(), 8)
	tuner := &Tuner{
		Space: conf.StandardSpace(),
		Exec:  NewSimExecutor(sim, &w.Program),
		Opt:   Options{NTrain: 120, Seed: 1, Parallelism: 2},
	}
	sizes := tuner.TrainingSizesMB(10*1024, 50*1024)
	ref, _ := serialSet(tuner, sizes)
	refCSV := csvOf(t, ref)

	ctx, cancel := context.WithCancel(context.Background())
	journal := make(map[int]float64)
	var mu sync.Mutex
	_, _, err = tuner.CollectResumable(ctx, sizes, CollectHooks{
		BatchRows: 10,
		OnBatch: func(rows []RowTime) {
			mu.Lock()
			defer mu.Unlock()
			for _, r := range rows {
				journal[r.Index] = r.TimeSec
			}
			if len(journal) >= 30 {
				cancel()
			}
		},
	})
	if err == nil {
		t.Fatal("cancelled collect returned nil error")
	}
	if len(journal) >= tuner.Opt.NTrain {
		t.Fatalf("cancel had no effect: all %d rows ran", len(journal))
	}

	set, _, err := tuner.CollectResumable(context.Background(), sizes, CollectHooks{
		BatchRows: 10,
		Known: func(i int) (float64, bool) {
			mu.Lock()
			defer mu.Unlock()
			v, ok := journal[i]
			return v, ok
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csvOf(t, set), refCSV) {
		t.Fatal("cancel-then-resume CSV differs from the serial oracle")
	}
}

// gatedExecutor is a BatchExecutor whose ExecuteBatch calls block until
// `want` of them are in flight at once, so concurrent workers finish
// their batches together. A call that gives up waiting counts in
// timedOut — the batches did not run at the same time.
type gatedExecutor struct {
	want     int
	mu       sync.Mutex
	started  int
	timedOut int
	open     chan struct{}
}

func (g *gatedExecutor) Execute(conf.Config, float64) float64 { return 1 }

func (g *gatedExecutor) ExecuteBatch(jobs []Job) []float64 {
	g.mu.Lock()
	if g.started++; g.started == g.want {
		close(g.open)
	}
	g.mu.Unlock()
	select {
	case <-g.open:
	case <-time.After(5 * time.Second):
		g.mu.Lock()
		g.timedOut++
		g.mu.Unlock()
	}
	out := make([]float64, len(jobs))
	for i := range out {
		out[i] = 1
	}
	return out
}

// TestCollectResumableProgressMonotonic pins that Progress counts never
// go backwards: two workers finish their batches together, and the
// first batch's report is held until the second's lands or a grace
// period passes. A runner that bumps the count and reports it as two
// unsynchronized steps lets the later, larger count land first — which
// the daemon's job record would then overwrite with the smaller one.
func TestCollectResumableProgressMonotonic(t *testing.T) {
	tuner := &Tuner{
		Space: conf.StandardSpace(),
		Exec:  &gatedExecutor{want: 2, open: make(chan struct{})},
		Opt:   Options{NTrain: 8, Seed: 1, Parallelism: 2},
	}
	var mu sync.Mutex
	var reported []int
	secondLanded := make(chan struct{})
	_, _, err := tuner.CollectResumable(context.Background(), []float64{1024}, CollectHooks{
		BatchRows: 4,
		Progress: func(done, total int) {
			if done == 4 {
				select {
				case <-secondLanded:
				case <-time.After(50 * time.Millisecond):
				}
			}
			mu.Lock()
			reported = append(reported, done)
			mu.Unlock()
			if done == 8 {
				close(secondLanded)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reported, []int{0, 4, 8}) {
		t.Fatalf("progress reports = %v, want [0 4 8] (never decreasing)", reported)
	}
}

// TestTuneCollectedMatchesTune pins the daemon's pipeline seam: Tune must
// equal collect-then-TuneCollected exactly — same best vector, same
// prediction, same GA trajectory — because all modeling/search randomness
// derives from Opt.Seed, not from how the set was gathered.
func TestTuneCollectedMatchesTune(t *testing.T) {
	w, err := workloads.ByAbbr("TS")
	if err != nil {
		t.Fatal(err)
	}
	newTuner := func() *Tuner {
		sim := sparksim.New(cluster.Standard(), 8)
		return &Tuner{
			Space: conf.StandardSpace(),
			Exec:  NewSimExecutor(sim, &w.Program),
			Opt: Options{
				NTrain: 200,
				HM:     hm.Options{Trees: 120, LearningRate: 0.1, TreeComplexity: 5},
				GA:     ga.Options{PopSize: 20, Generations: 10},
				Seed:   3,
			},
		}
	}
	target := w.InputMB(30)
	lo, hi := w.InputMB(10), w.InputMB(50)

	ref, err := newTuner().Tune(lo, hi, []float64{target})
	if err != nil {
		t.Fatal(err)
	}

	tuner := newTuner()
	set, ovC, err := tuner.CollectResumable(context.Background(), tuner.TrainingSizesMB(lo, hi), CollectHooks{})
	if err != nil {
		t.Fatal(err)
	}
	var phases []string
	got, err := tuner.TuneCollected(set, ovC, []float64{target}, func(phase string, done, total int) {
		phases = append(phases, phase)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Best[target].Vector(), ref.Best[target].Vector()) {
		t.Fatal("TuneCollected best configuration differs from Tune")
	}
	if got.PredictedSec[target] != ref.PredictedSec[target] {
		t.Fatalf("predictions differ: %v vs %v", got.PredictedSec[target], ref.PredictedSec[target])
	}
	if !reflect.DeepEqual(got.GA[target].History, ref.GA[target].History) {
		t.Fatal("GA trajectories differ")
	}
	if len(phases) != 2 || phases[0] != "model" || phases[1] != "search" {
		t.Fatalf("progress phases = %v, want [model search]", phases)
	}
}
