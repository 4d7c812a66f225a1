package core

import (
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/conf"
	"repro/internal/ga"
	"repro/internal/hm"
	"repro/internal/sparksim"
	"repro/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/default_path_golden.json from the current code")

const defaultPathGolden = "testdata/default_path_golden.json"

// goldenTune is one default-path Tune outcome at the quick budget.
// Vectors are stored as IEEE-754 bit patterns so the comparison is
// exact, not "close".
type goldenTune struct {
	Workload     string    `json:"workload"`
	BestBits     []uint64  `json:"best_bits"`
	PredictedSec float64   `json:"predicted_sec"`
	History      []float64 `json:"history"`
	Evaluations  int       `json:"evaluations"`
	CacheHits    int       `json:"cache_hits"`
	Converged    int       `json:"converged"`
}

// goldenOnline is one default-path TuneOnline outcome.
type goldenOnline struct {
	Workload       string    `json:"workload"`
	BestBits       []uint64  `json:"best_bits"`
	MeasuredSec    float64   `json:"measured_sec"`
	PredictedSec   float64   `json:"predicted_sec"`
	Screened       []string  `json:"screened"`
	IterPredicted  []float64 `json:"iter_predicted_sec"`
	IterValErr     []float64 `json:"iter_val_err"`
	IterWarmStarts []bool    `json:"iter_warm_started"`
	TotalRuns      int       `json:"total_runs"`
}

type defaultPathGoldenFile struct {
	Tune   []goldenTune `json:"tune"`
	Online goldenOnline `json:"online"`
}

func vectorBits(v []float64) []uint64 {
	out := make([]uint64, len(v))
	for i, x := range v {
		out[i] = math.Float64bits(x)
	}
	return out
}

// goldenTuner is a tuner with nil Backend and Searcher at the quick
// budget (ntrain 200, 120 trees, GA 20×10) over one workload.
func goldenTuner(t *testing.T, abbr string) (*Tuner, *workloads.Workload) {
	t.Helper()
	w, err := workloads.ByAbbr(abbr)
	if err != nil {
		t.Fatal(err)
	}
	return &Tuner{
		Space: conf.StandardSpace(),
		Exec:  NewSimExecutor(sparksim.New(cluster.Standard(), 8), &w.Program),
		Opt: Options{
			NTrain: 200,
			HM:     hm.Options{Trees: 120, LearningRate: 0.1, TreeComplexity: 5},
			GA:     ga.Options{PopSize: 20, Generations: 10},
			Seed:   1,
		},
	}, w
}

func runDefaultPath(t *testing.T) defaultPathGoldenFile {
	t.Helper()
	var got defaultPathGoldenFile
	for _, abbr := range []string{"TS", "KM"} {
		tuner, w := goldenTuner(t, abbr)
		target := w.InputMB(30)
		res, err := tuner.Tune(w.InputMB(10), w.InputMB(50), []float64{target})
		if err != nil {
			t.Fatal(err)
		}
		g := res.GA[target]
		got.Tune = append(got.Tune, goldenTune{
			Workload:     abbr,
			BestBits:     vectorBits(g.Best),
			PredictedSec: res.PredictedSec[target],
			History:      g.History,
			Evaluations:  g.Evaluations,
			CacheHits:    g.CacheHits,
			Converged:    g.Converged,
		})
	}
	tuner, _ := goldenTuner(t, "TS")
	got.Online = runGoldenOnline(t, tuner)
	return got
}

// runGoldenOnline records one quick-budget TuneOnline on the tuner's
// workload (TS).
func runGoldenOnline(t *testing.T, tuner *Tuner) goldenOnline {
	t.Helper()
	w, err := workloads.ByAbbr("TS")
	if err != nil {
		t.Fatal(err)
	}
	oo := OnlineOptions{ScreenSamples: 60, TopK: 8, Iterations: 2, IterBatch: 8, ExtraTrees: 60}
	on, err := tuner.TuneOnline(context.Background(), w.InputMB(10), w.InputMB(50), w.InputMB(30), oo, OnlineHooks{})
	if err != nil {
		t.Fatal(err)
	}
	g := goldenOnline{
		Workload:     "TS",
		BestBits:     vectorBits(on.Best.Vector()),
		MeasuredSec:  on.MeasuredSec,
		PredictedSec: on.PredictedSec,
		Screened:     on.Screened,
		TotalRuns:    on.TotalRuns,
	}
	for _, it := range on.Iterations {
		g.IterPredicted = append(g.IterPredicted, it.PredictedSec)
		g.IterValErr = append(g.IterValErr, it.ValErr)
		g.IterWarmStarts = append(g.IterWarmStarts, it.WarmStarted)
	}
	return g
}

// TestDefaultPathGolden pins the default pipeline — nil Options.Backend
// and nil Options.Searcher, i.e. HM modeling and GA searching — to a
// recorded outcome: Tune on TS and KM and one TuneOnline on TS, compared
// bit for bit. Run with -update to rewrite the file after an intended
// change to the default trajectory.
func TestDefaultPathGolden(t *testing.T) {
	got := runDefaultPath(t)
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(defaultPathGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(defaultPathGolden, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(defaultPathGolden)
	if err != nil {
		t.Fatal(err)
	}
	var want defaultPathGoldenFile
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(got.Tune) != len(want.Tune) {
		t.Fatalf("got %d tune records, golden has %d", len(got.Tune), len(want.Tune))
	}
	for i := range want.Tune {
		if !reflect.DeepEqual(got.Tune[i], want.Tune[i]) {
			t.Errorf("Tune %s diverged from the golden default path:\n got %+v\nwant %+v", want.Tune[i].Workload, got.Tune[i], want.Tune[i])
		}
	}
	if !reflect.DeepEqual(got.Online, want.Online) {
		t.Errorf("TuneOnline %s diverged from the golden default path:\n got %+v\nwant %+v", want.Online.Workload, got.Online, want.Online)
	}
}

// TestTuneOnlineIgnoresGACache checks that a genome cache set on
// Options.GA never reaches tune_online's subspace searches: every
// iteration searches a refit model, so replaying an earlier iteration's
// fitness values would change the trajectory.
func TestTuneOnlineIgnoresGACache(t *testing.T) {
	plain, _ := goldenTuner(t, "TS")
	cached, _ := goldenTuner(t, "TS")
	cached.Opt.GA.Cache = ga.NewGenomeCache()
	if got, want := runGoldenOnline(t, cached), runGoldenOnline(t, plain); !reflect.DeepEqual(got, want) {
		t.Errorf("a shared GA cache changed TuneOnline:\n got %+v\nwant %+v", got, want)
	}
}
