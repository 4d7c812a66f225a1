package experiments

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/conf"
	"repro/internal/engine"
	"repro/internal/sparksim"
	"repro/internal/workloads"
)

// ValidateRow is one knob-flip cross-check between the real execution
// engine and the cost simulator: the same configuration change is applied
// to both, and the row records whether they agree on the *direction* of
// the effect.
type ValidateRow struct {
	Knob string
	// EngineRatio is time(after)/time(before) measured on the real
	// engine; SimRatio is the simulator's prediction for the analogous
	// cluster-scale change.
	EngineRatio float64
	SimRatio    float64
	Agree       bool
}

// Validate grounds the substitution argument of DESIGN.md §2: for knobs
// both systems implement — shuffle compression and shuffle parallelism —
// the laptop-scale engine and the cluster-scale simulator must move in the
// same direction when the knob flips. Absolute ratios differ (different
// scales, different hardware); the sign of the effect must not.
func Validate(sc Scale) []ValidateRow {
	// --- Real engine measurements (WordCount over ~8MB of text). -------
	var text bytes.Buffer
	if _, err := workloads.GenText(&text, 8<<20, 1); err != nil {
		panic(fmt.Sprintf("experiments: generating text: %v", err))
	}
	words := strings.Fields(text.String())
	wordCount := func(ctx *engine.Context) error {
		_, err := apps.WordCount(ctx, words)
		return err
	}

	// --- Simulator predictions (WordCount at cluster scale). ------------
	sim := sparksim.New(sc.Cluster, sc.Seed)
	wc, _ := workloads.ByAbbr("WC")
	mb := wc.InputMB(120)
	simTime := func(mutate func(conf.Config)) float64 {
		cfg := conf.StandardSpace().Default().Set(conf.ExecutorMemory, 4096)
		if mutate != nil {
			mutate(cfg)
		}
		return sim.Run(&wc.Program, mb, cfg).TotalSec
	}

	rows := []ValidateRow{}

	// Knob 1: shuffle compression on a CPU-bound word count. Both
	// systems must agree on the direction (at this ratio of compute to
	// I/O it costs more CPU than the bytes it saves).
	engRatio := engineRatio(engine.Config{Parallelism: 8},
		engine.Config{Parallelism: 8, CompressShuffle: true}, wordCount)
	simOff := simTime(func(c conf.Config) { c.SetBool(conf.ShuffleCompress, false) })
	simOn := simTime(nil)
	rows = append(rows, mkRow("shuffle compression on", engRatio, simOn/simOff))

	// Knob 2: more task slots (engine workers / executor cores) must
	// speed a CPU-bound job up in both systems. The engine side starts
	// from a single slot: slots beyond the machine's cores add nothing, so
	// a two-slot baseline would measure no change on a two-core machine.
	engRatio = engineRatio(engine.Config{Parallelism: 8, Workers: 1},
		engine.Config{Parallelism: 8, Workers: 8}, wordCount)
	simFew := simTime(func(c conf.Config) {
		c.Set(conf.ExecutorMemory, 8192)
		c.Set(conf.ExecutorCores, 2)
	})
	simMany := simTime(func(c conf.Config) {
		c.Set(conf.ExecutorMemory, 8192)
		c.Set(conf.ExecutorCores, 12)
	})
	rows = append(rows, mkRow("more task slots", engRatio, simMany/simFew))

	// Knob 3: starving the shuffle of memory (forcing spills) must slow
	// both systems down. Word count's combined shuffle is too small to
	// feel it, so this row sorts — the whole dataset crosses the shuffle.
	var tera bytes.Buffer
	if _, err := workloads.GenTeraRecords(&tera, 120_000, 2); err != nil {
		panic(err)
	}
	records := strings.Split(strings.TrimRight(tera.String(), "\n"), "\n")
	teraSort := func(ctx *engine.Context) error {
		_, err := apps.TeraSort(ctx, records)
		return err
	}
	ts, _ := workloads.ByAbbr("TS")
	tsTime := func(memMB float64) float64 {
		cfg := conf.StandardSpace().Default().
			Set(conf.ExecutorMemory, memMB).
			Set(conf.DefaultParallelism, 50)
		return sim.Run(&ts.Program, ts.InputMB(30), cfg).TotalSec
	}
	engRatio = engineRatio(engine.Config{Parallelism: 8},
		engine.Config{Parallelism: 8, ShuffleMemoryMB: 1}, teraSort)
	simRatio := tsTime(1024) / tsTime(8192)
	rows = append(rows, mkRow("shuffle memory starved", engRatio, simRatio))

	return rows
}

// engineRatio returns time(after)/time(before) for job on the engine: the
// median of three rounds, each timing one run under either configuration.
// The rounds alternate which side runs first, so load that drifts across
// the measurement (other processes, the previous run's garbage) lands on
// both sides alike instead of on whichever configuration ran later.
func engineRatio(before, after engine.Config, job func(*engine.Context) error) float64 {
	var ratios [3]float64
	for k := range ratios {
		var b, a float64
		if k%2 == 0 {
			b = engineSeconds(before, job)
			a = engineSeconds(after, job)
		} else {
			a = engineSeconds(after, job)
			b = engineSeconds(before, job)
		}
		ratios[k] = a / b
	}
	return median3(ratios)
}

// engineSeconds times one run of job on a fresh engine context built from
// cfg, starting from a collected heap.
func engineSeconds(cfg engine.Config, job func(*engine.Context) error) float64 {
	runtime.GC()
	ctx := engine.NewContext(cfg)
	start := time.Now()
	if err := job(ctx); err != nil {
		panic(err)
	}
	return time.Since(start).Seconds()
}

// median3 returns the middle value of v.
func median3(v [3]float64) float64 {
	s := v[:]
	sort.Float64s(s)
	return s[1]
}

func mkRow(knob string, engRatio, simRatio float64) ValidateRow {
	return ValidateRow{
		Knob:        knob,
		EngineRatio: engRatio,
		SimRatio:    simRatio,
		Agree:       (engRatio < 1) == (simRatio < 1),
	}
}

// RenderValidate prints the cross-check table.
func RenderValidate(rows []ValidateRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-26s %14s %14s %8s\n", "knob flip", "engine ratio", "sim ratio", "agree")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-26s %14.2f %14.2f %8v\n", r.Knob, r.EngineRatio, r.SimRatio, r.Agree)
	}
	return b.String()
}
