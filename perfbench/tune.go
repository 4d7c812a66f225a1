package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cluster"
	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sparksim"
	"repro/internal/workloads"
)

// tunePanel is how many fixed tuning seeds tune_ts draws from. A 25 s
// window at the paper budget runs about 40 tunes on a 2-core machine, so
// a run covers the whole panel: tune times differ by seed by ~20%, and a
// run that covered only part of the panel would move with the seed.
const tunePanel = 36

// newTuner wires a tuner exactly like `dac tune`: the simulator at seed+7
// behind the batch executor, the standard space, and the given budget.
// reg may be nil (untraced).
func newTuner(w *workloads.Workload, bud experiments.Budget, seed int64, reg *obs.Registry) *core.Tuner {
	sim := sparksim.New(cluster.Standard(), seed+7)
	sim.Instrument(reg)
	return &core.Tuner{
		Space: conf.StandardSpace(),
		Exec:  core.NewSimExecutor(sim, &w.Program),
		Opt:   core.Options{NTrain: bud.NTrain, HM: bud.HM, GA: bud.GA, Seed: seed},
		Obs:   reg,
	}
}

// runTuneTS is the tune_ts workload: in-process Tuner.Tune for TeraSort
// at the paper budget and the middle Table 1 target, one tuning seed
// after another from the fixed panel.
func runTuneTS(ctx context.Context, b *bench) error {
	w := workloads.TeraSort()
	lo, hi := trainingRange(w)
	target := middleTargetMB(w)
	seeds := panelSeeds(b.cfg.seed, tunePanel)

	// Set-up: the evaluation baselines and one smoke-budget tune, so the
	// first timed tune does not pay one-off start-up costs.
	q, err := setupRepeated(b, func(rep int) (*quality, error) {
		q := newQuality(w)
		_, err := newTuner(w, experiments.QuickBudget(), 900+int64(rep), nil).Tune(lo, hi, []float64{target})
		return q, err
	}, func(*quality) {})
	if err != nil {
		return err
	}

	pass := func(window time.Duration, reg *obs.Registry, q *quality) tunePass {
		var p tunePass
		start := time.Now()
		for i := 0; time.Since(start) < window || i < b.cfg.scale.minOps; i++ {
			seed := seeds[i%len(seeds)]
			t := newTuner(w, b.budget(), seed, reg)
			var res *core.TuneResult
			var err error
			t0 := time.Now()
			if reg == nil {
				res, err = t.Tune(lo, hi, []float64{target})
			} else {
				res, err = p.tracedTune(b, t, i, lo, hi, target)
			}
			p.secs = append(p.secs, time.Since(t0).Seconds())
			b.op(err == nil)
			if err != nil {
				b.invalid("tune seed %d: %v", seed, err)
				continue
			}
			if msg := q.add(res.Best[target].Vector(), res.PredictedSec[target], res.Overhead.CollectClusterHours); msg != "" {
				b.fail("tune seed %d: %s", seed, msg)
			}
			p.last = res.Model
		}
		return p
	}

	if !b.cfg.trace {
		p := pass(b.cfg.window, nil, q)
		b.windowEnded()
		b.reportLatency(p.secs)
		b.set("ops_per_s", float64(len(p.secs))/sum(p.secs))
		q.report(b)
		return nil
	}

	// Traced run: the same seeds untraced, then traced, each for half the
	// window; the headline's difference is the tracing overhead.
	untraced := pass(b.cfg.window/2, nil, newQuality(w))
	reg := obs.NewRegistry()
	traced := pass(b.cfg.window/2, reg, q)
	n := len(traced.secs)
	b.modelLayerMetrics(snapDelta{after: reg.Snapshot()}, n, traced.collect, traced.fit, traced.search)
	b.set("hm.pred_error", ratio(q.predErr, float64(q.n)))
	b.set("obs.trace_overhead", median(traced.secs)/median(untraced.secs)-1)
	b.reportTail(traced.secs)
	if traced.last == nil {
		return fmt.Errorf("no traced tune succeeded")
	}
	rows := randomRows(w, b.cfg.seed, 256)
	b.set("model.batch1_us_per_row", timePredictBatch(traced.last, rows, 1))
	b.set("model.batchN_us_per_row", timePredictBatch(traced.last, rows, b.budget().GA.PopSize))
	b.layersNotRun("serve.memo_hit_ratio", "serve.batch_rows", "serve.modelcache_hit_ratio",
		"serve.predict_server_us", "serve.http_overhead_us", "serve.job_overhead_s",
		"predict.repeat_share", "predict.late_ms", "predict.p99_us",
		"journal.append_us", "registry.save_ms", "registry.load_ms",
		"fleet.chunk_exec_ms", "fleet.protocol_share", "fleet.leases_granted",
		"fleet.leases_requeued_expired", "fleet.results_rejected")
	return nil
}

// tunePass is one measuring pass of tune_ts.
type tunePass struct {
	secs []float64
	// collect, fit and search sum the traced phase wall times.
	collect, fit, search float64
	last                 model.Model
}

// tracedTune runs the pipeline through its two traced public calls —
// Collect, then TuneCollected, whose result equals Tune's — and records
// one span per phase: collect, the model fit (TuneCollected start to its
// "model" progress) and the search ("model" to "search" progress).
func (p *tunePass) tracedTune(b *bench, t *core.Tuner, i int, lo, hi, target float64) (*core.TuneResult, error) {
	op := int64(i + 1)
	root := b.tr.reserve("bench.tune", op, 0)
	t0 := time.Now()
	set, ov, err := t.Collect(t.TrainingSizesMB(lo, hi))
	t1 := time.Now()
	b.tr.record("core.collect", op, root, t0, t1)
	if err != nil {
		b.tr.fill(root, t0, t1)
		return nil, err
	}
	tModel := t1
	res, err := t.TuneCollected(set, ov, []float64{target}, func(phase string, done, total int) {
		if phase == "model" {
			tModel = time.Now()
		}
	})
	t2 := time.Now()
	b.tr.record("hm.fit", op, root, t1, tModel)
	b.tr.record("ga.search", op, root, tModel, t2)
	b.tr.fill(root, t0, t2)
	p.collect += t1.Sub(t0).Seconds()
	p.fit += tModel.Sub(t1).Seconds()
	p.search += t2.Sub(tModel).Seconds()
	return res, err
}

// randomRows draws n feature rows (configuration vector + datasize in the
// workload's training range) for timing model inference.
func randomRows(w *workloads.Workload, seed int64, n int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	space := conf.StandardSpace()
	lo, hi := trainingRange(w)
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = append(space.Random(rng).Vector(), lo+rng.Float64()*(hi-lo))
	}
	return rows
}

// timePredictBatch is the model layer's inference cost in µs per row when
// rows arrive in batches of the given size, timed over model.PredictBatch
// for at least 50 ms.
func timePredictBatch(m model.Model, rows [][]float64, batch int) float64 {
	if batch < 1 {
		batch = 1
	}
	if batch > len(rows) {
		batch = len(rows)
	}
	out := make([]float64, batch)
	var done int
	start := time.Now()
	for i := 0; time.Since(start) < 50*time.Millisecond; i++ {
		lo := (i * batch) % (len(rows) - batch + 1)
		model.PredictBatch(m, rows[lo:lo+batch], out)
		done += batch
	}
	return time.Since(start).Seconds() / float64(done) * 1e6
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
